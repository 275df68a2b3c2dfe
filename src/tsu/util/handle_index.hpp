// Open-addressing hash index from a caller-held key to a 32-bit handle.
//
// The index stores only (hash, handle) pairs; the keys live in the
// caller's own slots (a flow table's rule slots, the admission index's
// postings), and lookups compare them through a caller-supplied
// predicate. Linear probing with backward-shift deletion keeps probe runs
// short without tombstones, and the bucket array only ever grows - past
// its high-water size, insert/erase churn of any length allocates nothing.
// Copies are plain value copies (handles are indices, not pointers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsu/util/assert.hpp"

namespace tsu::util {

// Finalizer of splitmix64: every input bit reaches every output bit, so
// the low bits the index probes with are as good as the high ones. Keys
// fold their fields with a multiply-xor chain and finish with one mix.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class HandleIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::size_t size() const noexcept { return size_; }

  // The bucket holding the handle whose key has `hash` and satisfies
  // `same_key(handle)`, or null. The caller may overwrite the handle in
  // place with another one of the same key.
  template <typename SameKey>
  std::uint32_t* find(std::uint64_t hash, SameKey&& same_key) {
    const std::size_t i = locate(hash, same_key);
    return i == kMissing ? nullptr : &buckets_[i].handle;
  }
  // The handle stored for the key, or kNone.
  template <typename SameKey>
  std::uint32_t find_handle(std::uint64_t hash, SameKey&& same_key) const {
    const std::size_t i = locate(hash, same_key);
    return i == kMissing ? kNone : buckets_[i].handle;
  }

  // Adds `handle` under `hash`; its key must not be present yet.
  void insert(std::uint64_t hash, std::uint32_t handle) {
    TSU_ASSERT(handle != kNone);
    if (2 * (size_ + 1) > buckets_.size()) grow();
    place(Bucket{handle, static_cast<std::uint32_t>(hash)});
    ++size_;
  }

  // Removes `handle`, which must be present under `hash`.
  void erase(std::uint64_t hash, std::uint32_t handle) {
    const auto tag = static_cast<std::uint32_t>(hash);
    std::size_t hole = tag & mask();
    while (buckets_[hole].handle != handle) {
      TSU_ASSERT(buckets_[hole].handle != kNone);
      hole = (hole + 1) & mask();
    }
    // Backward shift: pull every later member of the probe run whose home
    // is not strictly between the hole and itself into the hole.
    for (std::size_t i = (hole + 1) & mask(); buckets_[i].handle != kNone;
         i = (i + 1) & mask()) {
      const std::size_t home = buckets_[i].tag & mask();
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        buckets_[hole] = buckets_[i];
        hole = i;
      }
    }
    buckets_[hole].handle = kNone;
    --size_;
  }

  // Empties the index; the bucket array keeps its capacity.
  void clear() noexcept {
    for (Bucket& bucket : buckets_) bucket.handle = kNone;
    size_ = 0;
  }

 private:
  struct Bucket {
    std::uint32_t handle = kNone;
    std::uint32_t tag = 0;  // low 32 bits of the key's hash
  };

  static constexpr std::size_t kMissing = ~std::size_t{0};

  std::size_t mask() const noexcept { return buckets_.size() - 1; }

  template <typename SameKey>
  std::size_t locate(std::uint64_t hash, SameKey& same_key) const {
    if (size_ == 0) return kMissing;
    const auto tag = static_cast<std::uint32_t>(hash);
    for (std::size_t i = tag & mask(); buckets_[i].handle != kNone;
         i = (i + 1) & mask())
      if (buckets_[i].tag == tag && same_key(buckets_[i].handle)) return i;
    return kMissing;
  }

  void place(Bucket bucket) noexcept {
    std::size_t i = bucket.tag & mask();
    while (buckets_[i].handle != kNone) i = (i + 1) & mask();
    buckets_[i] = bucket;
  }

  void grow() {
    std::vector<Bucket> old(buckets_.empty() ? 16 : buckets_.size() * 2);
    old.swap(buckets_);
    for (const Bucket& bucket : old)
      if (bucket.handle != kNone) place(bucket);
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace tsu::util
