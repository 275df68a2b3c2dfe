// Flat circular FIFO backed by one contiguous slot vector.
//
// libstdc++'s std::deque allocates a fresh ~512-byte chunk roughly every
// 32 pushes even when the queue depth is constant (chunks are freed on
// pop and re-allocated on push), which makes deque-backed hot-path queues
// a steady-state allocator. FlatRing reuses its slots forever: pop_front
// only advances the head - the slot object stays alive, so element types
// with internal capacity (vectors, variants of such) keep it across
// reuse - and the backing vector grows geometrically only when depth
// exceeds every previous high-water mark. Past that mark a
// push/pop regime of any length performs zero allocations.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tsu/util/assert.hpp"

namespace tsu::util {

template <typename T>
class FlatRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  T& front() noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }
  const T& front() const noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }

  // The i-th queued element, counting from the front.
  T& operator[](std::size_t i) noexcept { return slots_[slot_of(i)]; }
  const T& operator[](std::size_t i) const noexcept {
    return slots_[slot_of(i)];
  }

  // Advances the head without destroying the slot: the element object
  // survives (typically moved-from) and its capacity is reused by a
  // later push into the same slot.
  void pop_front() noexcept {
    TSU_ASSERT(count_ > 0);
    head_ = (head_ + 1) % slots_.size();
    --count_;
  }

  void push_back(const T& value) { *next_slot() = value; }
  void push_back(T&& value) { *next_slot() = std::move(value); }
  // Appends a value-initialized element (assigned into the reused slot).
  T& emplace_back() {
    T* slot = next_slot();
    *slot = T{};
    return *slot;
  }

  // Removes the i-th element, keeping the order of the rest: the shorter
  // side of the gap shifts one place (by move-assignment) to close it, so
  // removing the front or the back moves nothing.
  void erase(std::size_t i) {
    TSU_ASSERT(i < count_);
    if (i < count_ / 2) {
      for (std::size_t k = i; k > 0; --k)
        (*this)[k] = std::move((*this)[k - 1]);
      pop_front();
    } else {
      for (std::size_t k = i; k + 1 < count_; ++k)
        (*this)[k] = std::move((*this)[k + 1]);
      --count_;
    }
  }

  // Drops the queued elements; slots (and their capacity) stay.
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  // Slot of the i-th element (a compare, not a division: scans index
  // every element).
  std::size_t slot_of(std::size_t i) const noexcept {
    TSU_ASSERT(i < count_);
    const std::size_t slot = head_ + i;
    return slot < slots_.size() ? slot : slot - slots_.size();
  }

  T* next_slot() {
    if (count_ == slots_.size()) grow();
    T* slot = &slots_[(head_ + count_) % slots_.size()];
    ++count_;
    return slot;
  }

  void grow() {
    const std::size_t old_cap = slots_.size();
    std::vector<T> bigger(old_cap == 0 ? 8 : old_cap * 2);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) % old_cap]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tsu::util
