// Event queue for the discrete-event simulator: a min-heap on (time, band,
// seq) where seq is a monotonically increasing tie-breaker, so simultaneous
// events fire in scheduling order and runs are fully deterministic.
//
// STORAGE. Events live in a pooled slot arena: a vector of fixed slots
// recycled through a free list, each holding the closure in a
// small-buffer-optimized InlineFn. Steady state performs ZERO heap
// allocations per event - push reuses a retired slot (and the heap vectors'
// high-water capacity), pop returns it. An EventId encodes (generation,
// slot); a bumped generation invalidates every outstanding reference to a
// retired incarnation, which is what makes lazily cancelled heap entries
// detectable in O(1) without a lookup table. The allocation-regression
// test (tests/hotpath_alloc_test.cpp) pins the zero-allocation property.
//
// Two orthogonal labels support the parallel sharded engine (sharded.hpp):
//
//   scope  kLocal events are guaranteed by their scheduler to touch only
//          state owned by this queue's shard, so a parallel epoch may run
//          them without cross-shard synchronization. kShared (the safe
//          default) events may read or mutate foreign-shard state and are
//          only ever executed at horizon sync points. next_shared_time()
//          is the earliest pending kShared event - one input of the safe-
//          horizon computation.
//
//   band   kNative events were scheduled by this shard's own execution;
//          kRemote events arrived through a cross-shard mailbox. At equal
//          timestamps every remote event sorts after every native one, and
//          remote events among themselves sort by the caller-supplied
//          (post time, poster, per-poster sequence) key - NOT by insertion
//          order. The full order of a hand-off against same-instant work
//          is therefore a property of the timestamps alone, not of WHEN
//          the mailbox was drained or in how many batches, which is what
//          keeps the sequential merger, the epoch stepper and the per-wave
//          drains of sharded.hpp bit-identical.
//
// Cancellation is lazy for the HEAP ENTRY only - the slot's closure (and
// everything it owns: frames, packets, request state) is destroyed
// EAGERLY in cancel(), and the slot returns to the free list immediately.
// The dead heap entry is skimmed off when it reaches the top, and the heap
// compacts itself IN PLACE (dead entries erased, then re-heapified over
// the retained capacity - no allocation) whenever cancelled entries
// outnumber live ones past a threshold, so heavy cancel churn (retransmit
// timers that almost always get cancelled) cannot grow the heap without
// bound.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tsu/sim/inline_fn.hpp"
#include "tsu/sim/time.hpp"

namespace tsu::sim {

using EventFn = InlineFn;
using EventId = std::uint64_t;

// See the file comment. kShared is the default: only call sites that can
// prove shard-locality opt into kLocal.
enum class EventScope : std::uint8_t { kShared = 0, kLocal = 1 };

// Where an event was scheduled from: the instants its scheduling chain
// passed through, newest first. at[0] is when the event was pushed, at[1]
// when the event that pushed it was pushed, and so on. Two native events
// at one instant fire in push order, and push order is decided by these
// instants link by link, so the chain lets code that never became an event
// (the data-plane evaluator's packet reads, dataplane/traffic.hpp) place
// itself exactly against a same-instant event. A push made outside any
// event (set-up code) ends the chain: `outside` is that link's index
// (kDepth when the chain runs deeper than recorded) and `outside_seq` its
// push sequence on the queue.
struct Lineage {
  static constexpr std::uint8_t kDepth = 3;
  std::array<SimTime, kDepth> at{};
  std::uint64_t outside_seq = 0;
  std::uint8_t outside = 0;
};

class EventQueue {
 public:
  // Which tie-break band an event occupies at its timestamp.
  enum class Band : std::uint8_t { kNative = 0, kRemote = 1 };

  // For Band::kRemote, `posted_at` and `remote_seq` form the deterministic
  // tie-break among same-instant remote events (see the file comment);
  // native pushes ignore them and tie-break on scheduling order.
  // `lineage` travels with the event and comes back from pop().
  EventId push(SimTime at, EventFn fn, EventScope scope = EventScope::kShared,
               Band band = Band::kNative, SimTime posted_at = 0,
               std::uint64_t remote_seq = 0, const Lineage& lineage = {});

  // Cancels a pending event. The closure is released eagerly (its captured
  // resources die NOW, not when the dead heap slot surfaces); only the
  // heap entry stays behind, skimmed lazily. Returns false if the event
  // already fired or was cancelled.
  bool cancel(EventId id);

  bool empty() const noexcept;
  std::size_t size() const noexcept { return live_; }
  // Heap slots currently allocated, including lazily cancelled ones. The
  // compaction invariant keeps this within kCompactSlack * size() + a
  // small constant; exposed so tests can pin the bound.
  std::size_t heap_size() const noexcept { return heap_.size(); }
  // The sequence number the next push will get.
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  SimTime next_time() const;
  // Earliest pending kShared event; SimTime max when none is pending.
  SimTime next_shared_time() const;

  // Pops and returns the next live event; callers must check empty() first.
  struct Fired {
    SimTime time;
    EventFn fn;
    EventScope scope;
    Lineage lineage;
  };
  Fired pop();

  // Compaction tuning (exposed for the regression test): rebuild once the
  // heap holds more than kCompactSlack x the live count and at least
  // kCompactMinimum entries.
  static constexpr std::size_t kCompactSlack = 2;
  static constexpr std::size_t kCompactMinimum = 64;

 private:
  struct Entry {
    SimTime time;
    // Native: the push-order sequence (unique, so `minor` never decides).
    // Remote: the poster's clock at post time, then (poster, post seq)
    // packed into `minor` - a pure function of the post itself, identical
    // whatever sync point drained it.
    std::uint64_t major;
    std::uint64_t minor;
    std::uint32_t slot;
    std::uint32_t gen;
    Band band;
    // min-heap: invert comparison. Equal times break remote-after-native,
    // then scheduling order (native) / post order (remote).
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      if (band != other.band) return band > other.band;
      if (major != other.major) return major > other.major;
      return minor > other.minor;
    }
  };

  // One arena slot. `gen` advances when the incarnation retires (fire or
  // cancel), so a heap Entry is live iff its gen still matches.
  struct Slot {
    SimTime time = 0;
    std::uint64_t seq = 0;
    EventFn fn;
    Lineage lineage;
    std::uint32_t gen = 0;
    EventScope scope = EventScope::kShared;
    Band band = Band::kNative;
    bool pending = false;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  bool entry_live(const Entry& entry) const noexcept {
    return slots_[entry.slot].gen == entry.gen;
  }

  // Returns the slot to the free list and invalidates outstanding ids and
  // heap entries for this incarnation.
  void retire(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.fn.reset();
    s.pending = false;
    ++s.gen;
    free_.push_back(slot);
  }

  // Compacts the heaps in place (dead entries erased, then re-heapified)
  // when the cancelled fraction crosses the threshold. O(heap), amortized
  // free (a rebuild only happens after at least as many cancels as live
  // entries), and allocation-free: both vectors keep their capacity.
  void maybe_compact();

  // Binary max-heaps on the inverted Entry comparison (std::push_heap /
  // std::pop_heap over plain vectors, not std::priority_queue): raw
  // vectors are what lets maybe_compact() work in place and the arena
  // recycle capacity instead of reallocating.
  std::vector<Entry> heap_;
  // Index of pending kShared events only, skimmed lazily like heap_; keeps
  // next_shared_time() O(log shared) instead of a scan.
  std::vector<Entry> shared_heap_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace tsu::sim
