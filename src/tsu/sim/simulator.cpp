#include "tsu/sim/simulator.hpp"

namespace tsu::sim {

std::size_t Simulator::run(SimTime until) {
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    EventQueue::Fired fired = queue_.pop();
    *now_ = fired.time;
    executed_frontier_ = fired.time;
    fire(fired);
    ++processed;
  }
  if (*now_ < until && until != std::numeric_limits<SimTime>::max())
    *now_ = until;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.pop();
  *now_ = fired.time;
  executed_frontier_ = fired.time;
  fire(fired);
  return true;
}

std::size_t Simulator::run_epoch(SimTime horizon) {
  TSU_ASSERT_MSG(shared_now_ != nullptr,
                 "run_epoch is only for shared-clock shards");
  // Step on a private clock: handlers see their own shard's time through
  // now() while sibling shards advance concurrently; the group merger
  // folds the locals back into the shared clock at the join.
  own_now_ = *shared_now_;
  now_ = &own_now_;
  std::size_t processed = 0;
  // Dynamic own-kShared guard: the group's per-shard bound only proves that
  // SIBLING shards cannot interact below it. A kLocal handler running in
  // this very epoch may schedule a kShared event (even at the current
  // instant - the controller's speculative deferrals do exactly that) below
  // the bound; stopping the epoch at our own earliest kShared event keeps
  // same-shard ordering identical to the sequential merger, which also
  // executes that kShared event next for this shard.
  while (!queue_.empty() && queue_.next_time() < horizon &&
         queue_.next_time() < queue_.next_shared_time()) {
    EventQueue::Fired fired = queue_.pop();
    TSU_ASSERT_MSG(fired.scope == EventScope::kLocal,
                   "kShared event matured below the parallel horizon");
    own_now_ = fired.time;
    executed_frontier_ = fired.time;
    fire(fired);
    ++processed;
  }
  now_ = shared_now_;
  return processed;
}

}  // namespace tsu::sim
