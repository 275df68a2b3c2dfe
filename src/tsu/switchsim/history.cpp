#include "tsu/switchsim/history.hpp"

#include <algorithm>

#include "tsu/util/assert.hpp"

namespace tsu::switchsim {

Stamp TableHistory::stamp_now() const noexcept {
  Stamp stamp;
  stamp.at = sim_.now();
  if (const sim::Lineage* lineage = sim_.lineage(); lineage != nullptr) {
    stamp.in_event = true;
    stamp.lineage = *lineage;
  }
  return stamp;
}

std::vector<TableHistory::Record>& TableHistory::records_for(
    const flow::Match& match) {
  return match.flow.has_value() ? by_flow_[*match.flow] : any_flow_;
}

void TableHistory::rule_added(const flow::FlowRule& rule, std::uint64_t seq) {
  records_for(rule.match).push_back(Record{rule, seq, stamp_now(), Stamp{}});
  ++size_;
}

void TableHistory::rule_removed(const flow::FlowRule& rule,
                                std::uint64_t seq) {
  std::vector<Record>& records = records_for(rule.match);
  // Sequences are unique among installed rules; the newest match is the
  // installed one.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->seq == seq && it->died.at == Stamp::kNever) {
      it->died = stamp_now();
      return;
    }
  }
  TSU_ASSERT_MSG(false, "removed rule was never recorded as installed");
}

void TableHistory::serving_changed(bool serving) {
  serving_.push_back(ServingChange{stamp_now(), serving});
  ++size_;
}

void TableHistory::prune(sim::SimTime horizon) {
  const auto dead = [horizon](const Record& r) { return r.died.at < horizon; };
  const auto prune_records = [&](std::vector<Record>& records) {
    const auto keep = std::remove_if(records.begin(), records.end(), dead);
    size_ -= static_cast<std::size_t>(records.end() - keep);
    records.erase(keep, records.end());
  };
  for (auto& [flow, records] : by_flow_) prune_records(records);
  prune_records(any_flow_);
  // The last transition before the horizon fixes the state every later
  // read starts from; everything before it is superseded.
  std::size_t superseded = 0;
  while (superseded < serving_.size() &&
         serving_[superseded].stamp.at < horizon)
    ++superseded;
  if (superseded > 0) {
    serving_before_ = serving_[superseded - 1].serving;
    serving_.erase(serving_.begin(),
                   serving_.begin() + static_cast<std::ptrdiff_t>(superseded));
    size_ -= superseded;
  }
}

}  // namespace tsu::switchsim
