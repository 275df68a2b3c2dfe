// Simulated OpenFlow switch.
//
// Control messages are processed strictly FIFO with per-message processing
// times (FlowMods pay an install latency drawn from a configurable
// distribution - the knob that models OVS vs. the much noisier hardware
// switches of Kuzniar et al., which the paper cites in footnote 2).
// BARRIER_REQUEST is answered only once every earlier message has finished
// processing, which the FIFO discipline yields for free - exactly the
// OpenFlow barrier contract the paper's controller relies on.
//
// The flow table mutates at the *completion* instant of each FlowMod, so
// the data plane observes rule changes with realistic skew.
//
// Reply batching (`batch_replies`): the switch->controller direction can
// coalesce too. Replies produced within one simulation instant (barrier
// replies, echoes - a burst of batched barriers completes several at once)
// collect in a reply outbox flushed by a zero-delay event as one
// proto::Batch frame towards the owning controller shard, mirroring the
// controller's kInstant outbox. Off by default: reply timing is unchanged
// unless asked for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "tsu/flow/table.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/switchsim/history.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/ring.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::switchsim {

struct SwitchConfig {
  // OVS-ish default: median 1 ms with moderate spread.
  sim::LatencyModel install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
  sim::Duration barrier_processing = sim::microseconds(100);
  sim::Duration message_processing = sim::microseconds(10);
  // Coalesce same-instant switch->controller replies into one Batch frame.
  bool batch_replies = false;
};

class SimSwitch {
 public:
  using SendFn = std::function<void(const proto::Message&)>;

  SimSwitch(sim::Simulator& simulator, NodeId node, DatapathId dpid,
            SwitchConfig config, Rng rng)
      : sim_(simulator), node_(node), dpid_(dpid), config_(config),
        rng_(rng), history_(simulator) {}

  NodeId node() const noexcept { return node_; }
  DatapathId dpid() const noexcept { return dpid_; }

  // Outbound path towards the controller (barrier replies, echoes, errors).
  void set_controller_link(SendFn send) { to_controller_ = std::move(send); }

  // Inbound path: the channel delivers controller messages here.
  void receive(const proto::Message& message);

  // Live table 0 - the pipeline entry the data plane matches against - as
  // it stands right now. Once record_history() was called, every change
  // to it, and to serving(), is logged in history() with its instant.
  const flow::FlowTable& table() const noexcept { return table(0); }
  flow::FlowTable& table() noexcept { return tables_[0]; }

  // A specific flow table by id. FlowMods route to the table named in
  // their `table` field, so mods on different table ids really do mutate
  // different state - the physical grounding of the admission footprint's
  // table dimension. (Packet lookups stay in table 0: the pipeline model
  // has no goto-table.)
  const flow::FlowTable& table(std::uint8_t id) const noexcept {
    static const flow::FlowTable kEmpty;
    const auto it = tables_.find(id);
    return it != tables_.end() ? it->second : kEmpty;
  }
  flow::FlowTable& table(std::uint8_t id) noexcept { return tables_[id]; }

  // Every flow table by id (for whole-switch state digests). Emptied
  // tables stay resident (proto/apply.hpp keeps the slot so its rule
  // vectors' capacity survives the next install); consumers that care
  // about logical state must skip tables with size() == 0.
  const std::map<std::uint8_t, flow::FlowTable>& tables() const noexcept {
    return tables_;
  }

  // Number of tables currently holding at least one rule - the logical
  // table count (resident-but-empty tables are unwound state).
  std::size_t populated_tables() const noexcept {
    std::size_t n = 0;
    for (const auto& [id, table] : tables_)
      if (!table.empty()) ++n;
    return n;
  }

  // True when no message is being processed and the inbox is empty.
  bool quiescent() const noexcept { return !busy_ && inbox_.empty(); }

  // --- fault injection (sim/faults.hpp; inert unless driven) -----------
  // The switch process dies: control messages in the inbox are lost, the
  // in-flight install (if any) never completes (its completion event is
  // epoch-fenced below), and with `lose_state` the flow tables are wiped -
  // the cold-reboot variant. serving() goes false either way: a rebooting
  // switch forwards nothing until the controller's resync clears it
  // (fail-secure; a retained-TCAM switch serving stale rules before resync
  // could silently violate the very properties under test).
  void crash(bool lose_state);
  // The process is back: opens a fresh control session by sending Hello
  // towards the controller (bypassing reply batching - there is no session
  // to batch into yet). serving() stays false until resync completes.
  void restart();
  // A link-only outage healed: same fresh-session Hello, but the data
  // plane never stopped (serving() untouched).
  void announce();
  bool up() const noexcept { return up_; }
  bool serving() const noexcept { return serving_; }
  void set_serving(bool serving);
  // Version log of table 0 and serving() (switchsim/history.hpp). Kept
  // from the first record_history() call on - the exact traffic evaluator
  // makes it when it starts watching this switch - with the rules
  // installed by then logged as added at that instant.
  void record_history();
  const TableHistory& history() const noexcept { return history_; }
  TableHistory& history() noexcept { return history_; }
  std::size_t crashes() const noexcept { return crashes_; }
  // Control frames dropped because they arrived while the switch was down.
  std::size_t frames_dropped() const noexcept { return frames_dropped_; }

  std::size_t flow_mods_applied() const noexcept { return flow_mods_applied_; }
  std::size_t barriers_replied() const noexcept { return barriers_replied_; }
  std::size_t batches_received() const noexcept { return batches_received_; }
  // Batch expansion: logical messages unpacked from batch frames, and the
  // largest single batch seen (how hard the outbox actually packed).
  std::size_t batched_messages_received() const noexcept {
    return batched_messages_received_;
  }
  std::size_t largest_batch() const noexcept { return largest_batch_; }
  // Reply direction of the batch-expansion stats: Batch frames this switch
  // shipped towards the controller and the replies they carried.
  std::size_t reply_batches_sent() const noexcept {
    return reply_batches_sent_;
  }
  std::size_t batched_replies_sent() const noexcept {
    return batched_replies_sent_;
  }
  const stats::Summary& install_times() const noexcept {
    return install_times_;
  }

 private:
  void start_next();
  void complete(const proto::Message& message);
  void apply_flow_mod(const proto::FlowMod& mod);
  void send_to_controller(proto::Message message);
  void maybe_flush_replies();
  void flush_replies();

  sim::Simulator& sim_;
  NodeId node_;
  DatapathId dpid_;
  SwitchConfig config_;
  Rng rng_;
  SendFn to_controller_;

  TableHistory history_;
  bool recording_ = false;
  // Flow tables by table id; created on first touch. Tables are never
  // erased (a crash wipe clears them in place), so history_ stays attached
  // to table 0 once recording.
  std::map<std::uint8_t, flow::FlowTable> tables_;
  // Flat ring, not a deque: the inbox cycles at a roughly constant depth
  // in steady state, and deque chunk churn would allocate on every ~32rd
  // push (util/ring.hpp).
  util::FlatRing<proto::Message> inbox_;
  bool busy_ = false;

  // Fault state. `epoch_` fences in-flight completion events across a
  // crash: a completion scheduled before the crash sees a stale epoch and
  // becomes a no-op (the install died with the process).
  bool up_ = true;
  bool serving_ = true;
  std::uint64_t epoch_ = 0;
  std::size_t crashes_ = 0;
  std::size_t frames_dropped_ = 0;

  // Reply outbox (batch_replies): same-instant replies awaiting the
  // zero-delay flush, whose event is re-armed per completion so it always
  // fires after the instant's last reply.
  std::vector<proto::Message> reply_outbox_;
  // Reused flush staging buffer (capacities circulate with reply_outbox_,
  // so steady-state flushes stop allocating at high-water size).
  std::vector<proto::Message> reply_scratch_;
  bool reply_flush_scheduled_ = false;
  sim::EventId reply_flush_event_ = 0;

  std::size_t flow_mods_applied_ = 0;
  std::size_t barriers_replied_ = 0;
  std::size_t batches_received_ = 0;
  std::size_t batched_messages_received_ = 0;
  std::size_t largest_batch_ = 0;
  std::size_t reply_batches_sent_ = 0;
  std::size_t batched_replies_sent_ = 0;
  stats::Summary install_times_;  // ns
};

}  // namespace tsu::switchsim
