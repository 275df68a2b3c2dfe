#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "flow_table_reference.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::flow {
namespace {

Packet packet(FlowId flow, NodeId src = 1, NodeId dst = 12,
              std::uint32_t in_port = 0) {
  Packet p;
  p.flow = flow;
  p.src_host = src;
  p.dst_host = dst;
  p.in_port = in_port;
  return p;
}

// ------------------------------------------------------------------ Match --

TEST(MatchTest, WildcardMatchesEverything) {
  const Match m = Match::wildcard();
  EXPECT_TRUE(m.matches(packet(1)));
  EXPECT_TRUE(m.matches(packet(999, 5, 6, 7)));
}

TEST(MatchTest, ExactFlowMatches) {
  const Match m = Match::exact_flow(7);
  EXPECT_TRUE(m.matches(packet(7)));
  EXPECT_FALSE(m.matches(packet(8)));
}

TEST(MatchTest, MultiFieldConjunction) {
  Match m;
  m.flow = 1;
  m.src_host = 2;
  EXPECT_TRUE(m.matches(packet(1, 2)));
  EXPECT_FALSE(m.matches(packet(1, 3)));
  EXPECT_FALSE(m.matches(packet(2, 2)));
}

TEST(MatchTest, InPortField) {
  Match m;
  m.in_port = 4;
  EXPECT_TRUE(m.matches(packet(1, 2, 3, 4)));
  EXPECT_FALSE(m.matches(packet(1, 2, 3, 5)));
}

TEST(MatchTest, SubsumesWildcardOverConcrete) {
  const Match wild = Match::wildcard();
  const Match narrow = Match::exact_flow(1);
  EXPECT_TRUE(wild.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wild));
  EXPECT_TRUE(narrow.subsumes(narrow));
}

TEST(MatchTest, SubsumesDifferentValuesFalse) {
  const Match a = Match::exact_flow(1);
  const Match b = Match::exact_flow(2);
  EXPECT_FALSE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
}

TEST(MatchTest, SpecificityCountsFields) {
  EXPECT_EQ(Match::wildcard().specificity(), 0);
  EXPECT_EQ(Match::exact_flow(1).specificity(), 1);
  Match m;
  m.flow = 1;
  m.src_host = 2;
  m.dst_host = 3;
  m.in_port = 4;
  EXPECT_EQ(m.specificity(), 4);
}

TEST(MatchTest, ToStringShowsFieldsOrStar) {
  EXPECT_EQ(Match::wildcard().to_string(), "{*}");
  EXPECT_EQ(Match::exact_flow(3).to_string(), "{flow=3}");
}

TEST(ActionTest, Constructors) {
  EXPECT_EQ(Action::forward(5).kind, ActionKind::kForward);
  EXPECT_EQ(Action::forward(5).port, 5u);
  EXPECT_EQ(Action::deliver().kind, ActionKind::kDeliver);
  EXPECT_EQ(Action::drop().kind, ActionKind::kDrop);
}

// -------------------------------------------------------------- FlowTable --

TEST(FlowTableTest, EmptyLookupMisses) {
  const FlowTable t;
  EXPECT_FALSE(t.lookup(packet(1)).has_value());
}

TEST(FlowTableTest, AddAndLookup) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const auto rule = t.lookup(packet(1));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, Action::forward(2));
  EXPECT_FALSE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, HigherPriorityWins) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 1, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(9), 100, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(9));
  EXPECT_EQ(t.lookup(packet(2))->action, Action::drop());
}

TEST(FlowTableTest, SpecificityBreaksPriorityTies) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 10, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(4), 10, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(4));
}

TEST(FlowTableTest, AddReplacesIdenticalMatchAndPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 100, 0});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(3));
}

TEST(FlowTableTest, AddKeepsDistinctPriorities) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 50, 0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(2));  // prio 100
}

TEST(FlowTableTest, ModifyRewritesAction) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const std::size_t n = t.modify(Match::exact_flow(1), 100,
                                 Action::forward(7), 42);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  const auto rule = t.lookup(packet(1));
  EXPECT_EQ(rule->action, Action::forward(7));
  EXPECT_EQ(rule->cookie, 42u);
}

TEST(FlowTableTest, ModifyOnMissBehavesLikeAdd) {
  FlowTable t;
  const std::size_t n = t.modify(Match::exact_flow(5), 80,
                                 Action::forward(2), 0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(5))->priority, 80);
}

TEST(FlowTableTest, RemoveNonStrictSubsumption) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  // Wildcard delete clears everything it subsumes.
  EXPECT_EQ(t.remove(Match::wildcard()), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, RemoveExactOnlyTouchesThatFlow) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  EXPECT_EQ(t.remove(Match::exact_flow(1)), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, RemoveStrictNeedsExactPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_FALSE(t.remove_strict(Match::exact_flow(1), 99));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.remove_strict(Match::exact_flow(1), 100));
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, InsertionOrderBreaksFullTies) {
  FlowTable t;
  Match m1;
  m1.flow = 1;
  Match m2;
  m2.src_host = 1;
  // Same priority, same specificity; first-inserted wins.
  t.add(FlowRule{m1, Action::forward(10), 50, 0});
  t.add(FlowRule{m2, Action::forward(20), 50, 0});
  EXPECT_EQ(t.lookup(packet(1, 1))->action, Action::forward(10));
}

TEST(FlowTableTest, ClearEmptiesTable) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, ToStringListsRules) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_NE(t.to_string().find("prio=100"), std::string::npos);
}


TEST(FlowTableTest, FindReturnsTheExactRule) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 7});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 50, 8});
  const FlowRule* rule = t.find(Match::exact_flow(1), 50);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->cookie, 8u);
  EXPECT_EQ(t.find(Match::exact_flow(1), 60), nullptr);
  EXPECT_EQ(t.find(Match::exact_flow(2), 100), nullptr);
}

// ------------------------------------------- FlowTable vs. linear reference --

// Everything a table reports to its observer, in order.
class EventLog final : public TableObserver {
 public:
  struct Event {
    bool added = false;
    FlowRule rule;
    std::uint64_t seq = 0;
  };
  void rule_added(const FlowRule& rule, std::uint64_t seq) override {
    events.push_back(Event{true, rule, seq});
  }
  void rule_removed(const FlowRule& rule, std::uint64_t seq) override {
    events.push_back(Event{false, rule, seq});
  }
  std::vector<Event> events;
};

bool same_rule(const FlowRule& a, const FlowRule& b) {
  return a.match == b.match && a.action == b.action &&
         a.priority == b.priority && a.cookie == b.cookie;
}

::testing::AssertionResult same_rules(
    const FlowTable& table, const reference::LinearFlowTable& model) {
  if (table.size() != model.rules().size())
    return ::testing::AssertionFailure()
           << "size " << table.size() << " vs " << model.rules().size();
  std::size_t i = 0;
  for (const FlowRule& rule : table.rules()) {
    if (!same_rule(rule, model.rules()[i]))
      return ::testing::AssertionFailure()
             << "rule " << i << ": " << rule.to_string() << " vs "
             << model.rules()[i].to_string();
    ++i;
  }
  if (i != model.rules().size())
    return ::testing::AssertionFailure() << "rules() yielded " << i;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_events(EventLog& got, EventLog& want) {
  if (got.events.size() != want.events.size())
    return ::testing::AssertionFailure() << "event count "
                                         << got.events.size() << " vs "
                                         << want.events.size();
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    const EventLog::Event& a = got.events[i];
    const EventLog::Event& b = want.events[i];
    if (a.added != b.added || a.seq != b.seq || !same_rule(a.rule, b.rule))
      return ::testing::AssertionFailure() << "event " << i << " differs";
  }
  got.events.clear();
  want.events.clear();
  return ::testing::AssertionSuccess();
}

// Random operands over a small field space, so operations keep hitting
// installed rules: mostly concrete flows, occasional wildcard flows,
// src/dst hosts and in_port matches, four priorities.
struct OpGen {
  Rng rng;
  FlowId flows;

  Match match() {
    Match m;
    if (!rng.bernoulli(0.1)) m.flow = rng.uniform_u64(0, flows - 1);
    if (rng.bernoulli(0.15)) m.src_host = static_cast<NodeId>(rng.index(4));
    if (rng.bernoulli(0.15)) m.dst_host = static_cast<NodeId>(rng.index(4));
    if (rng.bernoulli(0.25))
      m.in_port = static_cast<std::uint32_t>(rng.index(4));
    return m;
  }
  std::uint16_t priority() {
    static constexpr std::uint16_t kPriorities[] = {1, 50, 100, 200};
    return kPriorities[rng.index(4)];
  }
  Action action() {
    switch (rng.index(3)) {
      case 0: return Action::forward(static_cast<NodeId>(rng.index(16)));
      case 1: return Action::deliver();
      default: return Action::drop();
    }
  }
  Packet packet() {
    return tsu::flow::packet(rng.uniform_u64(0, flows - 1),
                             static_cast<NodeId>(rng.index(4)),
                             static_cast<NodeId>(rng.index(4)),
                             static_cast<std::uint32_t>(rng.index(4)));
  }
};

// One random operation on both tables; a differing return value fails
// the test.
template <typename Table, typename Model>
void random_op(OpGen& gen, Table& table, Model& model, double add_bias) {
  const double dice = gen.rng.uniform01();
  if (dice < add_bias) {
    const FlowRule rule{gen.match(), gen.action(), gen.priority(),
                        gen.rng.uniform_u64(0, 99)};
    table.add(rule);
    model.add(rule);
  } else if (dice < add_bias + 0.2) {
    const Match m = gen.match();
    const std::uint16_t prio = gen.priority();
    const Action action = gen.action();
    const std::uint64_t cookie = gen.rng.uniform_u64(0, 99);
    EXPECT_EQ(table.modify(m, prio, action, cookie),
              model.modify(m, prio, action, cookie));
  } else if (dice < add_bias + 0.5) {
    // Strict deletes mostly aim at installed rules.
    Match m = gen.match();
    std::uint16_t prio = gen.priority();
    if (!model.rules().empty() && gen.rng.bernoulli(0.8)) {
      const std::vector<FlowRule>& rules = model.rules();
      const FlowRule& target = rules[gen.rng.index(rules.size())];
      m = target.match;
      prio = target.priority;
    }
    EXPECT_EQ(table.remove_strict(m, prio), model.remove_strict(m, prio));
  } else if (dice < add_bias + 0.53) {
    // Non-strict deletes: mostly narrow, so the table does not drain.
    Match m = gen.match();
    if (!m.flow.has_value() && gen.rng.bernoulli(0.8)) m.flow = 0;
    EXPECT_EQ(table.remove(m), model.remove(m));
  } else if (dice < 0.999) {
    const Packet p = gen.packet();
    const std::optional<FlowRule> got = table.lookup(p);
    const std::optional<FlowRule> want = model.lookup(p);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) {
      EXPECT_TRUE(same_rule(*got, *want));
    }
  } else {
    table.clear();
    model.clear();
  }
}

TEST(FlowTableDifferentialTest, MatchesTheLinearTableUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Every 20th seed grows a big table (past 3000 rules) over a wide flow
    // space; the rest churn small tables over a narrow one.
    const bool big = seed % 20 == 0;
    OpGen gen{Rng(seed), big ? FlowId{6000} : FlowId{24}};
    FlowTable table;
    reference::LinearFlowTable model;
    EventLog table_log;
    EventLog model_log;
    table.set_observer(&table_log);
    model.set_observer(&model_log);
    const int steps = big ? 9000 : 600;
    for (int step = 0; step < steps; ++step) {
      // Big tables fill first (adds dominate), then churn.
      const double add_bias = big && step < 6000 ? 0.6 : 0.3;
      random_op(gen, table, model, add_bias);
      ASSERT_TRUE(same_rules(table, model)) << "step " << step;
      ASSERT_TRUE(same_events(table_log, model_log)) << "step " << step;
      if (big && step == 6000) {
        EXPECT_GT(table.size(), 3000u);
      }

      if (step % 150 == 75) {
        // A copy carries the rules (and their index) but not the
        // observer: churning it behaves like the model and reports
        // nothing; a move hands the index over intact.
        FlowTable copy(table);
        reference::LinearFlowTable copy_model = model;
        copy_model.set_observer(nullptr);
        for (int i = 0; i < 20; ++i) random_op(gen, copy, copy_model, 0.3);
        ASSERT_TRUE(same_rules(copy, copy_model));
        FlowTable moved(std::move(copy));
        random_op(gen, moved, copy_model, 0.3);
        ASSERT_TRUE(same_rules(moved, copy_model));
        EXPECT_TRUE(table_log.events.empty());
        ASSERT_TRUE(same_rules(table, model));
      }
    }
  }
}

TEST(FlowTableDifferentialTest, AttachingAnObserverReportsTheRulesInOrder) {
  OpGen gen{Rng(7), FlowId{24}};
  FlowTable table;
  reference::LinearFlowTable model;
  for (int step = 0; step < 400; ++step) random_op(gen, table, model, 0.5);
  EventLog log;
  table.set_observer(&log);
  ASSERT_EQ(log.events.size(), model.rules().size());
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_TRUE(log.events[i].added);
    EXPECT_TRUE(same_rule(log.events[i].rule, model.rules()[i]));
  }
}

}  // namespace
}  // namespace tsu::flow
