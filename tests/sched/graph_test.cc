// The shared verdict replay (sched/graph.h) on hand-built graphs.
//
// The engine-level suites compare whole runs against the serial DFS,
// but some replay branches only fire on graphs a real build produces
// nondeterministically (a depth-gated node reached first by a shorter
// path, a frontier node of a budget-stopped run).  Here each case is a
// small graph wired by hand, so every branch is pinned exactly.
#include "sched/graph.h"

#include <gtest/gtest.h>

#include <deque>

namespace cac::sched::graph {
namespace {

using Limit = ExploreResult::Limit;

sem::Choice exec(std::uint32_t warp) {
  return sem::Choice{sem::Choice::Kind::ExecWarp, 0, warp};
}

/// A graph under construction: nodes with stable addresses.
struct G {
  std::deque<Node> nodes;

  Node* processed() {
    Node& n = nodes.emplace_back();
    n.local = static_cast<std::uint32_t>(nodes.size() - 1);
    n.processed = true;
    return &n;
  }
  Node* terminal() {
    Node* n = processed();
    n->terminal = true;
    return n;
  }
  Node* stuck(const std::string& reason) {
    Node* n = processed();
    n->stuck = true;
    n->stuck_reason = reason;
    return n;
  }
  /// Discovered but never expanded (depth gate or budget stop).
  Node* unprocessed() {
    Node* n = processed();
    n->processed = false;
    return n;
  }

  static void edge(Node* from, sem::Choice c, Node* to) {
    Edge& e = from->edges.emplace_back();
    e.choice = c;
    e.child = Key::make(0, to->local);
    e.to = to;
  }
  static void overflow(Node* from, sem::Choice c) {
    Edge& e = from->edges.emplace_back();
    e.choice = c;
    e.overflow = true;
  }
  static void fault(Node* from, sem::Choice c, const std::string& msg) {
    Edge& e = from->edges.emplace_back();
    e.choice = c;
    e.faulted = true;
    e.fault = msg;
  }
};

ExploreOptions all_violations() {
  ExploreOptions o;
  o.stop_at_first_violation = false;
  return o;
}

TEST(GraphReplay, FinalsInFirstVisitOrderWithScheduleLengths) {
  G g;
  Node* root = g.processed();
  Node* mid = g.processed();
  Node* t1 = g.terminal();
  Node* t2 = g.terminal();
  G::edge(root, exec(0), mid);
  G::edge(mid, exec(0), t2);
  G::edge(root, exec(1), t1);
  G::edge(root, exec(2), t2);  // already Done: not a second final

  const Replay rp = replay(root, all_violations(), Limit::None);
  EXPECT_TRUE(rp.result.exhaustive);
  EXPECT_EQ(rp.result.limit_hit, Limit::None);
  EXPECT_TRUE(rp.result.violations.empty());
  EXPECT_EQ(rp.result.states_visited, 4u);
  EXPECT_EQ(rp.result.transitions, 4u);
  EXPECT_EQ(rp.result.min_steps_to_termination, 1u);
  EXPECT_EQ(rp.result.max_steps_to_termination, 2u);
  ASSERT_EQ(rp.finals.size(), 2u);
  EXPECT_EQ(rp.finals[0], t2);
  EXPECT_EQ(rp.finals[1], t1);
}

TEST(GraphReplay, OverflowEdgeIsMaxStates) {
  G g;
  Node* root = g.processed();
  Node* t = g.terminal();
  G::overflow(root, exec(0));
  G::edge(root, exec(1), t);

  const Replay rp = replay(root, all_violations(), Limit::None);
  EXPECT_FALSE(rp.result.exhaustive);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxStates);
  EXPECT_TRUE(rp.result.violations.empty());
  EXPECT_EQ(rp.result.transitions, 2u);
  EXPECT_EQ(rp.finals.size(), 1u);
}

TEST(GraphReplay, NullRootIsMaxStates) {
  const Replay rp = replay(nullptr, all_violations(), Limit::None);
  EXPECT_FALSE(rp.result.exhaustive);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxStates);
  EXPECT_EQ(rp.result.states_visited, 0u);
  EXPECT_EQ(rp.result.min_steps_to_termination, 0u);
}

TEST(GraphReplay, StateCapCountsEnteredNodes) {
  G g;
  Node* root = g.processed();
  G::edge(root, exec(0), g.terminal());
  G::edge(root, exec(1), g.terminal());
  ExploreOptions o = all_violations();
  o.max_states = 2;

  const Replay rp = replay(root, o, Limit::None);
  EXPECT_EQ(rp.result.states_visited, 2u);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxStates);
  EXPECT_FALSE(rp.result.exhaustive);
}

TEST(GraphReplay, OnStackRevisitIsCycleWithTrace) {
  G g;
  Node* root = g.processed();
  Node* a = g.processed();
  G::edge(root, exec(0), a);
  G::edge(a, exec(1), root);

  const Replay rp = replay(root, all_violations(), Limit::None);
  ASSERT_EQ(rp.result.violations.size(), 1u);
  const Violation& v = rp.result.violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::Cycle);
  EXPECT_EQ(v.trace, (std::vector<sem::Choice>{exec(0), exec(1)}));
  EXPECT_TRUE(rp.result.exhaustive);  // a cycle is a verdict, not a limit
  EXPECT_TRUE(rp.finals.empty());
}

TEST(GraphReplay, DoneRevisitIsNoCycle) {
  // A diamond: the second path reaches a finished node, not an ancestor.
  G g;
  Node* root = g.processed();
  Node* a = g.processed();
  Node* b = g.processed();
  Node* t = g.terminal();
  G::edge(root, exec(0), a);
  G::edge(root, exec(1), b);
  G::edge(a, exec(0), t);
  G::edge(b, exec(0), a);

  const Replay rp = replay(root, all_violations(), Limit::None);
  EXPECT_TRUE(rp.result.violations.empty());
  EXPECT_TRUE(rp.result.exhaustive);
  EXPECT_EQ(rp.result.states_visited, 4u);
}

TEST(GraphReplay, DepthGatedNodeAtTheBoundIsDepthExceeded) {
  G g;
  Node* root = g.processed();
  Node* a = g.processed();
  G::edge(root, exec(0), a);
  G::edge(a, exec(0), g.unprocessed());
  ExploreOptions o = all_violations();
  o.max_depth = 2;

  const Replay rp = replay(root, o, Limit::None);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxDepth);
  ASSERT_EQ(rp.result.violations.size(), 1u);
  EXPECT_EQ(rp.result.violations[0].kind, Violation::Kind::DepthExceeded);
  EXPECT_EQ(rp.result.violations[0].trace,
            (std::vector<sem::Choice>{exec(0), exec(0)}));
}

TEST(GraphReplay, DepthGatedNodeReachedByAShorterPathIsOnlyMaxDepth) {
  // The build reached `gated` at the depth bound along a longer path
  // and left it unexpanded; the replay's DFS reaches it in one step.
  G g;
  Node* root = g.processed();
  Node* gated = g.unprocessed();
  G::edge(root, exec(0), gated);
  ExploreOptions o = all_violations();
  o.max_depth = 3;

  const Replay rp = replay(root, o, Limit::None);
  EXPECT_FALSE(rp.result.exhaustive);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxDepth);
  EXPECT_TRUE(rp.result.violations.empty());
}

TEST(GraphReplay, ProcessedNodeAtTheBoundIsDepthExceeded) {
  G g;
  Node* root = g.processed();
  Node* a = g.processed();
  G::edge(root, exec(0), a);
  G::edge(a, exec(0), g.terminal());
  ExploreOptions o = all_violations();
  o.max_depth = 1;

  const Replay rp = replay(root, o, Limit::None);
  EXPECT_EQ(rp.result.limit_hit, Limit::MaxDepth);
  ASSERT_EQ(rp.result.violations.size(), 1u);
  EXPECT_EQ(rp.result.violations[0].kind, Violation::Kind::DepthExceeded);
  EXPECT_TRUE(rp.finals.empty());
}

TEST(GraphReplay, BudgetStoppedFrontierReportsTheBudget) {
  // Even at the depth bound: an unexpanded node of a budget-stopped
  // run is the frontier, not a depth event.
  G g;
  Node* root = g.processed();
  G::edge(root, exec(0), g.unprocessed());
  for (const std::uint64_t depth : {1ull, 16ull}) {
    for (Node& n : g.nodes) n.color = Node::Color::White;
    ExploreOptions o = all_violations();
    o.max_depth = depth;
    const Replay rp = replay(root, o, Limit::Deadline);
    EXPECT_FALSE(rp.result.exhaustive);
    EXPECT_EQ(rp.result.limit_hit, Limit::Deadline);
    EXPECT_TRUE(rp.result.violations.empty());
  }
}

TEST(GraphReplay, FaultAndStuckInChoiceOrder) {
  G g;
  Node* root = g.processed();
  G::fault(root, exec(0), "store out of bounds");
  G::edge(root, exec(1), g.stuck("barrier divergence"));

  const Replay all = replay(root, all_violations(), Limit::None);
  ASSERT_EQ(all.result.violations.size(), 2u);
  EXPECT_EQ(all.result.violations[0].kind, Violation::Kind::Fault);
  EXPECT_EQ(all.result.violations[0].message, "store out of bounds");
  EXPECT_EQ(all.result.violations[0].trace,
            (std::vector<sem::Choice>{exec(0)}));
  EXPECT_EQ(all.result.violations[1].kind, Violation::Kind::Stuck);
  EXPECT_EQ(all.result.violations[1].message, "barrier divergence");
  EXPECT_EQ(all.result.violations[1].trace,
            (std::vector<sem::Choice>{exec(1)}));
  EXPECT_TRUE(all.result.exhaustive);
}

TEST(GraphReplay, StopAtFirstViolationIsHonored) {
  G g;
  Node* root = g.processed();
  G::fault(root, exec(0), "store out of bounds");
  G::edge(root, exec(1), g.stuck("barrier divergence"));

  ExploreOptions o;
  ASSERT_TRUE(o.stop_at_first_violation);
  const Replay rp = replay(root, o, Limit::None);
  ASSERT_EQ(rp.result.violations.size(), 1u);
  EXPECT_EQ(rp.result.violations[0].kind, Violation::Kind::Fault);
  EXPECT_EQ(rp.result.transitions, 1u);
  EXPECT_FALSE(rp.result.exhaustive);  // the stack was not drained
}

}  // namespace
}  // namespace cac::sched::graph
