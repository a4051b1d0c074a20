// The explicit state graph of the parallel (explore_parallel.cc) and
// distributed (src/dist) explorers: one node record, one codec for it,
// one expansion step that classifies a state and builds its edges, and
// one replay of the serial DFS over the finished graph.
//
// Both engines first build the whole reachable graph — on threads over
// a sharded visited set, or on worker processes over a hash-partitioned
// one — and then replay the serial engine's exact DFS over it, without
// touching a machine state again.  Because expand() is deterministic in
// the state and replay() makes the serial DFS's checks in the serial
// order, the verdict is byte-identical to explore()'s whichever engine
// built the graph and in whatever order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/explore.h"
#include "sem/step.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sched::graph {

/// Names an edge's child state: (owning worker, StateId.v in that
/// worker's store).  The in-process engine is the one-worker case, so
/// its keys are Key::make(0, id); the distributed engine's keys are
/// global ids (dist::Gid is this type), meaningful outside the process
/// that built them.
struct Key {
  static constexpr std::uint64_t kInvalid = ~0ull;
  std::uint64_t v = kInvalid;

  static Key make(std::uint32_t worker, std::uint32_t local) {
    return Key{(static_cast<std::uint64_t>(worker) << 32) | local};
  }
  [[nodiscard]] std::uint32_t worker() const {
    return static_cast<std::uint32_t>(v >> 32);
  }
  [[nodiscard]] std::uint32_t local() const {
    return static_cast<std::uint32_t>(v);
  }
  [[nodiscard]] bool valid() const { return v != kInvalid; }
  friend bool operator==(const Key&, const Key&) = default;
};

struct Node;

/// One outgoing transition, in eligible-choice order.  At most one
/// outcome holds: `faulted` (the step faulted; the child state is
/// discarded, as in the serial engine), `overflow` (the child was
/// dropped at the state cap), or a valid child key.  An edge with none
/// is pending: a distributed worker shipped the child to its owner and
/// awaits the key.  Pending edges are never serialized.
struct Edge {
  sem::Choice choice;
  bool faulted = false;
  bool overflow = false;
  Key child;
  std::string fault;
  /// The child's node, for replay(); not serialized.
  Node* to = nullptr;

  [[nodiscard]] bool pending() const {
    return !faulted && !overflow && !child.valid();
  }
};

struct Node {
  std::uint32_t local = 0;  // StateId.v in the owning store
  /// expand() ran to completion (terminal/stuck classified, edges
  /// built).  False for a node at depth >= max_depth and for the
  /// unexpanded frontier of a budget-stopped run.
  bool processed = false;
  bool terminal = false;
  bool stuck = false;
  std::string stuck_reason;
  std::vector<Edge> edges;

  enum class Color : std::uint8_t { White, OnStack, Done };
  Color color = Color::White;  // replay()'s DFS color; not serialized
};

/// Discovered-but-unexpanded states as (StateId.v, depth) pairs.
using Frontier = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

// --- codec -----------------------------------------------------------

/// How wide a child key is written: a u32 StateId in the single-process
/// checkpoint, a u64 Gid on the distributed wire and in per-worker
/// checkpoint files.  Everything else about a node is written the same.
enum class KeyWidth : std::uint8_t { k32, k64 };

void encode_nodes(support::BinWriter& w, const std::vector<Node>& nodes,
                  KeyWidth kw);
/// Throws support::BinError on malformed input.
std::vector<Node> decode_nodes(support::BinReader& r, KeyWidth kw);

void encode_frontier(support::BinWriter& w, const Frontier& f);
Frontier decode_frontier(support::BinReader& r);

// --- expansion -------------------------------------------------------

/// The choices a state branches on: its eligible choices, cut to a
/// single persistent one under partial-order reduction — the first
/// register-local ExecWarp choice, else the first whose pc is in
/// opts.por_independent_pcs.  Deterministic in the state, so every
/// engine (and thread) builds the same reduced graph.
std::vector<sem::Choice> branch_choices(const ptx::Program& prg,
                                        const sem::Grid& g,
                                        const ExploreOptions& opts);

/// Classify `state` (the machine of `node`, reached at `depth`) the way
/// the serial DFS does — terminated, then stuck, then the depth gate —
/// and otherwise step every branch choice into one edge each.  A
/// faulting step becomes a faulted edge; every other child goes to
/// `resolve(edge, edge_index, child)`, which interns it (or routes it
/// to its owner) and sets the edge's child key or overflow flag, or
/// leaves the edge pending.  A depth-gated node stays unprocessed.
template <typename Resolve>
void expand(const ptx::Program& prg, const sem::KernelConfig& kc,
            const ExploreOptions& opts, const sem::Machine& state,
            std::uint64_t depth, Node& node, Resolve&& resolve) {
  if (sem::terminated(prg, state.grid)) {
    node.terminal = true;
    node.processed = true;
    return;
  }
  const std::vector<sem::Choice> choices =
      branch_choices(prg, state.grid, opts);
  if (choices.empty()) {
    node.stuck = true;
    node.stuck_reason = sem::stuck_reason(prg, state.grid);
    node.processed = true;
    return;
  }
  if (depth >= opts.max_depth) return;

  node.edges.reserve(choices.size());
  for (const sem::Choice& c : choices) {
    const auto index = static_cast<std::uint32_t>(node.edges.size());
    Edge& e = node.edges.emplace_back();
    e.choice = c;
    sem::Machine child(state);
    const sem::StepResult sr =
        sem::apply_choice(prg, kc, child, c, opts.step_opts, nullptr);
    if (!sr.ok()) {
      e.faulted = true;
      e.fault = sr.fault;
      continue;
    }
    resolve(e, index, child);
  }
  node.processed = true;
}

// --- replay ----------------------------------------------------------

struct Replay {
  /// The verdict, with final_ids and store left for the engine to fill.
  ExploreResult result;
  /// Terminal nodes in DFS first-visit order (the order of final_ids).
  std::vector<const Node*> finals;
};

/// Replay the serial DFS of explore() over a finished graph whose edges
/// point at their children (Edge::to): same choice order, same
/// OnStack/Done coloring, same cycle/stuck/fault/depth bookkeeping, so
/// the result is byte-identical to the serial engine's for runs within
/// the limits.  A null `root` means even the initial state was over the
/// state cap.  `stop_reason` is None for a completed graph; for a
/// budget-stopped one, reaching an unprocessed node reports that budget
/// as the limit instead of MaxDepth.  Colors the nodes.
Replay replay(Node* root, const ExploreOptions& opts,
              ExploreResult::Limit stop_reason);

}  // namespace cac::sched::graph
