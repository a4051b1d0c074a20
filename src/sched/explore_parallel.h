// Parallel schedule exploration: a work-sharing frontier engine that
// produces the *same verdicts* as the serial DFS of explore.h.
//
// Two phases (see docs/explorer.md for the full architecture):
//
//  1. Graph construction (parallel).  Workers with per-worker task
//     deques and work stealing expand each distinct reachable state
//     exactly once — copy, step, hash — into an explicit state graph
//     (graph::expand, sched/graph.h).
//     The visited set is sharded by state hash; structural equality
//     within a shard means a hash collision can never fake a visit.
//     This phase carries all of the expensive per-state work (Machine
//     clones, semantics-kernel steps, hashing).
//
//  2. Verdict replay (serial, integer-only).  The serial explorer's
//     exact DFS — same choice order, same OnStack/Done coloring, same
//     cycle/stuck/fault/depth bookkeeping — is replayed over the
//     in-memory graph without touching machine states again
//     (graph::replay, shared with the distributed coordinator).  Because
//     phase 1 builds the identical graph the serial DFS walks (state
//     expansion is deterministic in the state), the replay reproduces
//     the serial result byte for byte: exhaustive flag, violations and
//     their traces, finals set and order, min/max schedule lengths,
//     state/transition counts.
//
// Cycle detection therefore needs no per-path ancestor machinery in
// the parallel phase at all: back edges are found by the replay's DFS
// coloring over the completed graph, which is sound and exact.
//
// Partial-order reduction composes: the persistent-set filter is a
// deterministic function of the state, so the reduced graph is also
// thread-count independent.
//
// Caveat (documented, asserted nowhere): when a run trips max_states /
// max_depth, phase 1 may cut a different part of the graph than the
// serial DFS would; both engines still report exhaustive == false.
#pragma once

#include "sched/explore.h"

namespace cac::sched {

/// Explore with opts.num_threads workers (0 = one worker per hardware
/// thread).  explore() dispatches here automatically whenever
/// opts.num_threads > 0.  A non-null `resume` continues a Parallel
/// checkpoint: the serialized graph and frontier are rebuilt and the
/// unexpanded frontier re-queued, so the completed graph — and hence
/// the replayed verdict — is identical to an uninterrupted run's.
ExploreResult explore_parallel(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const ExploreOptions& opts = {},
                               const Checkpoint* resume = nullptr);

}  // namespace cac::sched
