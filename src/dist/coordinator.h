// The distributed exploration coordinator: launches and monitors N
// worker processes (forked on this host, or accepted over TCP for
// multi-host runs), seeds the root state to its hash owner, routes
// frontier/resolve frames between workers (star topology), detects
// global quiescence with a two-round probe protocol, drives coordinated
// checkpoint generations, recovers from a fork-mode worker death by
// relaunching the whole fleet (from the last committed generation when
// there is one, from the root otherwise; a TCP-mode death is
// DistError::PeerDied) — and finally merges the
// per-worker graph parts and replays the serial DFS over them — the
// same replay the in-process parallel engine uses, so the aggregated
// ExploreResult is byte-identical to the serial engine's verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "sched/explore.h"
#include "sem/state.h"

namespace cac::dist {

struct DistOptions {
  /// Worker process count (the hash-partition count).
  std::uint32_t n_workers = 2;
  /// Multi-host mode: listen on "host:port" and wait for n_workers
  /// `cacval dist-worker --dist-connect` processes instead of forking.
  std::string listen;
  /// Test seam: an already-listening socket (ownership taken) used
  /// instead of binding `listen`.
  int listen_fd = -1;
  /// Resume a distributed run from this coordinator manifest (written
  /// to ExploreOptions::checkpoint_path by a previous run).  Requires
  /// the same worker count and structural options.
  std::string resume_manifest;
  /// Crash-drill seam: worker `die_worker` SIGKILLs itself once it
  /// owns `die_after_states` states.  Cleared after the first death so
  /// the relaunched fleet survives.
  std::uint32_t die_worker = kNoWorker;
  std::uint64_t die_after_states = 0;
  /// Additionally hold the death until the worker has written its
  /// checkpoint for generation >= this and been resumed.  The worker
  /// is only resumed after the coordinator commits the manifest, so a
  /// death behind this gate is guaranteed to find a committed
  /// generation on disk, and the relaunched fleet resumes from it.
  /// 0 = no gate.
  std::uint64_t die_after_generation = 0;
  /// Give up (DistError::PeerDied) after this many fleet relaunches.
  std::uint32_t max_restarts = 5;
  /// Print worker pids and recovery events to stderr.
  bool verbose = false;
};

struct DistStats {
  struct PerWorker {
    std::uint64_t owned = 0;          // states in the partition
    std::uint64_t frontier_sent = 0;  // kState frames sent
    std::uint64_t resolves_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };
  std::vector<PerWorker> workers;
  /// Total frontier states shipped across process boundaries
  /// (including the coordinator's root seed).
  std::uint64_t frontier_msgs = 0;
  std::uint64_t restarts = 0;  // fleet relaunches after a worker death
  std::uint64_t generations = 0;
  /// Transient transport faults absorbed by backoff (health signal:
  /// nonzero means the run survived flaky I/O, not that it failed).
  std::uint64_t send_retries = 0;
  std::uint64_t connect_retries = 0;

  /// Shard-balance skew: largest partition over the ideal even share
  /// (1.0 = perfectly balanced).  0 when no states were owned.
  [[nodiscard]] double skew() const;
};

struct DistResult {
  sched::ExploreResult result;
  DistStats stats;
};

/// Explore `initial` across dopts.n_workers processes.  Composes with
/// the ExploreOptions budgets and checkpoint fields exactly like the
/// in-process engines: budgets stop the run gracefully with a precise
/// limit_hit, checkpoint_path enables per-worker generation files plus
/// a coordinator manifest, and resume_manifest continues a stopped run
/// to a verdict byte-identical to an uninterrupted one.
DistResult explore_distributed(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const sched::ExploreOptions& opts,
                               const DistOptions& dopts);

}  // namespace cac::dist
