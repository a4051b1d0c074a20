#include "sched/explore_parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/checkpoint.h"
#include "sched/graph.h"
#include "support/diag.h"

namespace cac::sched {

namespace {

// Phase-1 state graph: graph::Node records (sched/graph.h).  Machine
// states live interned in the shared StateStore; nodes hold only the
// StateId and live in per-shard deques (stable addresses; grown only
// under the shard mutex).  After a node is registered, its fields are
// written exclusively by the single worker expanding it; the work-queue
// mutexes order that hand-off, and the thread join orders the final
// reads by the replay.

using graph::Node;

/// Sharded concurrent visited set over the interning StateStore.
/// Shards are keyed by the memoized structural machine hash, so
/// structurally equal machines always race on the *same* shard mutex —
/// intern-and-register is atomic per state, and dedup semantics are
/// identical to the serial explorer's (structural equality inside the
/// store; a hash collision cannot fake a visit).
class VisitedShards {
 public:
  VisitedShards(std::uint64_t max_states, StateStore& store)
      : store_(store), max_states_(max_states) {}

  struct InsertResult {
    Node* node = nullptr;  // nullptr: dropped at the state cap
    bool inserted = false;
  };

  /// Find the node for the state structurally equal to `m`, or intern
  /// `m` and register a fresh node.  The caller must have computed
  /// m.hash() already (it is the owner thread).  `parent` (the node
  /// being expanded) seeds the store's delta encoding.
  InsertResult find_or_insert(const sem::Machine& m, std::uint64_t hash,
                              StateId parent = StateId{}) {
    Shard& s = shards_[shard_of(hash)];
    std::lock_guard<std::mutex> lock(s.mu);
    const auto r = store_.intern(m, max_states_, parent);
    if (!r.id.valid()) {
      cap_hit_.store(true, std::memory_order_relaxed);
      return {nullptr, false};
    }
    const auto [it, fresh] = s.node_of.try_emplace(r.id.v, nullptr);
    if (fresh) {
      it->second = &s.nodes.emplace_back();
      it->second->local = r.id.v;
    }
    return {it->second, fresh};
  }

  /// Resume path (single-threaded, before workers start): register a
  /// checkpointed node whose state is already interned in the store.
  Node* seed(const Node& rec, std::uint64_t hash) {
    Shard& s = shards_[shard_of(hash)];
    Node* n = &s.nodes.emplace_back(rec);
    s.node_of[rec.local] = n;
    return n;
  }

  /// Visit every registered node.  Requires quiescence (workers parked
  /// or joined).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& s : shards_) {
      for (const Node& n : s.nodes) fn(n);
    }
  }

  [[nodiscard]] bool cap_hit() const {
    return cap_hit_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kShardCount = 64;

  static unsigned shard_of(std::uint64_t hash) {
    // The machine hash is splitmix-finalized; the top bits are as good
    // as any (the store's internal sharding uses the low bits).
    return static_cast<unsigned>(hash >> 58) & (kShardCount - 1);
  }

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint32_t, Node*> node_of;  // StateId.v -> node
    std::deque<Node> nodes;  // stable addresses
  };

  StateStore& store_;
  Shard shards_[kShardCount];
  std::atomic<bool> cap_hit_{false};
  const std::uint64_t max_states_;
};

struct Task {
  Node* node = nullptr;
  std::uint64_t depth = 0;
};

/// Per-worker deque: the owner pushes/pops at the back (depth-first,
/// cache-warm), thieves take from the front (breadth-first, large
/// subtrees).  A plain mutex per deque is plenty at this granularity —
/// one lock per state expansion.
struct WorkQueue {
  std::mutex mu;
  std::deque<Task> q;

  void push(Task t) {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(t);
  }
  bool pop_back(Task& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.back();
    q.pop_back();
    return true;
  }
  bool steal_front(Task& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }
};

/// Phase 1: expand every distinct reachable state exactly once.
///
/// Crash safety rides on a three-state control protocol the main
/// thread drives while workers run:
///
///   kRun   -> workers pop/steal/expand as fast as they can;
///   kPause -> workers park at the loop-top gate; once every worker is
///             parked or exited the graph is quiescent and the main
///             thread serializes a checkpoint, then resumes;
///   kStop  -> workers exit at the gate.  A task already popped is
///             fully expanded first (its children reach the queues),
///             so the frontier captured afterwards is exactly the set
///             of discovered-but-unexpanded states.
///
/// All control state lives under one mutex; per-node writes by workers
/// are ordered before the main thread's reads by that same mutex
/// (gate lock -> paused_/exited_ increment -> monitor observes), so
/// checkpoint serialization is race-free.
class GraphBuilder {
 public:
  GraphBuilder(const ptx::Program& prg, const sem::KernelConfig& kc,
               const ExploreOptions& opts,
               std::shared_ptr<StateStore> store, unsigned n_workers)
      : prg_(prg),
        kc_(kc),
        opts_(opts),
        store_ptr_(std::move(store)),
        store_(*store_ptr_),
        visited_(opts.max_states, store_),
        queues_(n_workers) {}

  struct Outcome {
    Node* root = nullptr;
    /// Transient budget/signal reason this run stopped early, or None
    /// when phase 1 ran to completion.
    ExploreResult::Limit stopped = ExploreResult::Limit::None;
    bool checkpointed = false;
    std::uint64_t checkpoint_write_failures = 0;
  };

  /// Build (or, with `resume`, finish building) the state graph.
  /// A null root in the outcome means even the initial state was
  /// dropped (max_states == 0 — the serial engine reports the same as
  /// a limits-hit non-visit).
  Outcome build(const sem::Machine& initial, const Checkpoint* resume) {
    if (resume != nullptr) {
      root_ = restore(*resume);
    } else {
      const sem::Machine root_copy(initial);
      const std::uint64_t h = root_copy.hash();
      const auto r = visited_.find_or_insert(root_copy, h);
      root_ = r.node;
      if (!r.inserted) return {r.node, ExploreResult::Limit::None, false};
      pending_.store(1, std::memory_order_relaxed);
      queues_[0].push(Task{r.node, 0});
    }

    std::vector<std::thread> workers;
    workers.reserve(queues_.size());
    for (unsigned i = 0; i < queues_.size(); ++i) {
      workers.emplace_back([this, i] { worker_loop(i); });
    }

    Outcome out;
    out.root = root_;
    monitor(out);
    for (std::thread& t : workers) t.join();

    if (!error_.empty()) throw KernelError(error_);

    if (out.stopped != ExploreResult::Limit::None &&
        !opts_.checkpoint_path.empty()) {
      // Final checkpoint after the join: fully quiescent by
      // construction.
      save_checkpoint();
    }
    out.checkpointed = checkpointed_;
    out.checkpoint_write_failures = checkpoint_write_failures_;
    return out;
  }

  [[nodiscard]] bool cap_hit() const { return visited_.cap_hit(); }

 private:
  enum class Mode : std::uint8_t { kRun, kPause, kStop };

  /// Rebuild graph + frontier from a checkpoint (single-threaded; the
  /// store has already been decoded into store_).
  Node* restore(const Checkpoint& ck) {
    std::unordered_map<std::uint32_t, Node*> by_id;
    by_id.reserve(ck.nodes.size());
    for (const Node& rec : ck.nodes) {
      by_id.emplace(rec.local,
                    visited_.seed(rec, store_.machine_hash({rec.local})));
    }
    const auto lookup = [&](std::uint32_t id) -> Node* {
      const auto it = by_id.find(id);
      if (it == by_id.end()) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "graph references unknown node");
      }
      return it->second;
    };
    for (const auto& [id, n] : by_id) {
      for (graph::Edge& e : n->edges) {
        if (!e.faulted && !e.overflow) e.to = lookup(e.child.local());
      }
    }
    std::uint64_t k = 0;
    for (const auto& [id, depth] : ck.frontier) {
      queues_[k++ % queues_.size()].push(Task{lookup(id), depth});
    }
    pending_.store(ck.frontier.size(), std::memory_order_relaxed);
    return lookup(ck.root.v);
  }

  void worker_loop(unsigned id) {
    Task t;
    for (;;) {
      // Control gate: park on pause, leave on stop.  Everything this
      // worker wrote to nodes before reaching the gate is ordered
      // before the monitor's reads by ctl_mu_.
      {
        std::unique_lock<std::mutex> lk(ctl_mu_);
        while (mode_ == Mode::kPause) {
          ++paused_;
          monitor_cv_.notify_all();
          ctl_cv_.wait(lk, [&] { return mode_ != Mode::kPause; });
          --paused_;
        }
        if (mode_ == Mode::kStop) break;
      }

      bool got = queues_[id].pop_back(t);
      for (unsigned j = 1; !got && j < queues_.size(); ++j) {
        got = queues_[(id + j) % queues_.size()].steal_front(t);
      }
      if (!got) {
        if (pending_.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
        continue;
      }
      try {
        expand(id, t);
      } catch (const std::exception& e) {
        failed_.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_.empty()) error_ = e.what();
        // Drain without expanding so every worker exits promptly.
      }
      pending_.fetch_sub(1, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lk(ctl_mu_);
    ++exited_;
    monitor_cv_.notify_all();
  }

  void expand(unsigned id, const Task& t) {
    // Poisoned run: stop growing the graph so workers drain quickly.
    if (failed_.load(std::memory_order_relaxed)) return;
    Node& node = *t.node;
    const sem::Machine state = store_.materialize({node.local});
    graph::expand(
        prg_, kc_, opts_, state, t.depth, node,
        [&](graph::Edge& e, std::uint32_t, const sem::Machine& child) {
          // The expanding node seeds the store's delta encoding.
          const auto r =
              visited_.find_or_insert(child, child.hash(), {node.local});
          if (r.node == nullptr) {
            e.overflow = true;
            return;
          }
          e.child = graph::Key::make(0, r.node->local);
          e.to = r.node;
          if (r.inserted) {
            pending_.fetch_add(1, std::memory_order_relaxed);
            queues_[id].push(Task{r.node, t.depth + 1});
          }
        });
  }

  /// Main-thread loop while workers run: waits for completion, and
  /// enforces budgets / periodic checkpoints when configured.
  void monitor(Outcome& out) {
    const unsigned n = static_cast<unsigned>(queues_.size());
    const Budget budget(opts_);
    const bool periodic = !opts_.checkpoint_path.empty() &&
                          opts_.checkpoint_every_states != 0;

    std::unique_lock<std::mutex> lk(ctl_mu_);
    if (!budget.armed() && !periodic) {
      monitor_cv_.wait(lk, [&] { return exited_ == n; });
      return;
    }

    std::uint64_t next_checkpoint_at =
        periodic ? store_.size() + opts_.checkpoint_every_states : ~0ull;

    for (;;) {
      monitor_cv_.wait_for(lk, std::chrono::milliseconds(2),
                           [&] { return exited_ == n; });
      if (exited_ == n) return;

      const ExploreResult::Limit stop = budget.tripped(store_.size(), [&] {
        return working_set_bytes(store_.stats().spilled_bytes);
      });
      if (stop != ExploreResult::Limit::None) {
        out.stopped = stop;
        mode_ = Mode::kStop;
        ctl_cv_.notify_all();
        monitor_cv_.wait(lk, [&] { return exited_ == n; });
        return;  // final checkpoint happens after the join
      }
      if (store_.size() >= next_checkpoint_at) {
        // Quiesce -> serialize -> resume.
        mode_ = Mode::kPause;
        ctl_cv_.notify_all();
        monitor_cv_.wait(lk, [&] { return paused_ + exited_ == n; });
        save_checkpoint();
        next_checkpoint_at = store_.size() + opts_.checkpoint_every_states;
        mode_ = Mode::kRun;
        ctl_cv_.notify_all();
      }
    }
  }

  /// Serialize graph + frontier + store.  Caller guarantees
  /// quiescence (pause protocol or post-join).
  void save_checkpoint() {
    Checkpoint ck;
    ck.engine = Checkpoint::Engine::Parallel;
    ck.program_fp = program_fingerprint(prg_);
    ck.config_fp = config_fingerprint(kc_);
    ck.options = opts_;  // only structural fields are persisted
    ck.store = store_ptr_;
    ck.root = root_ != nullptr ? StateId{root_->local} : StateId{};
    visited_.for_each([&](const Node& n) { ck.nodes.push_back(n); });
    for (WorkQueue& q : queues_) {
      std::lock_guard<std::mutex> lock(q.mu);
      for (const Task& t : q.q) {
        ck.frontier.emplace_back(t.node->local, t.depth);
      }
    }
    try {
      ck.save(opts_.checkpoint_path);
      checkpointed_ = true;
    } catch (const CheckpointError& e) {
      // Same policy as the serial engine: log, keep exploring, retry
      // at the next cadence — persistence failure never ends a run.
      ++checkpoint_write_failures_;
      std::fprintf(stderr,
                   "cacval: warning: checkpoint write failed (will retry "
                   "next cadence): %s\n",
                   e.what());
    }
  }

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const ExploreOptions& opts_;
  std::shared_ptr<StateStore> store_ptr_;
  StateStore& store_;
  VisitedShards visited_;
  std::vector<WorkQueue> queues_;
  Node* root_ = nullptr;
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::string error_;  // first worker exception, guarded by error_mu_
  bool checkpointed_ = false;
  std::uint64_t checkpoint_write_failures_ = 0;

  // Worker control protocol, all guarded by ctl_mu_.
  std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;      // workers park here on pause
  std::condition_variable monitor_cv_;  // monitor waits for quiescence
  Mode mode_ = Mode::kRun;
  unsigned paused_ = 0;
  unsigned exited_ = 0;
};

}  // namespace

ExploreResult explore_parallel(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const ExploreOptions& opts,
                               const Checkpoint* resume) {
  unsigned n = opts.num_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());

  std::shared_ptr<StateStore> store;
  if (resume != nullptr) {
    verify_resume(*resume, Checkpoint::Engine::Parallel, prg, kc, opts);
    store = resume->store;
    // Tier knobs are transient: the resumed run's own settings apply.
    store->configure(store_options(opts));
  } else {
    store = std::make_shared<StateStore>(store_options(opts));
  }

  GraphBuilder builder(prg, kc, opts, store, n);
  // A null root means even the initial state was over the cap
  // (max_states == 0); the replay turns that into the same empty,
  // non-exhaustive result the serial engine reports.
  const GraphBuilder::Outcome out = builder.build(initial, resume);
  graph::Replay rp = graph::replay(out.root, opts, out.stopped);
  ExploreResult result = std::move(rp.result);
  result.final_ids.reserve(rp.finals.size());
  for (const Node* n : rp.finals) result.final_ids.push_back({n->local});
  result.store_stats = store->stats();
  result.store = std::move(store);
  result.checkpointed = out.checkpointed;
  result.checkpoint_write_failures = out.checkpoint_write_failures;
  return result;
}

}  // namespace cac::sched
