#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "dist/transport.h"
#include "dist/worker.h"
#include "sched/checkpoint.h"
#include "sched/checkpoint_codec.h"
#include "support/binio.h"

namespace cac::dist {

using support::BinReader;
using support::BinWriter;

double DistStats::skew() const {
  std::uint64_t total = 0;
  std::uint64_t biggest = 0;
  for (const PerWorker& w : workers) {
    total += w.owned;
    biggest = std::max(biggest, w.owned);
  }
  if (total == 0 || workers.empty()) return 0.0;
  return static_cast<double>(biggest) * static_cast<double>(workers.size()) /
         static_cast<double>(total);
}

namespace {

using Limit = sched::ExploreResult::Limit;

/// Internal control-flow signal: a worker vanished; unwind run_once()
/// into the relaunch loop.
struct WorkerDiedSignal {
  std::uint32_t worker = kNoWorker;
};

/// Structural-options equality via the codec: two option sets resume-
/// compatible iff their canonical encodings agree byte-for-byte.
std::string structural_bytes(const sched::ExploreOptions& o) {
  BinWriter w;
  sched::codec::encode_options(w, o);
  return w.take();
}

// --- merged-graph replay ---------------------------------------------

using sched::graph::Node;

/// The merged distributed graph: the workers' node records stay in their
/// graph parts, edges are linked across parts, and the per-worker stores
/// are decoded for materializing finals.
struct MergedGraph {
  std::vector<std::unique_ptr<sched::StateStore>> stores;  // per worker
  Node* root = nullptr;
};

MergedGraph merge_parts(std::vector<GraphPartMsg>& parts, Gid root) {
  MergedGraph g;
  const std::size_t n = parts.size();
  std::vector<std::unordered_map<std::uint32_t, Node*>> by_local(n);
  for (std::size_t w = 0; w < n; ++w) {
    g.stores.push_back(std::make_unique<sched::StateStore>());
    try {
      BinReader r(parts[w].store);
      g.stores[w]->decode(r);
      if (!r.done()) throw support::BinError("trailing bytes after store");
    } catch (const support::BinError& e) {
      throw DistError(DistError::Kind::Corrupt,
                      std::string("graph part store: ") + e.what());
    }
    for (Node& nd : parts[w].nodes) by_local[w].emplace(nd.local, &nd);
  }
  const auto lookup = [&](Gid gid) -> Node* {
    if (gid.worker() >= n) {
      throw DistError(DistError::Kind::Corrupt,
                      "edge references an unknown worker");
    }
    const auto it = by_local[gid.worker()].find(gid.local());
    if (it == by_local[gid.worker()].end()) {
      throw DistError(DistError::Kind::Corrupt,
                      "edge references an unknown node");
    }
    return it->second;
  };
  for (GraphPartMsg& part : parts) {
    for (Node& nd : part.nodes) {
      for (sched::graph::Edge& e : nd.edges) {
        if (!e.faulted && !e.overflow) e.to = lookup(e.child);
      }
    }
  }
  if (root.valid()) g.root = lookup(root);
  return g;
}

/// The worker whose graph part holds `nd`.
std::uint32_t part_of(const std::vector<GraphPartMsg>& parts,
                      const Node* nd) {
  const std::less_equal<const Node*> le;
  for (std::uint32_t w = 0; w < parts.size(); ++w) {
    const std::vector<Node>& ns = parts[w].nodes;
    if (!ns.empty() && le(ns.data(), nd) && le(nd, &ns.back())) return w;
  }
  throw DistError(DistError::Kind::Protocol, "final outside every part");
}

// --- the coordinator proper ------------------------------------------

struct Peer {
  Fd fd;
  pid_t pid = -1;  // fork mode only
  FrameReader reader;
  SendBuf outbuf;
  ProbeAckMsg last_ack;   // most recent, any nonce
  bool acked_round = false;
  bool have_part = false;
  bool ckpt_acked = false;
};

class Coordinator {
 public:
  Coordinator(const ptx::Program& prg, const sem::KernelConfig& kc,
              const sem::Machine& initial,
              const sched::ExploreOptions& opts, const DistOptions& dopts)
      : prg_(prg),
        kc_(kc),
        initial_(initial),
        opts_(opts),
        dopts_(dopts),
        budget_(opts),
        program_fp_(sched::program_fingerprint(prg)),
        config_fp_(sched::config_fingerprint(kc)) {
    if (dopts_.n_workers == 0) {
      throw DistError(DistError::Kind::Protocol,
                      "need at least one worker");
    }
    if (!dopts_.resume_manifest.empty()) load_resume_manifest();
  }

  ~Coordinator() { cleanup_peers(); }

  DistResult run() {
    for (;;) {
      try {
        return run_once();
      } catch (const WorkerDiedSignal& s) {
        cleanup_peers();
        ++stats_.restarts;
        die_cleared_ = true;  // the seam fires at most once
        if (!fork_mode()) {
          throw DistError(
              DistError::Kind::PeerDied,
              "remote worker " + std::to_string(s.worker) +
                  " disconnected; restart the workers and resume from "
                  "the last checkpoint");
        }
        if (stats_.restarts > dopts_.max_restarts) {
          throw DistError(DistError::Kind::PeerDied,
                          "worker died " +
                              std::to_string(stats_.restarts) +
                              " times; giving up");
        }
        if (dopts_.verbose) {
          std::fprintf(stderr,
                       "dist: worker %u died; relaunching fleet "
                       "(restart %llu, generation %llu)\n",
                       s.worker,
                       static_cast<unsigned long long>(stats_.restarts),
                       static_cast<unsigned long long>(committed_gen_));
        }
        // Relaunch everything.  With a committed generation the whole
        // fleet — including the lost partition — reloads its
        // "<base>.g<gen>.w<idx>" snapshot; otherwise the run restarts
        // from the root.  Either way the continued run's verdict
        // equals an uninterrupted run's.
        if (committed_gen_ > 0) {
          resume_ = true;
          resume_base_ = opts_.checkpoint_path;
          resume_gen_ = committed_gen_;
          // root_ stays: the manifest's root is already in memory.
        }
      }
    }
  }

 private:
  [[nodiscard]] bool fork_mode() const { return dopts_.listen.empty() &&
                                                dopts_.listen_fd < 0; }

  void load_resume_manifest() {
    const Frame f =
        load_frame_file(dopts_.resume_manifest, FrameType::kManifest);
    ManifestMsg m;
    try {
      BinReader r(f.payload);
      m = ManifestMsg::decode(r);
      if (!r.done()) throw support::BinError("trailing bytes");
    } catch (const support::BinError& e) {
      throw sched::CheckpointError(
          sched::CheckpointError::Kind::Corrupt,
          std::string(e.what()) + " in " + dopts_.resume_manifest);
    }
    const auto fail = [](const std::string& msg) {
      throw sched::CheckpointError(sched::CheckpointError::Kind::Mismatch,
                                   msg);
    };
    if (m.program_fp != program_fp_) {
      fail("program differs from the checkpointed run");
    }
    if (m.config_fp != config_fp_) {
      fail("kernel configuration differs from the checkpointed run");
    }
    if (structural_bytes(m.options) != structural_bytes(opts_)) {
      fail("exploration options differ from the checkpointed run");
    }
    if (m.n_workers != dopts_.n_workers) {
      fail("distributed resume requires the original --dist-workers (" +
           std::to_string(m.n_workers) + ")");
    }
    resume_ = true;
    resume_base_ = dopts_.resume_manifest;
    resume_gen_ = m.generation;
    committed_gen_ = m.generation;
    gen_ = m.generation;
    root_ = m.root;
    root_acked_ = true;
  }

  // --- fleet lifecycle ----------------------------------------------

  /// Fork one worker process on a fresh socketpair.  The child closes
  /// every parent-side fd it inherited, so it holds no handle to an
  /// earlier sibling's connection.
  void fork_one(std::uint32_t i) {
    auto [parent_end, child_end] = socket_pair();
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw DistError(DistError::Kind::Io, "fork failed");
    }
    if (pid == 0) {
      // Child: keep only our socket end, become worker i, and _exit
      // without running parent-side cleanup.
      for (Peer& p : peers_) p.fd.reset();
      parent_end.reset();
      int code = 0;
      try {
        run_worker(child_end.get(), prg_, kc_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dist: worker %u: %s\n", i, e.what());
        code = 1;
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    peers_[i].fd = std::move(parent_end);
    peers_[i].pid = pid;
    child_end.reset();
    if (dopts_.verbose) {
      std::fprintf(stderr, "dist: worker %u pid %d\n", i,
                   static_cast<int>(pid));
    }
  }

  void launch() {
    peers_.clear();
    peers_.resize(dopts_.n_workers);
    if (fork_mode()) {
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) fork_one(i);
    } else {
      Fd listener;
      if (dopts_.listen_fd >= 0) {
        listener = Fd(dopts_.listen_fd);
        // The seam fd is single-use; don't close it twice on restart.
        const_cast<DistOptions&>(dopts_).listen_fd = -1;
      } else {
        listener = tcp_listen(dopts_.listen);
      }
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
        peers_[i].fd = tcp_accept(listener.get());
      }
    }

    // The run's resident-byte budget is divided evenly so the fleet's
    // total matches what one in-process store would be allowed.
    SetupMsg s;
    s.n_workers = dopts_.n_workers;
    s.program_fp = program_fp_;
    s.config_fp = config_fp_;
    s.options = opts_;
    s.options.store_resident_budget_bytes /= dopts_.n_workers;
    s.checkpoint_base = opts_.checkpoint_path;
    s.resume = resume_ ? 1 : 0;
    s.resume_base = resume_base_;
    s.generation = resume_gen_;
    if (!die_cleared_) {
      s.die_worker = dopts_.die_worker;
      s.die_after_states = dopts_.die_after_states;
      s.die_after_generation = dopts_.die_after_generation;
    }
    for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
      s.worker_index = i;
      queue_msg(i, FrameType::kSetup, s);
    }
  }

  void cleanup_peers() {
    for (Peer& p : peers_) {
      if (p.pid > 0) ::kill(p.pid, SIGKILL);
      p.fd.reset();
    }
    for (Peer& p : peers_) {
      if (p.pid > 0) {
        int status = 0;
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
    peers_.clear();
  }

  // --- frame plumbing -----------------------------------------------

  template <typename Msg>
  void queue_msg(std::uint32_t worker, FrameType t, const Msg& m) {
    BinWriter w;
    m.encode(w);
    peers_[worker].outbuf.append(encode_frame(t, w.buffer()));
  }

  template <typename Msg>
  void broadcast(FrameType t, const Msg& m) {
    for (std::uint32_t i = 0; i < peers_.size(); ++i) queue_msg(i, t, m);
  }

  /// Control frames (pause/resume/dump/stop) carry no payload.
  void broadcast_control(FrameType t) {
    const std::string frame = encode_frame(t, "");
    for (Peer& p : peers_) p.outbuf.append(frame);
  }

  [[nodiscard]] bool outbufs_empty() const {
    for (const Peer& p : peers_) {
      if (!p.outbuf.empty()) return false;
    }
    return true;
  }

  /// One poll round: flush what we can, read what there is, dispatch
  /// every complete frame.  Throws WorkerDiedSignal when a peer whose
  /// death we are not expecting vanishes.
  void pump(int timeout_ms) {
    std::vector<pollfd> fds(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      fds[i].fd = peers_[i].fd.get();
      fds[i].events =
          static_cast<short>(POLLIN | (peers_[i].outbuf.empty() ? 0
                                                                : POLLOUT));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) return;
      throw DistError(DistError::Kind::Io, "poll failed");
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = peers_[i];
      if (!p.outbuf.empty() &&
          (fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        if (!flush_some(p.fd.get(), p.outbuf)) {
          worker_died(static_cast<std::uint32_t>(i));
        }
      }
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        if (!pump_reads(p.fd.get(), p.reader)) {
          // Drain what was buffered before the EOF, then report.
          dispatch_all(static_cast<std::uint32_t>(i));
          worker_died(static_cast<std::uint32_t>(i));
        }
        dispatch_all(static_cast<std::uint32_t>(i));
      }
    }
  }

  void worker_died(std::uint32_t worker) {
    if (stopping_) return;  // EOF after kStop is a clean exit
    throw WorkerDiedSignal{worker};
  }

  void dispatch_all(std::uint32_t from) {
    while (std::optional<Frame> f = peers_[from].reader.next()) {
      dispatch(from, *f);
    }
  }

  void dispatch(std::uint32_t from, const Frame& f) {
    switch (f.type) {
      case FrameType::kState:
      case FrameType::kResolve: {
        // Routed work frame: forward by the u32 target in the first
        // four payload bytes.
        if (f.payload.size() < 4) {
          throw DistError(DistError::Kind::Corrupt,
                          "routed frame too short");
        }
        std::uint32_t target = 0;
        for (int i = 0; i < 4; ++i) {
          target |= static_cast<std::uint32_t>(
                        static_cast<unsigned char>(f.payload[i]))
                    << (8 * i);
        }
        if (target >= peers_.size()) {
          throw DistError(DistError::Kind::Corrupt,
                          "routed frame targets an unknown worker");
        }
        peers_[target].outbuf.append(encode_frame(f.type, f.payload));
        return;
      }
      default:
        break;
    }
    try {
      BinReader r(f.payload);
      switch (f.type) {
        case FrameType::kRootAck: {
          const RootAckMsg m = RootAckMsg::decode(r);
          root_ = m.root;
          root_acked_ = true;
          break;
        }
        case FrameType::kProbeAck: {
          const ProbeAckMsg m = ProbeAckMsg::decode(r);
          if (m.worker != from) {
            throw DistError(DistError::Kind::Protocol,
                            "probe ack from the wrong worker");
          }
          peers_[from].last_ack = m;
          if (m.nonce == probe_nonce_) peers_[from].acked_round = true;
          break;
        }
        case FrameType::kCheckpointAck: {
          const CheckpointAckMsg m = CheckpointAckMsg::decode(r);
          // After a failed barrier disabled checkpointing, stragglers'
          // acks from the abandoned attempt still arrive; they belong
          // to no live barrier and must not throw (or satisfy) one.
          if (ckpt_disabled_) break;
          if (m.ok == 0) {
            throw sched::CheckpointError(
                sched::CheckpointError::Kind::Io,
                "worker " + std::to_string(from) +
                    " failed to checkpoint: " + m.error);
          }
          peers_[from].ckpt_acked = true;
          break;
        }
        case FrameType::kGraphPart: {
          GraphPartMsg m = GraphPartMsg::decode(r);
          if (m.worker != from) {
            throw DistError(DistError::Kind::Protocol,
                            "graph part from the wrong worker");
          }
          parts_[from] = std::move(m);
          peers_[from].have_part = true;
          break;
        }
        default:
          throw DistError(DistError::Kind::Protocol,
                          "unexpected frame from worker " +
                              std::to_string(from));
      }
      if (!r.done()) throw support::BinError("trailing bytes");
    } catch (const support::BinError& e) {
      throw DistError(DistError::Kind::Corrupt, e.what());
    }
  }

  // --- termination detection ----------------------------------------

  /// Two-round quiescence: a probe round is *clean* when every worker
  /// reports idle (or paused, while pausing), the global work-frame
  /// ledger balances (everything sent — including the coordinator's
  /// root seed — was processed), and the coordinator holds no
  /// undelivered frames.  Two consecutive clean rounds with identical
  /// counters mean no activity can ever occur again: the counters are
  /// monotone, and workers only send while expanding or processing.
  bool quiescent(bool require_paused) {
    if (!probe_inflight_) {
      ++probe_nonce_;
      for (Peer& p : peers_) p.acked_round = false;
      broadcast(FrameType::kProbe, ProbeMsg{probe_nonce_});
      probe_inflight_ = true;
      return false;
    }
    for (const Peer& p : peers_) {
      if (!p.acked_round) return false;
    }
    probe_inflight_ = false;  // round complete; evaluate it
    std::uint64_t sent = coord_sent_work_;
    std::uint64_t processed = 0;
    bool all_ready = root_acked_ || resume_;
    for (const Peer& p : peers_) {
      sent += p.last_ack.sent;
      processed += p.last_ack.processed;
      if (require_paused) {
        all_ready = all_ready && p.last_ack.paused != 0;
      } else {
        all_ready = all_ready && p.last_ack.idle != 0 &&
                    p.last_ack.paused == 0;
      }
    }
    const bool clean =
        all_ready && sent == processed && outbufs_empty();
    if (clean && last_clean_sent_ == sent &&
        last_clean_processed_ == processed) {
      ++stable_rounds_;
    } else if (clean) {
      stable_rounds_ = 1;
      last_clean_sent_ = sent;
      last_clean_processed_ = processed;
    } else {
      stable_rounds_ = 0;
    }
    return stable_rounds_ >= 2;
  }

  void reset_quiescence() {
    probe_inflight_ = false;
    stable_rounds_ = 0;
    last_clean_sent_ = ~0ull;
    last_clean_processed_ = ~0ull;
  }

  void wait_quiescent(bool require_paused) {
    reset_quiescence();
    while (!quiescent(require_paused)) pump(2);
  }

  // --- budgets -------------------------------------------------------

  [[nodiscard]] std::uint64_t total_owned() const {
    std::uint64_t total = 0;
    for (const Peer& p : peers_) total += p.last_ack.owned;
    return total;
  }

  // --- checkpointing -------------------------------------------------

  /// Pause -> quiesce -> per-worker generation files -> manifest
  /// commit.  The manifest rename is the commit point: a generation
  /// exists only once every worker's file is safely on disk, so resume
  /// always composes a mutually consistent cut.
  void write_generation() {
    broadcast_control(FrameType::kPause);
    wait_quiescent(/*require_paused=*/true);

    const std::uint64_t gen = gen_ + 1;
    for (Peer& p : peers_) p.ckpt_acked = false;
    broadcast(FrameType::kWriteCheckpoint, WriteCheckpointMsg{gen});
    while (!std::all_of(peers_.begin(), peers_.end(),
                        [](const Peer& p) { return p.ckpt_acked; })) {
      pump(2);
    }

    ManifestMsg m;
    m.program_fp = program_fp_;
    m.config_fp = config_fp_;
    m.options = opts_;
    m.n_workers = dopts_.n_workers;
    m.generation = gen;
    m.root = root_;
    BinWriter w;
    m.encode(w);
    write_frame_file(opts_.checkpoint_path, FrameType::kManifest,
                     w.buffer());
    // Previous generation's files are now dead weight.
    if (gen_ > 0) {
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
        std::remove(
            worker_checkpoint_path(opts_.checkpoint_path, gen_, i)
                .c_str());
      }
    }
    gen_ = gen;
    committed_gen_ = gen;
    stats_.generations = gen;
    checkpointed_ = true;
  }

  // --- run -----------------------------------------------------------

  DistResult run_once() {
    stopping_ = false;
    root_acked_ = resume_;  // a resumed run's root is known up front
    coord_sent_work_ = 0;
    parts_.assign(dopts_.n_workers, GraphPartMsg{});
    reset_quiescence();
    launch();

    if (!resume_) {
      // Seed the root with its owner.
      const sem::Machine root_copy(initial_);
      const std::uint64_t h = root_copy.hash();
      BinWriter sw;
      encode_machine_as_state(root_copy, sw);
      StateMsg sm;
      sm.target = owner_of(h, dopts_.n_workers);
      sm.parent = Gid{};
      sm.depth = 0;
      sm.state = sw.take();
      queue_msg(sm.target, FrameType::kState, sm);
      coord_sent_work_ = 1;
      ++stats_.frontier_msgs;
    }

    const bool periodic = !opts_.checkpoint_path.empty() &&
                          opts_.checkpoint_every_states != 0;
    std::uint64_t next_ckpt_at =
        periodic ? opts_.checkpoint_every_states : ~0ull;

    Limit stop_reason = Limit::None;
    for (;;) {
      pump(2);
      // The fleet's budgets: states owned across all partitions, and
      // the coordinator's RSS plus every worker's reported working set.
      stop_reason = budget_.tripped(total_owned(), [&] {
        std::uint64_t rss = sched::current_rss_bytes();
        for (const Peer& p : peers_) rss += p.last_ack.rss_bytes;
        return rss;
      });
      if (stop_reason == Limit::None &&
          total_owned() >= opts_.max_states) {
        // The fleet holds the state cap collectively; stop expanding.
        // Structural, exactly like a cap hit inside one partition.
        stop_reason = Limit::MaxStates;
      }
      if (stop_reason != Limit::None) break;
      if (periodic && !ckpt_disabled_ && total_owned() >= next_ckpt_at) {
        try {
          write_generation();
        } catch (const sched::CheckpointError& e) {
          // A full/failing disk on any worker (or under the manifest)
          // must not end the run: drop checkpointing, resume the
          // paused fleet, and explore on.  Only resumability is lost.
          ++ckpt_write_failures_;
          ckpt_disabled_ = true;
          std::fprintf(stderr,
                       "cacval: warning: distributed checkpoint failed; "
                       "periodic checkpointing disabled: %s\n",
                       e.what());
        }
        next_ckpt_at = total_owned() + opts_.checkpoint_every_states;
        broadcast_control(FrameType::kResume);
        reset_quiescence();
        continue;
      }
      if (quiescent(/*require_paused=*/false)) break;
    }

    if (stop_reason != Limit::None && !opts_.checkpoint_path.empty() &&
        !ckpt_disabled_) {
      try {
        write_generation();  // graceful stop: persist the frontier
      } catch (const sched::CheckpointError& e) {
        // The verdict never depends on persistence: report the loss
        // and carry on to the dump (workers are already paused and
        // quiescent at the barrier's cut, which is all kDump needs).
        ++ckpt_write_failures_;
        ckpt_disabled_ = true;
        std::fprintf(stderr,
                     "cacval: warning: final distributed checkpoint "
                     "failed; resuming will not be possible: %s\n",
                     e.what());
      }
    } else if (stop_reason != Limit::None) {
      // Still need a consistent cut before dumping the graph.
      broadcast_control(FrameType::kPause);
      wait_quiescent(/*require_paused=*/true);
    }

    // Collect the graph, stop the fleet.
    broadcast_control(FrameType::kDump);
    while (!std::all_of(peers_.begin(), peers_.end(),
                        [](const Peer& p) { return p.have_part; })) {
      pump(2);
    }
    broadcast_control(FrameType::kStop);
    stopping_ = true;
    while (!outbufs_empty()) pump(2);
    cleanup_stopped_fleet();

    // Merge + replay, then re-intern the finals into a fresh store in
    // first-visit order, so result.final_ids materialize to exactly the
    // machines (and order) the serial engine reports.
    const MergedGraph g = merge_parts(parts_, root_);
    sched::graph::Replay rp = sched::graph::replay(g.root, opts_, stop_reason);
    DistResult out;
    out.result = std::move(rp.result);
    auto result_store = std::make_shared<sched::StateStore>();
    for (const Node* nd : rp.finals) {
      const sem::Machine m =
          g.stores[part_of(parts_, nd)]->materialize({nd->local});
      out.result.final_ids.push_back(result_store->intern(m).id);
    }
    out.result.store = std::move(result_store);
    out.result.checkpointed = checkpointed_;
    out.result.checkpoint_write_failures = ckpt_write_failures_;
    out.stats = stats_;
    out.stats.send_retries = transport_counters().send_retries;
    out.stats.connect_retries = transport_counters().connect_retries;
    out.stats.workers.resize(dopts_.n_workers);
    for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
      DistStats::PerWorker& w = out.stats.workers[i];
      w.owned = parts_[i].owned;
      w.frontier_sent = parts_[i].frontier_sent;
      w.resolves_sent = parts_[i].resolves_sent;
      w.bytes_sent = parts_[i].bytes_sent;
      w.bytes_received = parts_[i].bytes_received;
      out.stats.frontier_msgs += parts_[i].frontier_sent;
      // The run's memory story is the sum of the partition stores.
      out.result.store_stats += parts_[i].store_stats;
    }
    return out;
  }

  /// Orderly shutdown: close our ends, reap the children.
  void cleanup_stopped_fleet() {
    for (Peer& p : peers_) p.fd.reset();
    for (Peer& p : peers_) {
      if (p.pid > 0) {
        int status = 0;
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
  }

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const sem::Machine& initial_;
  const sched::ExploreOptions& opts_;
  const DistOptions& dopts_;
  const sched::Budget budget_;  // the deadline clock starts here
  const std::uint64_t program_fp_;
  const std::uint64_t config_fp_;

  std::vector<Peer> peers_;
  std::vector<GraphPartMsg> parts_;
  DistStats stats_;

  Gid root_;
  bool root_acked_ = false;
  bool stopping_ = false;
  bool die_cleared_ = false;
  bool checkpointed_ = false;
  /// A checkpoint barrier failed (worker ENOSPC or manifest write):
  /// checkpointing is off for the rest of the run and stale barrier
  /// acks are discarded.  The exploration itself continues.
  bool ckpt_disabled_ = false;
  std::uint64_t ckpt_write_failures_ = 0;
  std::uint64_t coord_sent_work_ = 0;

  // resume / generations
  bool resume_ = false;
  std::string resume_base_;
  std::uint64_t resume_gen_ = 0;
  std::uint64_t gen_ = 0;
  std::uint64_t committed_gen_ = 0;

  // probe machinery
  std::uint64_t probe_nonce_ = 0;
  bool probe_inflight_ = false;
  unsigned stable_rounds_ = 0;
  std::uint64_t last_clean_sent_ = ~0ull;
  std::uint64_t last_clean_processed_ = ~0ull;
};

}  // namespace

DistResult explore_distributed(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const sched::ExploreOptions& opts,
                               const DistOptions& dopts) {
  Coordinator c(prg, kc, initial, opts, dopts);
  return c.run();
}

}  // namespace cac::dist
