// The traced layer sweep.  Over the distinct jobs of a workload, every
// layer's public entry points are called from outside, each call inside
// a span whose parent is the job's span, and the per-layer metrics are
// read back from those spans:
//   ptx       parse_module, lower
//   analysis  lint_kernel, analyze_perf, independent_access_pcs
//   sym       sym_execute_thread
//   equiv     check_equivalence (the job's pair; a single-kernel job's
//             kernel against itself when the workload has no pairs)
//   sem, mem  the sweep's own eligible_choices/apply_choice walks, and
//             Machine copy + hash() on the machines they visit
//   sched     explore, serial and with min(4, nproc) threads
//   check     prove_total, validate, detect_races
//   front     run, cache_key, request/result JSON, VerdictCache::get
//   dist      encode_frame, FrameReader
// Micro-second calls are repeated and reported as the median per call;
// exploration-sized calls (sched, check, equiv) are summed over the
// workload's jobs.
#include <algorithm>
#include <thread>

#include "analysis/disjoint.h"
#include "analysis/lint.h"
#include "analysis/perf.h"
#include "bench.h"
#include "check/model.h"
#include "check/race.h"
#include "check/validate.h"
#include "dist/wire.h"
#include "equiv/check.h"
#include "front/cache.h"
#include "ptx/lower.h"
#include "ptx/parser.h"
#include "sched/explore.h"
#include "sched/scheduler.h"
#include "sem/step.h"
#include "sym/exec.h"

namespace cacbench {

namespace front = cac::front;
namespace ptx = cac::ptx;
namespace sem = cac::sem;
namespace sched = cac::sched;
namespace analysis = cac::analysis;

namespace {

/// Times `f` once inside a span; milliseconds.
template <class F>
double timed(Tracer& t, const char* name, std::int64_t parent, std::int64_t job,
             F&& f) {
  SpanScope s(t, name, parent, job);
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

/// Repeats a micro-second call (up to ~2 ms of calls, at most 25) and
/// appends each duration in microseconds.
template <class F>
void timed_us(Tracer& t, const char* name, std::int64_t parent, std::int64_t job,
              std::vector<double>& out, F&& f) {
  const double first = timed(t, name, parent, job, f) * 1000.0;
  out.push_back(first);
  const int reps = std::clamp(static_cast<int>(2000.0 / std::max(first, 1.0)), 0, 24);
  for (int i = 0; i < reps; ++i) out.push_back(timed(t, name, parent, job, f) * 1000.0);
}

/// The analyzer's launch specialization, as front::run_check builds it.
analysis::LaunchEnv launch_env(const ptx::Program& prg, const sem::LaunchSpec& l) {
  analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = l.block.x;
  env.ntid[1] = l.block.y;
  env.ntid[2] = l.block.z;
  env.nctaid[0] = l.grid.x;
  env.nctaid[1] = l.grid.y;
  env.nctaid[2] = l.grid.z;
  for (const auto& [name, value] : l.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name != name) continue;
      const std::uint64_t mask =
          slot.type.width >= 64 ? ~0ull : (1ull << slot.type.width) - 1;
      env.params[slot.offset] = value & mask;
    }
  }
  return env;
}

const ptx::Program& first_or(const ptx::LoweredModule& m, const std::string& name) {
  return name.empty() ? m.kernels.front() : m.kernel(name);
}

struct Acc {
  std::vector<double> parse_us, lower_us, lint_us, perf_us, oracle_us, sym_us;
  std::vector<double> step_ns, clone_hash_ns;
  std::vector<double> key_us, req_json_us, res_json_us, get_us, enc_us, dec_us;
  std::vector<double> frame_bytes;
  double instrs = 0, oracle_pcs = 0, sym_paths = 0;
  double equiv_ms = 0, rewrites = 0, cex_trials = 0;
  double steps = 0;
  std::uint64_t hash_sink = 0;  // keeps the measured hashes live
  double explore_ms = 0, par_ms = 0, states = 0, transitions = 0;
  double resident = 0, materialized = 0, bloom_neg = 0, bloom_fp = 0;
  double prove_ms = 0, validate_ms = 0, races_ms = 0;
};

/// A check job, lowered and launched.  `prg` points into `mod`, so a
/// Launched is neither copied nor moved.
struct Launched {
  ptx::LoweredModule mod;
  const ptx::Program* prg;
  sem::KernelConfig kc;
  sem::Machine init;
  cac::check::Spec post;
  sched::ExploreOptions eopts;

  explicit Launched(const front::CheckRequest& c)
      : mod(ptx::load_ptx(c.source, [&] {
          ptx::LowerOptions o;
          o.insert_syncs = c.insert_syncs;
          return o;
        }())),
        prg(&first_or(mod, c.kernel)),
        kc(c.launch.to_config()),
        init(c.launch.to_launch(*prg, mod.shared_bytes).machine()),
        eopts(c.explore) {
    for (const auto& [addr, value] : c.expects) {
      post.mem_u32(cac::mem::Space::Global, addr, value);
    }
    if (c.por_oracle) {
      eopts.partial_order_reduction = true;
      eopts.por_independent_pcs =
          analysis::independent_access_pcs(*prg, launch_env(*prg, c.launch));
    }
  }
  Launched(const Launched&) = delete;
  Launched& operator=(const Launched&) = delete;
};

/// Seeded random walks through the schedule space: per-step cost of
/// eligible_choices + apply_choice, then Machine copy + hash() on every
/// eighth visited machine of the same walks.
void walk(const Launched& l, std::uint64_t seed, Tracer& t, std::int64_t parent,
          std::int64_t job, Acc& acc) {
  constexpr std::uint64_t kStepBudget = 4000;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(seed);
    std::uint64_t steps = 0;
    double clone_ns = 0;
    std::uint64_t clones = 0;
    SpanScope span(t, pass == 0 ? "sem.walk" : "mem.clone_hash", parent, job);
    const Clock::time_point t0 = Clock::now();
    while (steps < kStepBudget) {
      sem::Machine m = l.init;
      for (;;) {
        const std::vector<sem::Choice> ch = sem::eligible_choices(*l.prg, m.grid);
        if (ch.empty() || steps >= kStepBudget) break;
        if (!sem::apply_choice(*l.prg, l.kc, m, ch[rng.below(ch.size())]).ok()) break;
        ++steps;
        if (pass == 1 && steps % 8 == 0) {
          const Clock::time_point c0 = Clock::now();
          sem::Machine copy = m;
          copy.invalidate_hash();
          acc.hash_sink ^= copy.hash();
          clone_ns += std::chrono::duration<double, std::nano>(Clock::now() - c0).count();
          ++clones;
        }
      }
      if (steps == 0) break;
    }
    if (pass == 0 && steps != 0) {
      acc.step_ns.push_back(ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(steps));
      acc.steps += static_cast<double>(steps);
    }
    if (pass == 1 && clones != 0) acc.clone_hash_ns.push_back(clone_ns / static_cast<double>(clones));
  }
}

}  // namespace

std::vector<Metric> layer_sweep(const std::vector<Job>& jobs, const RunConfig& cfg,
                                Tracer& t) {
  Acc acc;
  const std::uint32_t threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const bool has_pairs = std::any_of(jobs.begin(), jobs.end(), [](const Job& j) {
    return std::holds_alternative<front::EquivRequest>(j.req);
  });
  const bool has_validate = std::any_of(jobs.begin(), jobs.end(), [](const Job& j) {
    const auto* c = std::get_if<front::CheckRequest>(&j.req);
    return c != nullptr && c->full_validate;
  });
  double cheapest_ms = -1;
  const front::CheckRequest* cheapest = nullptr;

  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& job = jobs[k];
    const auto jid = static_cast<std::int64_t>(1000000 + k);
    SpanScope js(t, "sweep.job", -1, jid);
    const std::int64_t p = js.id();

    // ptx: every source the job carries.
    std::vector<std::string> sources;
    bool syncs = true;
    if (const auto* c = std::get_if<front::CheckRequest>(&job.req)) {
      sources = {c->source};
      syncs = c->insert_syncs;
    } else if (const auto* l = std::get_if<front::LintRequest>(&job.req)) {
      sources = {l->source};
    } else {
      const auto& e = std::get<front::EquivRequest>(job.req);
      sources = {e.source, e.source_b};
    }
    std::vector<ptx::LoweredModule> mods;
    for (const std::string& src : sources) {
      ptx::AstModule ast;
      timed_us(t, "ptx.parse", p, jid, acc.parse_us, [&] { ast = ptx::parse_module(src); });
      ptx::LowerOptions lo;
      lo.insert_syncs = syncs;
      ptx::LoweredModule mod;
      timed_us(t, "ptx.lower", p, jid, acc.lower_us, [&] { mod = ptx::lower(ast, lo); });
      for (const ptx::Program& prg : mod.kernels) {
        acc.instrs += static_cast<double>(prg.code().size());
      }
      mods.push_back(std::move(mod));
    }

    // analysis: every kernel of the first module.
    const auto* creq = std::get_if<front::CheckRequest>(&job.req);
    for (const ptx::Program& prg : mods[0].kernels) {
      const analysis::LaunchEnv env =
          creq != nullptr ? launch_env(prg, creq->launch) : analysis::LaunchEnv{};
      const std::vector<cac::SourceLoc> locs = mods[0].locs_for(prg);
      analysis::LintOptions lo;
      lo.launch = env;
      lo.shared_bytes = mods[0].shared_bytes;
      lo.perf = true;
      timed_us(t, "analysis.lint", p, jid, acc.lint_us,
               [&] { (void)analysis::lint_kernel(prg, locs, lo); });
      timed_us(t, "analysis.perf", p, jid, acc.perf_us,
               [&] { (void)analysis::analyze_perf(prg, locs, env); });
      std::vector<std::uint32_t> pcs;
      timed_us(t, "analysis.oracle", p, jid, acc.oracle_us,
               [&] { pcs = analysis::independent_access_pcs(prg, env); });
      acc.oracle_pcs += static_cast<double>(pcs.size());
    }

    // sym + equiv: pairs, or single kernels against themselves.
    const auto* ereq = std::get_if<front::EquivRequest>(&job.req);
    if (ereq != nullptr || (creq != nullptr && !has_pairs)) {
      const ptx::Program& a = first_or(mods[0], ereq != nullptr ? ereq->kernel : creq->kernel);
      const ptx::Program& b = ereq != nullptr ? first_or(mods[1], ereq->kernel_b) : a;
      const sem::KernelConfig kc =
          ereq != nullptr ? ereq->launch.to_config() : creq->launch.to_config();
      {
        cac::sym::TermArena arena;
        const cac::sym::SymEnv env = cac::sym::SymEnv::symbolic(arena, a);
        timed_us(t, "sym.exec", p, jid, acc.sym_us, [&] {
          acc.sym_paths += static_cast<double>(
              cac::sym::sym_execute_thread(a, kc, 0, env).paths.size());
        });
      }
      cac::sym::TermArena arena;
      const cac::sym::SymEnv env = cac::equiv::make_union_env(arena, a, b);
      cac::equiv::EquivResult er;
      acc.equiv_ms += timed(t, "equiv.check", p, jid, [&] {
        er = cac::equiv::check_equivalence(a, b, kc, env);
      });
      acc.rewrites += static_cast<double>(er.rewrites);
      acc.cex_trials += static_cast<double>(er.cex_trials);
    }

    // sem, mem, sched, check: jobs with a launch.
    if (creq != nullptr) {
      const Launched l(*creq);
      walk(l, cfg.seed + k, t, p, jid, acc);
      sched::ExploreOptions serial = l.eopts;
      serial.num_threads = 0;
      sched::ExploreResult ex;
      const double ms = timed(t, "sched.explore", p, jid,
                              [&] { ex = sched::explore(*l.prg, l.kc, l.init, serial); });
      acc.explore_ms += ms;
      acc.states += static_cast<double>(ex.states_visited);
      acc.transitions += static_cast<double>(ex.transitions);
      acc.resident += static_cast<double>(ex.store_stats.resident_bytes);
      acc.materialized += static_cast<double>(ex.store_stats.materialized_bytes);
      acc.bloom_neg += static_cast<double>(ex.store_stats.bloom_negatives);
      acc.bloom_fp += static_cast<double>(ex.store_stats.bloom_false_positives);
      sched::ExploreOptions par = l.eopts;
      par.num_threads = threads;
      acc.par_ms += timed(t, "sched.explore_parallel", p, jid,
                          [&] { (void)sched::explore(*l.prg, l.kc, l.init, par); });
      if (!creq->full_validate && (cheapest == nullptr || ms < cheapest_ms)) {
        cheapest = creq;
        cheapest_ms = ms;
      }

      cac::check::ModelCheckOptions mo;
      mo.explore = serial;
      mo.require_schedule_independence = creq->require_independence;
      mo.expect_exact_steps = creq->exact_steps;
      if (creq->full_validate) {
        cac::check::ValidateOptions vo;
        vo.model = mo;
        vo.collect_profile = creq->profile;
        acc.validate_ms += timed(t, "check.validate", p, jid, [&] {
          (void)cac::check::validate(*l.prg, l.kc, l.init, l.post, vo);
        });
      } else {
        acc.prove_ms += timed(t, "check.prove_total", p, jid, [&] {
          (void)cac::check::prove_total(*l.prg, l.kc, l.init, l.post, mo);
        });
      }
      sem::Machine m = l.init;
      sched::RandomScheduler rs(cfg.seed + k);
      acc.races_ms += timed(t, "check.detect_races", p, jid,
                            [&] { (void)cac::check::detect_races(*l.prg, l.kc, m, rs); });
    }

    // front + dist.
    std::vector<front::Result> results;
    (void)timed(t, "front.run", p, jid, [&] { results = front::run(job.req); });
    front::CacheKey key;
    timed_us(t, "front.cache_key", p, jid, acc.key_us, [&] { key = front::cache_key(job.req); });
    std::string req_json;
    timed_us(t, "front.request_json", p, jid, acc.req_json_us, [&] {
      req_json = front::to_json(job.req);
      (void)front::request_from_json(req_json);
    });
    std::string res_json;
    timed_us(t, "front.result_json", p, jid, acc.res_json_us,
             [&] { res_json = front::to_json(results); });
    front::VerdictCache cache;
    cache.put(key, front::VerdictCache::Entry{front::exit_code_of(results), res_json});
    timed_us(t, "front.cache_get", p, jid, acc.get_us, [&] { (void)cache.get(key); });
    for (const std::string* payload : {&req_json, &res_json}) {
      std::string frame;
      timed_us(t, "dist.encode_frame", p, jid, acc.enc_us, [&] {
        frame = cac::dist::encode_frame(cac::dist::FrameType::kServeRequest, *payload);
      });
      timed_us(t, "dist.decode_frame", p, jid, acc.dec_us, [&] {
        cac::dist::FrameReader reader;
        reader.feed(frame.data(), frame.size());
        (void)reader.next();
      });
      acc.frame_bytes.push_back(static_cast<double>(frame.size()));
    }
  }

  // A workload without validate jobs validates its cheapest check job.
  if (!has_validate && cheapest != nullptr) {
    const Launched l(*cheapest);
    cac::check::ValidateOptions vo;
    vo.model.explore = l.eopts;
    vo.model.explore.num_threads = 0;
    vo.model.require_schedule_independence = cheapest->require_independence;
    acc.validate_ms += timed(t, "check.validate", -1, -1, [&] {
      (void)cac::check::validate(*l.prg, l.kc, l.init, l.post, vo);
    });
  }

  // front::run calls of the traced loop and of this sweep.
  std::vector<double> run_us;
  for (double ms : t.durations_ms("front.run")) run_us.push_back(ms * 1000.0);

  return {
      {"ptx.parse_us", median(acc.parse_us), "us"},
      {"ptx.lower_us", median(acc.lower_us), "us"},
      {"ptx.instrs", acc.instrs, "count"},
      {"analysis.lint_us", median(acc.lint_us), "us"},
      {"analysis.perf_us", median(acc.perf_us), "us"},
      {"analysis.oracle_us", median(acc.oracle_us), "us"},
      {"analysis.oracle_pcs", acc.oracle_pcs, "count"},
      {"sym.exec_us", median(acc.sym_us), "us"},
      {"sym.paths", acc.sym_paths, "count"},
      {"equiv.check_ms", acc.equiv_ms, "ms"},
      {"equiv.rewrites", acc.rewrites, "count"},
      {"equiv.cex_trials", acc.cex_trials, "count"},
      {"sem.step_ns", median(acc.step_ns), "ns"},
      {"sem.steps", acc.steps, "count"},
      {"mem.clone_hash_ns", median(acc.clone_hash_ns), "ns"},
      {"sched.explore_ms", acc.explore_ms, "ms"},
      {"sched.states", acc.states, "count"},
      {"sched.transitions", acc.transitions, "count"},
      {"sched.states_per_s", acc.states / (acc.explore_ms / 1000.0), "1/s"},
      {"sched.store_bytes_per_state", acc.resident / std::max(acc.states, 1.0), "B"},
      {"sched.store_dedup_ratio",
       acc.resident == 0 ? 0 : acc.materialized / acc.resident, "ratio"},
      {"sched.bloom_hit_rate",
       acc.bloom_neg + acc.bloom_fp == 0 ? 0 : acc.bloom_neg / (acc.bloom_neg + acc.bloom_fp),
       "ratio"},
      {"sched.par_explore_ms", acc.par_ms, "ms"},
      {"sched.par_speedup", acc.explore_ms / acc.par_ms, "x"},
      {"check.prove_ms", acc.prove_ms, "ms"},
      {"check.validate_ms", acc.validate_ms, "ms"},
      {"check.races_ms", acc.races_ms, "ms"},
      {"front.run_us", median(run_us), "us"},
      {"front.cache_key_us", median(acc.key_us), "us"},
      {"front.request_json_us", median(acc.req_json_us), "us"},
      {"front.result_json_us", median(acc.res_json_us), "us"},
      {"front.cache_get_us", median(acc.get_us), "us"},
      {"dist.encode_frame_us", median(acc.enc_us), "us"},
      {"dist.decode_frame_us", median(acc.dec_us), "us"},
      {"dist.frame_bytes", median(acc.frame_bytes), "B"},
  };
}

}  // namespace cacbench
