#include "front/front.h"

#include <algorithm>
#include <utility>

#include "analysis/disjoint.h"
#include "analysis/lint.h"
#include "check/validate.h"
#include "equiv/check.h"
#include "ptx/lower.h"
#include "sym/exec.h"
#include "vcgen/prove.h"

namespace cac::front {

namespace {

ptx::LoweredModule lower(const std::string& source, bool insert_syncs) {
  ptx::LowerOptions lopts;
  lopts.insert_syncs = insert_syncs;
  return ptx::load_ptx(source, lopts);
}

const ptx::Program& pick_kernel(const ptx::LoweredModule& mod,
                                const std::string& name) {
  if (mod.kernels.empty()) throw PtxError("module has no kernels");
  if (name.empty()) return mod.kernels.front();
  return mod.kernel(name);
}

/// Launch specialization for the static analyzer, from the same values
/// the explorer launches with: block/grid dims plus every param value
/// masked to its slot's width.
analysis::LaunchEnv make_launch_env(const ptx::Program& prg,
                                    const sem::LaunchSpec& launch) {
  analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = launch.block.x;
  env.ntid[1] = launch.block.y;
  env.ntid[2] = launch.block.z;
  env.nctaid[0] = launch.grid.x;
  env.nctaid[1] = launch.grid.y;
  env.nctaid[2] = launch.grid.z;
  for (const auto& [name, value] : launch.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name != name) continue;
      const std::uint64_t mask =
          slot.type.width >= 64 ? ~0ull : (1ull << slot.type.width) - 1;
      env.params[slot.offset] = value & mask;
    }
  }
  return env;
}

/// Copy the exploration outcome into the result: stats, limit state,
/// checkpoint state, and one Diagnostic per violation.
void fill_exploration(Result& r, const sched::ExploreResult& ex,
                      const sched::ExploreOptions& eopts) {
  r.stats.have_explore = true;
  r.stats.states_visited = ex.states_visited;
  r.stats.transitions = ex.transitions;
  r.stats.exhaustive = ex.exhaustive;
  r.stats.limit_hit = sched::to_string(ex.limit_hit);
  r.stats.min_steps = ex.min_steps_to_termination;
  r.stats.max_steps = ex.max_steps_to_termination;
  r.stats.max_states_limit = eopts.max_states;
  r.stats.max_depth_limit = eopts.max_depth;
  r.stats.store = ex.store_stats;
  r.stats.checkpoint_write_failures = ex.checkpoint_write_failures;
  r.limit_tripped = ex.limit_hit != sched::ExploreResult::Limit::None;
  r.checkpointed = ex.checkpointed;
  if (ex.checkpointed) r.checkpoint_path = eopts.checkpoint_path;
  for (const sched::Violation& viol : ex.violations) {
    Diagnostic d;
    d.pass = sched::to_string(viol.kind);
    d.message = viol.message;
    d.steps = viol.trace.size();
    r.findings.push_back(std::move(d));
  }
}

void fill_counterexample(Result& r, const std::vector<sem::Choice>& cex) {
  r.counterexample.reserve(cex.size());
  for (const sem::Choice& c : cex) r.counterexample.push_back(sem::to_string(c));
}

sched::ExploreOptions effective_explore(const CheckRequest& req,
                                        const RunHooks& hooks,
                                        const ptx::Program& prg, Result& r) {
  sched::ExploreOptions eopts = req.explore;
  if (hooks.stop_flag != nullptr) eopts.stop_flag = hooks.stop_flag;
  if (req.por_oracle) {
    eopts.partial_order_reduction = true;
    eopts.por_independent_pcs = analysis::independent_access_pcs(
        prg, make_launch_env(prg, req.launch));
    r.stats.por_oracle = true;
    r.stats.por_oracle_pcs = eopts.por_independent_pcs.size();
    if (hooks.on_por_oracle) {
      hooks.on_por_oracle(eopts.por_independent_pcs.size());
    }
  }
  return eopts;
}

}  // namespace

std::string command_of(const Request& req) {
  if (const auto* c = std::get_if<CheckRequest>(&req)) {
    return c->full_validate ? "validate" : "check";
  }
  if (std::holds_alternative<LintRequest>(req)) return "lint";
  return "equiv";
}

Result run_check(const CheckRequest& req, const RunHooks& hooks) {
  const ptx::LoweredModule mod = lower(req.source, req.insert_syncs);
  const ptx::Program& prg = pick_kernel(mod, req.kernel);
  sem::Launch launch = req.launch.to_launch(prg, mod.shared_bytes);
  check::Spec post;
  for (const auto& [addr, value] : req.expects) {
    post.mem_u32(mem::Space::Global, addr, value);
  }

  Result r;
  r.command = req.full_validate ? "validate" : "check";
  r.file = req.file;
  r.kernel = prg.name();
  const sched::ExploreOptions eopts = effective_explore(req, hooks, prg, r);

  if (!req.full_validate) {
    check::ModelCheckOptions opts;
    opts.explore = eopts;
    opts.require_schedule_independence = req.require_independence;
    opts.expect_exact_steps = req.exact_steps;
    opts.resume = hooks.resume;
    opts.explorer = hooks.explorer;
    const check::Verdict v = check::prove_total(prg, launch.config(),
                                                launch.machine(), post, opts);
    r.verdict = check::to_string(v.kind);
    r.detail = v.detail;
    fill_exploration(r, v.exploration, eopts);
    fill_counterexample(r, v.counterexample);
    switch (v.kind) {
      case check::Verdict::Kind::Proved: r.exit_code = kExitProved; break;
      case check::Verdict::Kind::Refuted: r.exit_code = kExitFinding; break;
      case check::Verdict::Kind::Unknown: r.exit_code = kExitLimit; break;
    }
    return r;
  }

  check::ValidateOptions vopts;
  vopts.model.explore = eopts;
  vopts.model.require_schedule_independence = req.require_independence;
  vopts.model.expect_exact_steps = req.exact_steps;
  vopts.model.resume = hooks.resume;
  vopts.model.explorer = hooks.explorer;
  vopts.collect_profile = req.profile;
  const check::ValidationReport report =
      check::validate(prg, launch.config(), launch.machine(), post, vopts);
  r.text = report.text();
  fill_exploration(r, report.model.exploration, eopts);
  fill_counterexample(r, report.model.counterexample);
  for (const check::RaceReport::Race& race : report.races.races) {
    Diagnostic d;
    d.pass = "race";
    d.message = std::string(race.write_write ? "W-W" : "R-W") + " " +
                ptx::to_string(race.space) + "[" +
                std::to_string(race.addr) + "] threads " +
                std::to_string(race.tid_a) + "/" + std::to_string(race.tid_b) +
                (race.cross_block ? " (cross-block)" : "");
    r.findings.push_back(std::move(d));
  }
  const bool passed = report.all_passed();
  r.verdict = passed ? "validated" : "not-validated";
  r.detail = report.model.detail;
  // Exit-code triage: a concrete failure anywhere in the pipeline is a
  // finding (1); "not validated" only because the model check ran out
  // of budget is a tripped limit (3).
  const bool finding =
      report.races.racy() ||
      report.model.kind == check::Verdict::Kind::Refuted ||
      (report.options_used.check_transparency && !report.transparency.holds &&
       report.model.kind != check::Verdict::Kind::Unknown) ||
      (report.options_used.check_lane_order && !report.lane_order.independent);
  if (passed) {
    r.exit_code = kExitProved;
  } else {
    r.exit_code = finding ? kExitFinding : kExitLimit;
  }
  return r;
}

std::vector<Result> run_lint(const LintRequest& req) {
  const ptx::LoweredModule mod = lower(req.source, req.insert_syncs);
  std::vector<const ptx::Program*> kernels;
  if (req.kernel.empty()) {
    for (const ptx::Program& k : mod.kernels) kernels.push_back(&k);
  } else {
    kernels.push_back(&mod.kernel(req.kernel));
  }
  if (kernels.empty()) throw PtxError("module has no kernels");

  analysis::LintOptions lo;
  lo.shared_bytes = mod.shared_bytes;
  lo.check_races = req.races;
  lo.perf = req.perf;

  std::vector<Result> out;
  out.reserve(kernels.size());
  for (const ptx::Program* k : kernels) {
    const analysis::LintReport report =
        analysis::lint_kernel(*k, mod.locs_for(*k), lo);
    Result r;
    r.command = "lint";
    r.file = req.file;
    r.kernel = k->name();
    r.verdict = report.clean() ? "clean" : "findings";
    const std::size_t errors = report.errors();
    const std::size_t warnings = report.findings.size() - errors;
    r.detail = report.clean()
                   ? "no findings"
                   : std::to_string(report.findings.size()) + " finding" +
                         (report.findings.size() == 1 ? "" : "s") + " (" +
                         std::to_string(errors) + " errors)";
    if (warnings != 0) {
      r.detail += ", " + std::to_string(warnings) + " warning" +
                  (warnings == 1 ? "" : "s");
    }
    // Warnings (the perf passes) are exit-code-neutral: only errors
    // make lint's exit non-zero.
    r.exit_code = errors != 0 ? kExitFinding : kExitProved;
    for (const analysis::Finding& f : report.findings) {
      Diagnostic d;
      d.pass = analysis::to_string(f.pass);
      d.severity = analysis::to_string(f.severity);
      d.pc = f.pc;
      d.loc = f.loc;
      d.message = f.message;
      d.cost = f.cost;
      r.findings.push_back(std::move(d));
    }
    out.push_back(std::move(r));
  }
  return out;
}

Result run_equiv(const EquivRequest& req, const RunHooks& hooks) {
  const ptx::LoweredModule mod_a = lower(req.source, req.insert_syncs);
  const ptx::LoweredModule mod_b = lower(req.source_b, req.insert_syncs);
  const ptx::Program& a = pick_kernel(mod_a, req.kernel);
  const ptx::Program& b =
      pick_kernel(mod_b, req.kernel_b.empty() ? req.kernel : req.kernel_b);

  equiv::EquivOptions opts;
  opts.normalize = req.normalize;
  opts.counterexample = req.counterexample;
  opts.sym = req.sym;
  opts.cex.max_trials = req.cex_inputs;

  sym::TermArena arena;
  const sym::SymEnv env = equiv::make_union_env(arena, a, b);
  const equiv::EquivResult er = equiv::check_equivalence(
      a, b, req.launch.to_config(), env, opts, hooks.explorer);

  Result r;
  r.command = "equiv";
  r.file = req.file;
  r.kernel = a.name();
  r.kernel_b = b.name();
  r.detail = er.detail;
  r.stats.have_sym = true;
  r.stats.threads = er.threads;
  r.stats.paths = er.paths;
  r.stats.obligations = er.obligations;
  r.stats.rewrites = er.rewrites;
  r.stats.cex_trials = er.cex_trials;
  r.stats.cex_budget_tripped = er.cex_budget_tripped;
  if (er.failure) {
    r.equiv_failure.present = true;
    r.equiv_failure.thread = er.failure->thread;
    r.equiv_failure.path_index = er.failure->path_index;
    r.equiv_failure.obligation = er.failure->obligation;
    r.equiv_failure.cell = er.failure->cell;
    r.equiv_failure.lhs = er.failure->lhs;
    r.equiv_failure.rhs = er.failure->rhs;
  }
  if (er.cex) {
    r.equiv_cex.present = true;
    r.equiv_cex.inputs = er.cex->inputs;
    r.equiv_cex.region = er.cex->region;
    r.equiv_cex.offset = er.cex->offset;
    r.equiv_cex.addr = er.cex->addr;
    r.equiv_cex.value_a = er.cex->value_a;
    r.equiv_cex.value_b = er.cex->value_b;
    r.equiv_cex.replay_validated = er.cex->replay_validated;
  }
  switch (er.verdict) {
    case equiv::EquivVerdict::kEquivalent:
      r.verdict = "equivalent";
      r.exit_code = kExitProved;
      break;
    case equiv::EquivVerdict::kInconclusive:
      r.verdict = "inconclusive";
      r.exit_code = kExitLimit;
      r.limit_tripped = true;
      break;
    case equiv::EquivVerdict::kNotEquivalent:
      r.verdict = "not-equivalent";
      r.exit_code = kExitFinding;
      break;
  }
  return r;
}

std::vector<Result> run(const Request& req, const RunHooks& hooks) {
  if (const auto* c = std::get_if<CheckRequest>(&req)) {
    return {run_check(*c, hooks)};
  }
  if (const auto* l = std::get_if<LintRequest>(&req)) return run_lint(*l);
  return {run_equiv(std::get<EquivRequest>(req), hooks)};
}

int exit_code_of(const std::vector<Result>& results) {
  int code = kExitProved;
  auto saw = [&](int c) {
    for (const Result& r : results) {
      if (r.exit_code == c) return true;
    }
    return false;
  };
  if (saw(kExitUsage)) return kExitUsage;
  if (saw(kExitFinding)) return kExitFinding;
  if (saw(kExitLimit)) return kExitLimit;
  return code;
}

}  // namespace cac::front
