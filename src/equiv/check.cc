#include "equiv/check.h"

#include <utility>
#include <vector>

#include "equiv/align.h"
#include "equiv/normalize.h"

namespace cac::equiv {

using sym::SymPath;
using sym::TermArena;
using sym::ThreadSummary;

sym::SymEnv make_union_env(TermArena& arena, const ptx::Program& a,
                           const ptx::Program& b) {
  sym::SymEnv env = sym::SymEnv::symbolic(arena, a);
  for (const ptx::ParamSlot& p : b.params()) {
    if (env.params.count(p.name) != 0) continue;
    env.params[p.name] = arena.var(p.name, p.type.width);
    if (p.type.width == 64) env.pointer_params.insert(p.name);
  }
  return env;
}

std::string to_string(EquivVerdict v) {
  switch (v) {
    case EquivVerdict::kEquivalent: return "equivalent";
    case EquivVerdict::kNotEquivalent: return "not-equivalent";
    case EquivVerdict::kInconclusive: return "inconclusive";
  }
  return "inconclusive";
}

namespace {

std::string stats_detail(const EquivResult& r) {
  std::string out = std::to_string(r.threads) + " threads, " +
                    std::to_string(r.paths) + " paths, " +
                    std::to_string(r.obligations) +
                    " obligations discharged";
  if (r.rewrites != 0) {
    out += ", " + std::to_string(r.rewrites) + " rewrites";
  }
  return out;
}

}  // namespace

EquivResult check_equivalence(
    const ptx::Program& a, const ptx::Program& b,
    const sem::KernelConfig& kc, const sym::SymEnv& env,
    const EquivOptions& opts,
    const check::ModelCheckOptions::explorer_type& explorer) {
  EquivResult out;

  TermArena& arena = *env.arena;
  Normalizer norm(arena, opts.normalize);

  // --- phase 1: per-thread symbolic summaries, both kernels ----------
  std::vector<ThreadSummary> sum_a, sum_b;
  sum_a.reserve(kc.total_threads());
  sum_b.reserve(kc.total_threads());
  for (std::uint32_t tid = 0; tid < kc.total_threads(); ++tid) {
    ++out.threads;
    sum_a.push_back(sym_execute_thread(a, kc, tid, env, opts.sym));
    sum_b.push_back(sym_execute_thread(b, kc, tid, env, opts.sym));
    out.paths += sum_a.back().paths.size() + sum_b.back().paths.size();
    for (const ThreadSummary* s : {&sum_a.back(), &sum_b.back()}) {
      for (const SymPath& p : s->paths) {
        if (p.ok() && p.exited) continue;
        const std::string why =
            p.failure.empty() ? "path did not exit" : p.failure;
        out.verdict = EquivVerdict::kInconclusive;
        out.detail = "thread " + std::to_string(tid) +
                     ": a symbolic path failed: " + why;
        out.failure =
            vcgen::ProofResult::Failure{tid, 0, "engine", "", why, ""};
        return out;
      }
    }
  }

  // --- phase 2: normalize + align, thread by thread ------------------
  // With --no-normalize the Normalizer is the identity: the write maps
  // then carry only the arena's smart-constructor forms (the ablation
  // that measures what the rewrite rules buy).
  std::optional<vcgen::ProofResult::Failure> mismatch;
  for (std::uint32_t tid = 0; tid < kc.total_threads() && !mismatch;
       ++tid) {
    WriteMap ma = build_write_map(arena, norm, sum_a[tid]);
    WriteMap mb = build_write_map(arena, norm, sum_b[tid]);
    if (auto mm = compare_write_maps(arena, ma, mb, out.obligations)) {
      mismatch = vcgen::ProofResult::Failure{
          tid, 0, mm->obligation, to_string(mm->cell), mm->lhs, mm->rhs};
    }
  }
  out.terms_normalized = norm.stats().terms;
  out.rewrites = norm.stats().rewrites;

  if (!mismatch) {
    out.verdict = EquivVerdict::kEquivalent;
    out.detail = stats_detail(out);
    return out;
  }
  out.failure = mismatch;

  // --- phase 3: counterexample search --------------------------------
  if (!opts.counterexample) {
    out.verdict = EquivVerdict::kInconclusive;
    out.detail = "thread " + std::to_string(mismatch->thread) +
                 ": symbolic " + mismatch->obligation + " mismatch at " +
                 mismatch->cell +
                 " (counterexample search disabled; the normalizer is "
                 "incomplete, so this does not refute equivalence)";
    return out;
  }
  const CexSearch search = search_counterexample(
      a, b, kc, env, sum_a, sum_b, opts.cex, explorer);
  out.cex_trials = search.trials;
  out.cex_replays = search.replays;
  if (search.found) {
    out.verdict = EquivVerdict::kNotEquivalent;
    out.cex = search.found;
    out.detail = "thread " + std::to_string(mismatch->thread) +
                 ": symbolic " + mismatch->obligation + " mismatch at " +
                 mismatch->cell + "; replay-validated counterexample: " +
                 search.found->region + "[" +
                 std::to_string(search.found->offset) + "] = " +
                 std::to_string(search.found->value_a) + " vs " +
                 std::to_string(search.found->value_b);
    return out;
  }
  out.verdict = EquivVerdict::kInconclusive;
  out.cex_budget_tripped = search.budget_exhausted;
  out.detail = "thread " + std::to_string(mismatch->thread) +
               ": symbolic " + mismatch->obligation + " mismatch at " +
               mismatch->cell + ", but no concrete divergence in " +
               std::to_string(search.trials) + " trials" +
               (search.note.empty() ? "" : " (" + search.note + ")") +
               "; inconclusive, not refuted";
  return out;
}

}  // namespace cac::equiv
