// The equivalence checker driver — `cacval equiv`'s engine
// (docs/equiv.md).
//
// Per-thread symbolic summaries from the same arena/environment, store
// values and guards normalized (equiv/normalize.h), path partitions
// erased into canonical guard->writes maps (equiv/align.h), maps
// compared structurally.  On mismatch the counterexample search
// (equiv/cex.h) hunts for a concrete refutation; the verdict is
//   - equivalent       when every map obligation discharges,
//   - not-equivalent   ONLY with a replay-validated counterexample,
//   - inconclusive     otherwise (normalizer incompleteness or an
//                      exhausted search budget never refutes).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/model.h"
#include "equiv/cex.h"
#include "sym/exec.h"
#include "vcgen/prove.h"

namespace cac::equiv {

struct EquivOptions {
  /// Run the term normalizer over values and guards.  Off, the checker
  /// still aligns guard partitions but only arena-level
  /// smart-constructor normalization applies.
  bool normalize = true;
  /// Search for a concrete counterexample on symbolic mismatch.  Off,
  /// a mismatch is reported inconclusive.
  bool counterexample = true;
  sym::SymExecOptions sym;  // structural path/step bounds
  CexOptions cex;           // transient search budgets
};

enum class EquivVerdict : std::uint8_t {
  kEquivalent,
  kNotEquivalent,
  kInconclusive,
};

struct EquivResult {
  EquivVerdict verdict = EquivVerdict::kInconclusive;
  std::string detail;
  std::uint32_t threads = 0;
  std::size_t paths = 0;
  std::size_t obligations = 0;
  /// Normalizer accounting.
  std::uint64_t terms_normalized = 0;
  std::uint64_t rewrites = 0;
  /// Counterexample search accounting.
  std::uint64_t cex_trials = 0;
  std::uint64_t cex_replays = 0;
  /// The search budget tripped before a verdict: the inconclusive is
  /// budget-dependent, so front ends must not cache it.
  bool cex_budget_tripped = false;
  /// First failing obligation (mismatch or engine failure).
  std::optional<vcgen::ProofResult::Failure> failure;
  /// Validated refutation (verdict == kNotEquivalent).
  std::optional<Counterexample> cex;
};

/// Check kernel `a` against kernel `b` under launch geometry `kc`.
/// `env` must be the union environment over both kernels' parameters
/// (make_union_env), built on the shared arena both executions use.
EquivResult check_equivalence(
    const ptx::Program& a, const ptx::Program& b,
    const sem::KernelConfig& kc, const sym::SymEnv& env,
    const EquivOptions& opts = {},
    const check::ModelCheckOptions::explorer_type& explorer = {});

/// Symbolic environment covering the union of both kernels' parameter
/// lists: a parameter present in both (by name) is the *same* symbolic
/// variable, which is what makes cross-program obligations structural.
sym::SymEnv make_union_env(sym::TermArena& arena, const ptx::Program& a,
                           const ptx::Program& b);

std::string to_string(EquivVerdict v);

}  // namespace cac::equiv
