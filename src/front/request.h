// The library-ified cacval front end (docs/api.md, docs/serve.md).
//
// Everything `tools/cacval.cpp` used to do in one 678-line monolith is
// now a library surface: a request struct per subcommand, one
// structured `front::Result`, and runner functions (front/front.h)
// that never print, never exit, and never install signal handlers —
// the CLI, the test suite, the benches, and `cacval serve` all call
// the same code paths, so a verdict computed for a socket client is
// the verdict the CLI would print.
//
// Requests are value types and serialize to/from JSON
// (front/serialize in front.h): the serve protocol's request payload,
// the server's crash-safe job journal, and the verdict cache's key
// derivation all reuse the same canonical form.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sched/explore.h"
#include "sched/state_store.h"
#include "sem/launch.h"
#include "support/diag.h"
#include "sym/exec.h"

namespace cac::front {

/// The exit-code convention shared by every subcommand and pinned by
/// smoke tests (tools/CMakeLists.txt):
///   0 — proved / clean / validated / equivalent,
///   1 — violation, refutation, race, or lint finding,
///   2 — usage, parse, or input error (incl. corrupt checkpoints),
///   3 — a limit tripped before a verdict (max-states/max-depth/
///       deadline/mem-limit, or the symbolic engine's path/step
///       bounds) — the run is inconclusive, not failed.
///   4 — the server shed the request (queue full); retryable after
///       the reply's retry_after_ms.
///   5 — the server was unreachable within the client's timeout
///       (connect retries exhausted, or it died mid-stream); retryable
///       — resubmitting an identical request re-attaches to the
///       journaled job.
/// (128+signo remains the CLI's signal-interruption status.)
enum ExitCode : int {
  kExitProved = 0,
  kExitFinding = 1,
  kExitUsage = 2,
  kExitLimit = 3,
  kExitBusy = 4,
  kExitUnreachable = 5,
};

/// `cacval check` / `cacval validate` — exhaustive model checking of
/// one kernel under one launch, optionally wrapped in the composite
/// validation pipeline (profile + races + transparency + lane order).
struct CheckRequest {
  std::string file;    // display name carried into diagnostics
  std::string source;  // the PTX text itself (content-addressed)
  std::string kernel;  // empty = the module's first kernel
  sem::LaunchSpec launch;
  /// Structural bounds and transient budgets both ride here, exactly
  /// as in direct sched::explore use.  Transient fields (threads,
  /// deadlines, store tiering, checkpoint paths, hooks) never affect
  /// the verdict and are excluded from the cache key.
  sched::ExploreOptions explore;
  /// Postcondition: Global words that must hold in every final state.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expects;
  bool require_independence = false;
  std::uint64_t exact_steps = 0;
  /// Prove access-site independence statically under this launch and
  /// feed the pcs to the explorer's reduction (implies POR).
  bool por_oracle = false;
  bool insert_syncs = true;
  /// Run the full validate pipeline instead of prove_total alone.
  bool full_validate = false;
  bool profile = false;  // validate: collect the instruction profile
};

/// `cacval lint` — static analysis of one kernel or the whole module.
struct LintRequest {
  std::string file;
  std::string source;
  std::string kernel;  // empty = every kernel in the module
  bool races = true;
  bool insert_syncs = true;
  /// Run the performance passes (uncoalesced-global /
  /// shared-bank-conflict / divergent-region) and fold their findings
  /// in as exit-code-neutral warnings.  Structural: participates in
  /// the verdict-cache key.
  bool perf = false;
};

/// `cacval equiv` — symbolic equivalence of two kernels
/// (docs/equiv.md).
struct EquivRequest {
  std::string file;
  std::string source;
  std::string file_b;
  std::string source_b;
  std::string kernel;    // empty = first kernel of module A
  std::string kernel_b;  // empty = same resolution in module B
  sem::LaunchSpec launch;
  bool insert_syncs = true;
  sym::SymExecOptions sym;  // path/step bounds for the symbolic engine
  /// Run the term rewrite engine.  Structural.
  bool normalize = true;
  /// Search for a replay-validated counterexample on symbolic
  /// mismatch.  Structural (it decides not-equivalent vs
  /// inconclusive).
  bool counterexample = true;
  /// Counterexample search budget (input valuations examined).
  /// Transient: excluded from the cache key; a budget-exhausted
  /// inconclusive is never cached.
  std::uint64_t cex_inputs = 256;
};

/// Any request, as the serve protocol and the job journal carry it.
using Request = std::variant<CheckRequest, LintRequest, EquivRequest>;

/// The subcommand name of a request ("check" / "validate" / "lint" /
/// "equiv") — validate is a CheckRequest with full_validate set.
std::string command_of(const Request& req);

/// One finding in the unified diagnostics shape shared by every JSON
/// surface (lint findings, model-checker violations, race reports):
/// the same field names, severities, and source-location shape
/// everywhere.
struct Diagnostic {
  /// Finding class: a lint pass name ("race-candidate", ...) or a
  /// violation kind ("stuck", "fault", "cycle", "depth-exceeded").
  std::string pass;
  std::string severity = "error";  // "warning" | "error"
  std::uint32_t pc = 0;
  SourceLoc loc;  // {0,0} when no source position applies
  std::string message;
  /// Violations: length of the schedule reaching the violating state.
  std::uint64_t steps = 0;
  /// Perf findings: structured cost (transactions_per_warp /
  /// conflict_degree / divergent_insns ...), in emission order.  Empty
  /// for correctness findings; rendered as a JSON object when present.
  std::vector<std::pair<std::string, std::uint64_t>> cost;
};

struct ResultStats {
  /// Exploration block (check/validate).
  bool have_explore = false;
  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;
  bool exhaustive = false;
  std::string limit_hit = "none";
  std::uint64_t min_steps = 0;
  std::uint64_t max_steps = 0;
  /// The configured bounds, echoed for the "limit tripped" line.
  std::uint64_t max_states_limit = 0;
  std::uint64_t max_depth_limit = 0;
  /// Store-tier accounting.  Text rendering only: resident/spilled
  /// bytes depend on allocation timing and resume history, so they are
  /// deliberately excluded from the byte-identical JSON schema.
  sched::StateStore::Stats store;
  /// Checkpoint writes that failed and were retried-next-cadence
  /// (ENOSPC/EIO).  Text rendering + serve health counters only — a
  /// machine-dependent fault count has no place in the byte-identical
  /// JSON schema.
  std::uint64_t checkpoint_write_failures = 0;
  /// Symbolic block (equiv).
  bool have_sym = false;
  std::uint64_t threads = 0;
  std::uint64_t paths = 0;
  std::uint64_t obligations = 0;
  /// Normalizer + counterexample-search accounting (equiv).
  std::uint64_t rewrites = 0;
  std::uint64_t cex_trials = 0;
  /// The cex search budget tripped before a verdict — the inconclusive
  /// depends on a transient budget, so the verdict cache skips it.
  /// Not serialized (transient by definition).
  bool cex_budget_tripped = false;
  /// POR oracle (check/validate with por_oracle).
  bool por_oracle = false;
  std::uint64_t por_oracle_pcs = 0;
};

/// Equiv: the first failing proof obligation, structured — why the two
/// kernels' symbolic summaries differ even when no counterexample was
/// found (the ProofResult-reporting satellite of docs/equiv.md).
struct EquivFailure {
  bool present = false;
  std::uint32_t thread = 0;
  std::uint64_t path_index = 0;
  std::string obligation;  // "engine"|"path-count"|...|"guard"|"value"
  std::string cell;        // disputed cell, when one applies
  std::string lhs, rhs;    // normalized renderings of the two sides
};

/// Equiv: a replay-validated concrete refutation — the input valuation
/// plus the first diverging store, read back from real explorer runs
/// of both kernels.
struct EquivCex {
  bool present = false;
  std::vector<std::pair<std::string, std::uint64_t>> inputs;
  std::string region;
  std::uint64_t offset = 0;
  std::uint64_t addr = 0;
  std::uint32_t value_a = 0;
  std::uint32_t value_b = 0;
  bool replay_validated = false;
};

/// The structured outcome of any front-end run.  `to_json` (front.h)
/// renders it into the unified schema; the CLI renders it as the
/// classic text output; serve caches and ships it.
struct Result {
  std::string command;
  std::string file;
  std::string kernel;
  std::string kernel_b;  // equiv only: the right-hand kernel
  /// "proved" / "refuted" / "unknown" (check); "validated" /
  /// "not-validated" (validate); "clean" / "findings" (lint);
  /// "equivalent" / "not-equivalent" / "inconclusive" (equiv).
  std::string verdict;
  std::string detail;
  int exit_code = kExitProved;
  bool limit_tripped = false;
  bool checkpointed = false;
  std::string checkpoint_path;
  std::vector<Diagnostic> findings;
  /// Refutations: the replayable counterexample schedule, rendered.
  std::vector<std::string> counterexample;
  /// Equiv only: structured first failure / validated counterexample.
  EquivFailure equiv_failure;
  EquivCex equiv_cex;
  ResultStats stats;
  /// The full human-readable report (validate's composite table).
  /// CLI-only; deliberately not part of the JSON schema.
  std::string text;
};

}  // namespace cac::front
