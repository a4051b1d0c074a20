// Deterministic fault injection (docs/robustness.md).
//
// Every I/O choke point in the system — socket send/recv/connect/
// accept in dist/transport, file open/read/write/rename in the
// checkpoint, frame-file, spill, verdict-cache and serve-journal paths
// (support/io.h), and the serve job lifecycle — consults this seam
// before touching the kernel:
//
//   if (int err = support::fault_check("write", path)) { errno = err; ... }
//
// A *fault plan* is an ordered list of rules ("the 3rd write to *.spill
// fails ENOSPC", "every 5th send returns EPIPE", "delay recv by 50 ms"),
// parsed from the CAC_FAULT_PLAN environment variable or installed
// programmatically by tests.  Rules are matched and counted
// deterministically — the same plan against the same workload injects
// the same faults at the same sites every run — which is what lets the
// chaos drill (tools/chaos_drill.py) assert byte-identical verdicts
// under randomized fault schedules.
//
// Plan syntax (rules separated by ';', fields by ','):
//
//   CAC_FAULT_PLAN="seed=42;op=write,path=*.ckpt,nth=3,err=ENOSPC;
//                   op=send,every=5,err=EPIPE;op=recv,delay=50"
//
//   op=NAME      operation: open | read | write | rename | send | recv |
//                connect | accept (or * for any)
//   path=GLOB    site label glob ('*' wildcards; default *)
//   nth=N        fire exactly on the Nth matching call (1-based)
//   every=N      fire on every Nth matching call
//   p=F          fire with probability F (seeded, deterministic)
//   count=N      stop after N fires (default: 1 for nth, unlimited else)
//   err=E        errno to inject: ENOSPC EIO EPIPE ECONNRESET
//                ECONNREFUSED ETIMEDOUT EAGAIN or a number (default EIO)
//   delay=MS     sleep MS before returning; with no err= the call then
//                proceeds normally (pure latency injection)
//
// Zero-cost when disabled: fault_check() is a single relaxed atomic
// load before any argument is even formed into a string
// (bench_serve's BM_FaultSeamDisabled pins the bound).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cac::support {

class FaultPlanError : public std::runtime_error {
 public:
  explicit FaultPlanError(const std::string& msg)
      : std::runtime_error("fault plan: " + msg) {}
};

struct FaultRule {
  std::string op = "*";    // operation name, or "*" for any
  std::string path = "*";  // glob over the site label
  std::uint64_t nth = 0;   // fire exactly on the Nth match (1-based)
  std::uint64_t every = 0; // fire on every Nth match
  double prob = 0.0;       // fire with this probability (seeded)
  std::uint64_t max_fires = 0;  // 0 = unlimited (nth defaults to 1)
  int err = 0;             // errno to inject (0 = none: pure delay)
  std::uint64_t delay_ms = 0;

  // Runtime accounting (mutated under the plan lock).
  std::uint64_t matches = 0;
  std::uint64_t fired = 0;
};

struct FaultPlan {
  std::uint64_t seed = 1;  // drives the p= rules' deterministic RNG
  std::vector<FaultRule> rules;

  /// Parse the CAC_FAULT_PLAN syntax above.  Throws FaultPlanError on
  /// malformed specs (unknown key, bad number, unknown errno name).
  static FaultPlan parse(const std::string& spec);
};

/// Install `plan` as the process-global plan and enable the seam.
void fault_install(FaultPlan plan);
/// Parse + install.  Throws FaultPlanError.
void fault_install(const std::string& spec);
/// Disable the seam and drop the plan (counters reset).
void fault_clear();
/// Install from $CAC_FAULT_PLAN when set (malformed plans abort with a
/// message — a typo must not silently run un-faulted).  Called once by
/// tool main()s; a no-op when the variable is unset.
void fault_init_from_env();

/// Total faults injected (fired rules) since install.
std::uint64_t fault_injections();
/// True when a plan is installed.
bool fault_active();

namespace detail {
extern std::atomic<bool> g_fault_enabled;
int fault_check_slow(std::string_view op, std::string_view path);
}  // namespace detail

/// The hot-path hook: returns the errno to inject at this site (after
/// sleeping any injected delay), or 0 to proceed.  One relaxed atomic
/// load when no plan is installed.
inline int fault_check(std::string_view op, std::string_view path = {}) {
  if (!detail::g_fault_enabled.load(std::memory_order_relaxed)) return 0;
  return detail::fault_check_slow(op, path);
}

/// RAII plan install for tests: installs on construction, restores the
/// empty seam on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& spec) { fault_install(spec); }
  explicit ScopedFaultPlan(FaultPlan plan) { fault_install(std::move(plan)); }
  ~ScopedFaultPlan() { fault_clear(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace cac::support
