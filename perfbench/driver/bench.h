// Shared pieces of the benchmark driver: the job model with its
// expected verdicts, timing and statistics helpers, the span tracer,
// and the entry points of the workloads (closed_loop.cc), of the serve
// phase (serve_load.cc) and of the layer sweep (layers.cc).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "front/front.h"
#include "front/request.h"

namespace cacbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Deterministic generator for everything the seed decides
/// (splitmix64).
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

/// Linear-interpolated percentile (q in [0,1]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// The CPUs this process may run on, and confining the calling thread
/// (and the threads it starts later) to some of them.
std::vector<int> allowed_cpus();
void run_on(const std::vector<int>& cpus);

// --- jobs and their known answers ------------------------------------

/// The verdict a job must produce, taken from the corpus's own
/// documentation (never from a run of the code under test).
struct Expect {
  std::string verdict;  // every result's verdict; "" = lint, derived
  int exit_code = 0;
  /// Lint: the exact multiset of error-severity passes.
  std::vector<std::string> errors;
  /// Lint --perf: (pass, line) warnings that must be present.
  std::vector<std::pair<std::string, std::uint32_t>> warnings;
  /// Lint: the documented clean control — no findings at all.
  bool no_findings = false;
  /// Where the answer is documented.
  std::string source;
};

struct Job {
  std::string name;
  cac::front::Request req;
  Expect expect;
};

/// "" when `results` match the job's expectation, else why not.
std::string check_verdict(const Job& job,
                          const std::vector<cac::front::Result>& results);

/// The explore job set (serial exhaustive model checking; 0.1-1 s each
/// in a Release build).  `threads` is ExploreOptions::num_threads.
std::vector<Job> explore_jobs(std::uint32_t threads);

/// Every kernel the repository ships, through the verb with a known
/// answer: lint --perf on examples/buggy/** and tests/data, equiv on
/// examples/equiv/pairs.txt, small-launch check and validate on every
/// programs:: kernel.  Paths are relative to `root`.
std::vector<Job> corpus_jobs(const std::string& root);

/// A structurally fresh copy of `job` (new verdict-cache key, same
/// work, same expected verdict).
Job salted(const Job& job, std::uint32_t salt);

// --- tracing -----------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span, job id.
/// Disabled tracers record nothing.  Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index into spans(), -1 = root
    std::int64_t job = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Opens a span and returns its id (-1 when disabled).
  std::int64_t open(std::string name, std::int64_t parent, std::int64_t job);
  void close(std::int64_t id);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations (ms) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Writes the spans as one JSON document.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, std::int64_t parent = -1,
            std::int64_t job = -1)
      : t_(t), id_(t.open(std::move(name), parent, job)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

// --- workloads ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// A consistency check beyond the per-job verdicts failed (e.g.
  /// explore-par bytes differ from the serial run's).
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::string note;  // one line for the run row (sample counts etc.)
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string work_dir;  // scratch space inside the checkout
};

/// One workload (explore / explore-par / corpus).  With cfg.trace the
/// metrics are the per-layer ones.
Outcome run_workload(const RunConfig& cfg, Tracer& tracer);

/// The serve open loop of the traced run, for `seconds`: its per-layer
/// metrics (serve.*, front.cache_hit_ratio, loadgen.late_ms_p99).
Outcome run_serve(const RunConfig& cfg, double seconds, Tracer& tracer);

/// The layer sweep over the distinct jobs of a workload: times every
/// layer's public entry points from outside, inside spans, and returns
/// the per-layer metrics read back from them.
std::vector<Metric> layer_sweep(const std::vector<Job>& jobs, const RunConfig& cfg,
                                Tracer& tracer);

}  // namespace cacbench
