// The workloads — explore, explore-par and corpus.  One client keeps
// one job in flight: it runs the job through front::run, checks the
// verdict against its known answer, and goes on with the next job of
// its seeded round until the time is up.
//
// Each job runs many times in a run, and its time is the fastest of
// them.  The host this benchmark was tuned on changes single-thread
// speed by up to 1.5x over tens of seconds, independently per vCPU,
// because of co-tenants.  That interference only ever adds time, so a
// job's fastest run is the figure least disturbed by it; and a serial
// client moves to the next CPU before each round, so that one slow
// vCPU cannot hold a whole run (README.md, "Why the fastest run").
#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <thread>

#include "bench.h"
#include "front/cache.h"

namespace cacbench {

namespace front = cac::front;

namespace {

std::vector<Job> make_jobs(const RunConfig& cfg) {
  if (cfg.workload == "corpus") return corpus_jobs(cfg.root);
  const std::uint32_t par = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  return explore_jobs(cfg.workload == "explore-par" ? par : 0);
}

struct LoopResult {
  /// Every verdict's latency, by job.
  std::vector<std::vector<double>> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Each job's fastest verdict.
  [[nodiscard]] std::vector<double> fastest() const {
    std::vector<double> out;
    for (const auto& v : latency_ms) out.push_back(*std::min_element(v.begin(), v.end()));
    return out;
  }
};

/// Whole rounds of the job set, each in a seeded order and each after
/// a call of `between_rounds`, until `seconds` have passed.  Every
/// result is checked against its job's known answer, and its bytes
/// against the first result of the same job (`bytes`).
LoopResult closed_loop(const std::vector<Job>& jobs, std::uint64_t seed, double seconds,
                       Tracer& tracer, std::vector<std::string>& bytes,
                       std::vector<std::string>& errors,
                       const std::function<void()>& between_rounds) {
  LoopResult out;
  out.latency_ms.resize(jobs.size());
  Rng rng(seed);
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  const Clock::time_point start = Clock::now();
  std::int64_t job_id = 0;
  do {
    between_rounds();
    rng.shuffle(order);
    for (std::size_t idx : order) {
      const Job& job = jobs[idx];
      std::string why;
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope job_span(tracer, "job", -1, job_id);
        try {
          std::vector<front::Result> results;
          {
            SpanScope s(tracer, "front.run", job_span.id(), job_id);
            results = front::run(job.req);
          }
          why = check_verdict(job, results);
          const std::string json = front::to_json(results);
          if (bytes[idx].empty()) {
            bytes[idx] = json;
          } else if (bytes[idx] != json) {
            errors.push_back(job.name + ": result bytes differ between runs");
          }
        } catch (const std::exception& e) {
          why = std::string("threw: ") + e.what();
        }
      }
      out.latency_ms[idx].push_back(ms_between(t0, Clock::now()));
      ++out.attempted;
      if (!why.empty() && ++out.failed <= 5) {
        std::fprintf(stderr, "cacbench: %s: %s (known answer: %s)\n", job.name.c_str(),
                     why.c_str(), job.expect.source.c_str());
      }
      ++job_id;
    }
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  return out;
}

}  // namespace

Outcome run_workload(const RunConfig& cfg, Tracer& tracer) {
  Outcome oc;

  // Set-up: build the job table from the corpus files and pre-flight
  // every request through the verdict-cache key (parse + lower), the
  // way a front end admits a request.  Eleven times before the loop and
  // once more before each of its rounds, so that the figure samples the
  // whole run rather than one moment of the host; the median is
  // setup_s.
  std::vector<double> setup_s;
  std::vector<Job> jobs;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<Job> fresh = make_jobs(cfg);
    for (const Job& j : fresh) (void)front::cache_key(j.req);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (jobs.empty()) jobs = std::move(fresh);
  };
  for (int rep = 0; rep < 11; ++rep) set_up();
  const std::vector<int> cpus = allowed_cpus();
  std::size_t turn = 0;
  const auto between_rounds = [&] {
    if (cfg.workload != "explore-par" && !cpus.empty()) run_on({cpus[turn++ % cpus.size()]});
    set_up();
  };

  std::vector<std::string> bytes(jobs.size());
  Tracer off(false);
  LoopResult loop;
  if (!cfg.trace) {
    loop = closed_loop(jobs, cfg.seed, cfg.seconds, off, bytes, oc.errors, between_rounds);
  } else {
    // The loop untraced, then traced (the difference is the tracing
    // overhead), then the serve open loop, then the layer sweep.
    const LoopResult plain =
        closed_loop(jobs, cfg.seed, cfg.seconds * 0.35, off, bytes, oc.errors, between_rounds);
    loop = closed_loop(jobs, cfg.seed + 1, cfg.seconds * 0.35, tracer, bytes, oc.errors,
                       between_rounds);
    run_on(cpus);
    Outcome serve = run_serve(cfg, cfg.seconds * 0.3, tracer);
    oc.attempted = plain.attempted + serve.attempted;
    oc.failed = plain.failed + serve.failed;
    oc.errors.insert(oc.errors.end(), serve.errors.begin(), serve.errors.end());

    oc.metrics = layer_sweep(jobs, cfg, tracer);
    oc.metrics.insert(oc.metrics.end(), serve.metrics.begin(), serve.metrics.end());
    const std::vector<double> traced = loop.fastest();
    const std::vector<double> untraced = plain.fastest();
    oc.metrics.push_back(
        {"trace.overhead_pct",
         (std::accumulate(traced.begin(), traced.end(), 0.0) /
              std::accumulate(untraced.begin(), untraced.end(), 0.0) -
          1) * 100,
         "%"});
    oc.metrics.push_back({"trace.spans", static_cast<double>(tracer.spans().size()), "count"});
  }
  oc.attempted += loop.attempted;
  oc.failed += loop.failed;
  run_on(cpus);

  if (cfg.workload == "explore-par") {
    // The parallel engine must reproduce the serial verdict bytes.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Job serial = jobs[i];
      std::get<front::CheckRequest>(serial.req).explore.num_threads = 0;
      if (front::to_json(front::run(serial.req)) != bytes[i]) {
        oc.errors.push_back(jobs[i].name + ": parallel bytes differ from serial");
      }
    }
  }
  if (cfg.trace) return oc;

  const std::vector<double> fastest = loop.fastest();
  const double n = static_cast<double>(loop.attempted);
  oc.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"ok_ratio", (n - static_cast<double>(loop.failed)) / n, "ratio"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"verdicts_per_s",
       static_cast<double>(jobs.size()) * 1000.0 /
           std::accumulate(fastest.begin(), fastest.end(), 0.0),
       "1/s"},
      {"verdict_ms_p50", percentile(fastest, 0.5), "ms"},
      {"verdict_ms_p90", percentile(fastest, 0.9), "ms"},
  };
  std::size_t fewest = loop.attempted;
  for (const auto& v : loop.latency_ms) fewest = std::min(fewest, v.size());
  oc.note = std::to_string(jobs.size()) + " distinct jobs, " +
            std::to_string(loop.attempted) + " verdicts, each job at least " +
            std::to_string(fewest) + " times";
  return oc;
}

}  // namespace cacbench
