// The serve phase of the traced run: an in-process front::Server on an
// AF_UNIX socket under an open loop — a fixed 1000 requests/s from 4
// client connections, each request timed from when it was due.  A
// quarter of the requests are cold (freshly salted check/lint/equiv
// requests, written to the verdict cache and the job journal under a
// temporary state directory); the rest resubmit earlier requests with
// skewed popularity, so they read the cache or join a job still in
// flight.  Its figures are per-layer metrics: on a shared host these
// sub-millisecond round trips swing too far from run to run to gate
// (README.md, "Why serve is not a workload").
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "front/serve.h"

namespace cacbench {

namespace front = cac::front;

namespace {

constexpr double kRate = 1000.0;      // requests per second
constexpr unsigned kClients = 4;      // connections
constexpr std::size_t kGroup = 4;     // one cold request per group
constexpr double kLimitMs = 10.0;     // within_limit_ratio threshold

struct Schedule {
  std::vector<Job> cold;                 // one per distinct cold request
  std::vector<std::string> payload;      // per cold request
  std::vector<double> due_ms;            // per request
  std::vector<std::size_t> target;       // per request: index into cold
  std::vector<bool> is_cold;             // per request
};

/// The request stream the seed decides: arrival times, which requests
/// are cold and from which template, their salts, and which earlier
/// request each resubmission repeats.
Schedule make_schedule(const std::vector<Job>& templates, std::uint64_t seed,
                       double seconds, std::uint32_t salt_base) {
  Schedule s;
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(kRate * seconds);
  std::size_t cold_slot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // A fixed rate: one request per interval, at a seeded offset in its
    // first fifth.  One request in each group of four is cold, at a
    // seeded position, so cold work never bunches up by chance.
    s.due_ms.push_back((static_cast<double>(i) + 0.2 * rng.uniform()) * 1000.0 / kRate);
    if (i % kGroup == 0) cold_slot = i == 0 ? 0 : i + rng.below(kGroup);
    const bool cold = i == cold_slot;
    if (cold) {
      const Job& tpl = templates[rng.below(templates.size())];
      s.cold.push_back(
          salted(tpl, salt_base + static_cast<std::uint32_t>(s.cold.size())));
      s.payload.push_back(front::to_json(s.cold.back().req));
      s.target.push_back(s.cold.size() - 1);
    } else {
      // Popularity skewed toward recent requests: some repeats arrive
      // while their job is still in flight (dedup), the long tail
      // reads old cache entries.
      const double u = rng.uniform();
      const auto back = static_cast<std::size_t>(
          static_cast<double>(s.cold.size()) * u * u);
      s.target.push_back(s.cold.size() - 1 - std::min(back, s.cold.size() - 1));
    }
    s.is_cold.push_back(cold);
  }
  return s;
}

/// Converts a served results array back to the fields check_verdict
/// reads.
std::vector<front::Result> results_from_json(const front::JsonValue& arr) {
  std::vector<front::Result> out;
  if (!arr.is_arr()) return out;
  for (const front::JsonValue& o : arr.arr) {
    front::Result r;
    r.verdict = o.str_or("verdict", "");
    r.exit_code = static_cast<int>(o.u64_or("exit_code", 99));
    r.limit_tripped = o.bool_or("limit_tripped", true);
    if (const front::JsonValue* f = o.get("findings"); f != nullptr && f->is_arr()) {
      for (const front::JsonValue& d : f->arr) {
        front::Diagnostic diag;
        diag.pass = d.str_or("pass", "");
        diag.severity = d.str_or("severity", "");
        diag.loc.line = static_cast<std::uint32_t>(d.u64_or("line", 0));
        r.findings.push_back(diag);
      }
    }
    if (const front::JsonValue* c = o.get("cex"); c != nullptr && c->is_obj()) {
      r.equiv_cex.present = true;
      r.equiv_cex.replay_validated = c->bool_or("replay_validated", false);
    }
    out.push_back(std::move(r));
  }
  return out;
}

struct Reply {
  double latency_ms = 0;  // completion - due
  double rtt_ms = 0;      // completion - send
  double late_ms = 0;     // send - due
  bool cached = false;
  std::string status;
  std::string results;    // the "results" array, verbatim
};

/// One in-process daemon with its state directory and client
/// connections.
struct Service {
  std::string dir;
  std::unique_ptr<front::Server> server;
  std::vector<front::Client> clients;

  explicit Service(const std::string& work_dir) {
    dir = work_dir + "/serve-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    front::ServeOptions opts;
    opts.unix_path = dir + "/sock";
    // Verdicts go to the on-disk cache and jobs to the journal, as in
    // a daemon started with --state-dir.
    opts.state_dir = dir + "/state";
    opts.workers = 2;
    opts.queue_limit = 4096;
    // Room for every distinct request of a run: resubmissions are cache
    // reads, not LRU misses that re-run their job.
    opts.cache_entries = 1u << 16;
    server = std::make_unique<front::Server>(opts);
    server->start();
    for (unsigned c = 0; c < kClients; ++c) {
      clients.push_back(front::Client::connect(dir + "/sock"));
    }
  }
  ~Service() {
    clients.clear();
    server->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
};

/// Plays the schedule against the service from kClients threads; a
/// request whose connections are all busy goes out late, and its wait
/// counts in its latency.
std::vector<Reply> play(Service& svc, const Schedule& s, Tracer& tracer) {
  std::vector<Reply> replies(s.due_ms.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Wake on time: no timer slack, and spin out the last 50 us, so
      // the generator's own lateness stays out of the latencies.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      try {
        for (std::size_t i = next++; i < s.due_ms.size(); i = next++) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(s.due_ms[i]));
          std::this_thread::sleep_until(due - std::chrono::microseconds(50));
          while (Clock::now() < due) {
          }
          SpanScope span(tracer, "serve.request", -1, static_cast<std::int64_t>(i));
          const Clock::time_point sent = Clock::now();
          front::Client::Reply r;
          {
            SpanScope call(tracer, "client.call", span.id(), static_cast<std::int64_t>(i));
            r = svc.clients[c].call(s.payload[s.target[i]]);
          }
          const Clock::time_point done = Clock::now();
          Reply& out = replies[i];
          out.latency_ms = ms_between(due, done);
          out.rtt_ms = ms_between(sent, done);
          out.late_ms = std::max(0.0, ms_between(due, sent));
          out.status = r.doc.str_or("status", "");
          out.cached = r.doc.bool_or("cached", false);
          const std::size_t at = r.raw.find("\"results\":");
          if (at != std::string::npos) {
            out.results = r.raw.substr(at + 10, r.raw.size() - at - 11);
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) {
    if (!f.empty()) std::fprintf(stderr, "cacbench: client: %s\n", f.c_str());
  }
  return replies;
}

/// Known-answer check of every reply; resubmissions must also be
/// byte-identical to the first reply for the same request.
std::uint64_t check_replies(const Schedule& s, const std::vector<Reply>& replies,
                            std::vector<bool>& ok) {
  std::vector<const std::string*> first(s.cold.size(), nullptr);
  std::uint64_t failed = 0;
  ok.assign(replies.size(), false);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    const Job& job = s.cold[s.target[i]];
    std::string why;
    if (r.status != "ok") {
      why = "status '" + r.status + "'";
    } else if (const std::string*& f = first[s.target[i]]; f == nullptr) {
      f = &r.results;
      try {
        why = check_verdict(job, results_from_json(front::json_parse(r.results)));
      } catch (const std::exception& e) {
        why = std::string("unreadable results: ") + e.what();
      }
    } else if (*f != r.results) {
      why = "resubmission bytes differ";
    }
    ok[i] = why.empty();
    if (!why.empty() && ++failed <= 5) {
      std::fprintf(stderr, "cacbench: %s: %s (known answer: %s)\n", job.name.c_str(),
                   why.c_str(), job.expect.source.c_str());
    }
  }
  return failed;
}

std::vector<Job> templates(const RunConfig& cfg) {
  // An agent's request mix, where the explorer does almost no work:
  // every lint and equiv job of the corpus and the model checks whose
  // small launch explores a few dozen states.  The other checks (3-80
  // ms each) and the composite validate pipeline hold a connection for
  // many arrival intervals; 250 cold requests/s of them would measure
  // the explorer and a growing backlog rather than the service.
  const std::vector<std::string> checks = {
      "check:warp_reduce_shfl", "check:barrier_divergence", "check:race_store",
      "check:divergent_exit", "check:straightline"};
  std::vector<Job> out;
  for (Job& j : corpus_jobs(cfg.root)) {
    if (std::holds_alternative<front::CheckRequest>(j.req) &&
        std::find(checks.begin(), checks.end(), j.name) == checks.end()) {
      continue;
    }
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace

Outcome run_serve(const RunConfig& cfg, double seconds, Tracer& tracer) {
  Outcome oc;
  const std::vector<Job> tpl = templates(cfg);
  const Schedule sched = make_schedule(tpl, cfg.seed, seconds, 1);
  Service svc(cfg.work_dir);
  const std::vector<Reply> replies = play(svc, sched, tracer);
  std::vector<bool> ok;
  oc.failed = check_replies(sched, replies, ok);
  oc.attempted = replies.size();
  const front::ServeStats st = svc.server->stats();

  std::vector<double> all, cold, cold_rtt, cached, late;
  double within = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    all.push_back(r.latency_ms);
    late.push_back(r.late_ms);
    if (sched.is_cold[i]) {
      cold.push_back(r.latency_ms);
      cold_rtt.push_back(r.rtt_ms);
    } else if (r.cached) {
      cached.push_back(r.latency_ms * 1000.0);
    }
    if (ok[i] && r.latency_ms <= kLimitMs) ++within;
  }
  // serve.overhead_us: cold round trip p50 minus front::run p50 over
  // the same requests (the first 200 cold ones).
  std::vector<double> run_ms;
  for (std::size_t k = 0; k < sched.cold.size() && k < 200; ++k) {
    const Clock::time_point t0 = Clock::now();
    (void)front::run(sched.cold[k].req);
    run_ms.push_back(ms_between(t0, Clock::now()));
  }
  const double lookups = static_cast<double>(st.cache.hits + st.cache.misses);
  oc.metrics = {
      {"serve.rtt_ms_p50", percentile(all, 0.5), "ms"},
      {"serve.rtt_ms_p99", percentile(all, 0.99), "ms"},
      {"serve.cold_rtt_ms_p50", percentile(cold, 0.5), "ms"},
      {"serve.cold_rtt_ms_p99", percentile(cold, 0.99), "ms"},
      {"serve.cached_rtt_us_p50", percentile(cached, 0.5), "us"},
      {"serve.cached_rtt_us_p99", percentile(cached, 0.99), "us"},
      {"serve.within_limit_ratio", within / static_cast<double>(replies.size()), "ratio"},
      {"serve.jobs_run", static_cast<double>(st.jobs_run), "count"},
      {"serve.jobs_deduped", static_cast<double>(st.jobs_deduped), "count"},
      {"serve.rejected", static_cast<double>(st.rejected), "count"},
      {"serve.shed_requests", static_cast<double>(st.shed_requests), "count"},
      {"serve.overhead_us", (median(cold_rtt) - median(run_ms)) * 1000.0, "us"},
      {"front.cache_hit_ratio",
       lookups == 0 ? 0 : static_cast<double>(st.cache.hits) / lookups, "ratio"},
      {"loadgen.late_ms_p99", percentile(late, 0.99), "ms"},
  };
  return oc;
}

}  // namespace cacbench
