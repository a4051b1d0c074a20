// cacbench — the repository benchmark driver (perfbench/README.md).
//
//   cacbench --workload explore|explore-par|corpus --seed N
//            --seconds S --trace 0|1 [--root DIR] [--work-dir DIR]
//            [--revision REV]
//
// Runs one workload, checks every verdict against its known answer,
// and prints two JSON lines: a row keyed by revision, host, nproc,
// compiler, build type, workload and seed (also appended to
// WORK_DIR/rows.jsonl), then the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// With --trace 1 the metrics are the per-layer ones, and the spans are
// written to WORK_DIR/trace-<workload>-<seed>.json.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "front/json.h"

namespace {

using namespace cacbench;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += cac::front::json_escape(s);
  out += '"';
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_str(ms[i].name);
    out += ": {\"value\": ";
    out += number(ms[i].value);
    out += ", \"unit\": ";
    out += json_str(ms[i].unit);
    out += "}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "cacbench: %s\nusage: cacbench --workload "
               "explore|explore-par|corpus --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--work-dir DIR] [--revision REV]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = v != "0";
      } else if (a == "--root") {
        cfg.root = v;
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else if (a == "--revision") {
        revision = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (cfg.workload != "explore" && cfg.workload != "explore-par" &&
      cfg.workload != "corpus") {
    return usage("unknown workload");
  }
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (cfg.work_dir.empty()) cfg.work_dir = cfg.root + "/.bench_build/perfbench";
  std::filesystem::create_directories(cfg.work_dir);

  Tracer tracer(cfg.trace);
  Outcome oc;
  try {
    oc = run_workload(cfg, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : oc.errors) std::fprintf(stderr, "cacbench: %s\n", e.c_str());
  const bool correct = oc.failed == 0 && oc.errors.empty() && oc.attempted > 0;

  std::string trace_file;
  if (cfg.trace) {
    trace_file = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + ".json";
    tracer.write(trace_file);
  }

  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  const std::string build_type = CACBENCH_BUILD_TYPE;
  std::string row = "{\"row\": {\"revision\": ";
  row += json_str(revision);
  row += ", \"host\": " + json_str(host);
  row += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  row += ", \"compiler\": " + json_str(CACBENCH_COMPILER);
  row += ", \"build_type\": " + json_str(build_type);
  row += std::string(", \"release\": ") + (build_type == "Release" ? "true" : "false");
  row += ", \"workload\": " + json_str(cfg.workload);
  row += ", \"seed\": " + std::to_string(cfg.seed);
  row += ", \"seconds\": " + number(cfg.seconds);
  row += std::string(", \"trace\": ") + (cfg.trace ? "1" : "0");
  row += ", \"trace_file\": " + json_str(trace_file);
  row += ", \"note\": " + json_str(oc.note);
  row += std::string(", \"correct\": ") + (correct ? "true" : "false");
  row += ", \"attempted\": " + std::to_string(oc.attempted);
  row += ", \"failed\": " + std::to_string(oc.failed);
  row += ", \"metrics\": " + metrics_json(oc.metrics) + "}}";
  if (build_type != "Release") {
    std::fprintf(stderr, "cacbench: warning: %s build, not Release\n", build_type.c_str());
  }
  std::ofstream(cfg.work_dir + "/rows.jsonl", std::ios::app) << row << "\n";

  std::printf("%s\n", row.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(oc.attempted),
              static_cast<unsigned long long>(oc.failed),
              metrics_json(oc.metrics).c_str());
  return 0;
}
