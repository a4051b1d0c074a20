#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "front/json.h"

namespace cacbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          std::int64_t job) {
  if (!enabled_) return -1;
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, -1, parent, job});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  cac::front::JsonWriter w;
  w.begin_obj().key("spans").begin_arr();
  for (const Span& s : spans()) {
    w.begin_obj()
        .key("name").value(s.name)
        .key("start_ns").value(s.start_ns)
        .key("end_ns").value(s.end_ns)
        .key("parent").value(s.parent)
        .key("job").value(s.job)
        .end_obj();
  }
  w.end_arr().end_obj();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.take() << "\n";
  if (!out) std::fprintf(stderr, "cacbench: cannot write %s\n", path.c_str());
}

}  // namespace cacbench
