// The benchmark's jobs and their known answers.
//
// Every expected verdict below is copied from the corpus's own
// documentation, cited per job:
//   * examples/equiv/pairs.txt — the first four pairs PROVED, the last
//     two REFUTED;
//   * examples/buggy/README.md — one pinned finding per seeded-defect
//     file (global_race: three racing pairs); the perf/ files exit 0
//     with the pinned warning lines;
//   * src/programs/corpus.h — what each programs:: kernel computes, or
//     which bug it carries;
//   * tests/data/*.ptx — the kernel's own header comment.
// Postconditions are computed here, on the host, from those
// descriptions.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "programs/corpus.h"
#include "ptx/emit.h"

namespace cacbench {

namespace front = cac::front;
using cac::sem::LaunchSpec;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

LaunchSpec launch(std::uint32_t grid, std::uint32_t block,
                  std::uint32_t warp, std::uint64_t global_bytes) {
  LaunchSpec l;
  l.grid = {grid, 1, 1};
  l.block = {block, 1, 1};
  l.warp_size = warp;
  l.global_bytes = global_bytes;
  return l;
}

/// Packs bytes into the little-endian Global words the launch and the
/// postcondition speak in.
std::vector<std::pair<std::uint64_t, std::uint32_t>> words(
    std::uint64_t base, const std::string& bytes) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (std::size_t i = 0; i < bytes.size(); i += 4) {
    std::uint32_t w = 0;
    for (std::size_t k = 0; k < 4 && i + k < bytes.size(); ++k) {
      w |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i + k]))
           << (8 * k);
    }
    out.emplace_back(base + i, w);
  }
  return out;
}

struct Kernel {
  std::string name;    // job name stem
  std::string source;  // PTX text
  LaunchSpec launch;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expects;
  bool proved = true;  // documented well-formed (else a documented bug)
  bool require_independence = false;
  bool insert_syncs = true;
  bool atomic = false;  // uses atom.*
};

front::CheckRequest check_request(const Kernel& k, bool validate) {
  front::CheckRequest r;
  r.file = k.name + ".ptx";
  r.source = k.source;
  r.launch = k.launch;
  r.expects = k.expects;
  r.require_independence = k.require_independence;
  r.insert_syncs = k.insert_syncs;
  r.full_validate = validate;
  return r;
}

/// The check (or validate) job of a programs:: kernel; its answer is
/// documented in src/programs/corpus.h.
Job check_job(const Kernel& k, bool validate) {
  Job j;
  j.name = std::string(validate ? "validate:" : "check:") + k.name;
  j.req = check_request(k, validate);
  if (validate) {
    j.expect.verdict = k.proved ? "validated" : "not-validated";
  } else {
    j.expect.verdict = k.proved ? "proved" : "refuted";
  }
  j.expect.exit_code = k.proved ? front::kExitProved : front::kExitFinding;
  j.expect.source = "src/programs/corpus.h";
  return j;
}

// --- programs:: kernels (src/programs/corpus.h) -----------------------

/// vector sum: C[i] = A[i] + B[i] for i < size.
Kernel vector_add(std::uint32_t n, std::uint32_t warp) {
  Kernel k{"vector_add", cac::programs::vector_add_ptx(),
           launch(1, n, warp, 0x400), {}};
  k.launch.params = {{"arr_A", 0x100}, {"arr_B", 0x200}, {"arr_C", 0x300},
                     {"size", n}};
  for (std::uint32_t i = 0; i < n; ++i) {
    k.launch.inits.emplace_back(0x100 + 4 * i, i + 1);
    k.launch.inits.emplace_back(0x200 + 4 * i, 10 * (i + 1));
    k.expects.emplace_back(0x300 + 4 * i, 11 * (i + 1));
  }
  return k;
}

/// Keystream XOR: C[i] = A[i] xor B[i] for i < size.
Kernel xor_cipher() {
  Kernel k{"xor_cipher", cac::programs::xor_cipher_ptx(),
           launch(1, 4, 2, 0x400), {}};
  k.launch.params = {{"arr_A", 0x100}, {"arr_B", 0x200}, {"arr_C", 0x300},
                     {"size", 4}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t a = 0x5a5a0000u + 0x1111u * i;
    const std::uint32_t b = 0x0f0f00ffu * (i + 1);
    k.launch.inits.emplace_back(0x100 + 4 * i, a);
    k.launch.inits.emplace_back(0x200 + 4 * i, b);
    k.expects.emplace_back(0x300 + 4 * i, a ^ b);
  }
  return k;
}

/// Signature scan: out[i] = 1 iff pattern occurs at data[i..i+plen).
Kernel scan_signature() {
  const std::string data = "abcabcab", pat = "abc";
  Kernel k{"scan_signature", cac::programs::scan_signature_ptx(),
           launch(1, 8, 4, 0x100), {}};
  k.launch.params = {{"data", 0},     {"pattern", 64}, {"out", 128},
                     {"dlen", 8},     {"plen", 3}};
  for (const auto& w : words(0, data)) k.launch.inits.push_back(w);
  for (const auto& w : words(64, pat)) k.launch.inits.push_back(w);
  std::string flags(8, '\0');
  for (std::size_t i = 0; i + pat.size() <= data.size(); ++i) {
    flags[i] = data.compare(i, pat.size(), pat) == 0 ? 1 : 0;
  }
  for (const auto& w : words(128, std::string(8, '\0'))) k.launch.inits.push_back(w);
  k.expects = words(128, flags);
  return k;
}

/// Block tree reduction through Shared: out[0] = sum(A[0..ntid)).
Kernel reduce(std::string source, std::string name, std::uint32_t n,
              std::uint32_t warp, bool proved) {
  Kernel k{std::move(name), std::move(source), launch(1, n, warp, 0x100), {}};
  k.launch.params = {{"arr_A", 0}, {"out", 0x80}};
  std::uint32_t sum = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    k.launch.inits.emplace_back(4 * i, i * i + 1);
    sum += i * i + 1;
  }
  k.expects = {{0x80, sum}};
  k.proved = proved;
  return k;
}

/// Grid-wide sum via atom.add: out = sum(A[0..size)).
Kernel atomic_sum() {
  Kernel k{"atomic_sum", cac::programs::atomic_sum_ptx(),
           launch(2, 4, 4, 0x80), {}};
  k.launch.params = {{"arr_A", 0}, {"out", 64}, {"size", 8}};
  for (std::uint32_t i = 0; i < 8; ++i) k.launch.inits.emplace_back(4 * i, i + 1);
  k.launch.inits.emplace_back(64, 0);
  k.expects = {{64, 36}};
  k.atomic = true;
  return k;
}

/// Byte histogram: hist[data[i] & mask] counts, via contended atom.add.
Kernel histogram(const std::string& data, std::uint32_t grid,
                 std::uint32_t block, std::uint32_t warp) {
  constexpr std::uint32_t kBins = 4;
  Kernel k{"histogram", cac::programs::histogram_ptx(),
           launch(grid, block, warp, 0x200), {}};
  k.launch.params = {{"data", 0}, {"hist", 0x100},
                     {"size", data.size()}, {"mask", kBins - 1}};
  for (const auto& w : words(0, data)) k.launch.inits.push_back(w);
  std::uint32_t bins[kBins] = {};
  for (char c : data) ++bins[static_cast<unsigned char>(c) & (kBins - 1)];
  for (std::uint32_t b = 0; b < kBins; ++b) {
    k.launch.inits.emplace_back(0x100 + 4 * b, 0);
    k.expects.emplace_back(0x100 + 4 * b, bins[b]);
  }
  k.atomic = true;
  return k;
}

/// SAXPY: Y[i] = a*X[i] + Y[i].
Kernel saxpy() {
  Kernel k{"saxpy", cac::programs::saxpy_ptx(), launch(1, 4, 2, 0x400), {}};
  k.launch.params = {{"arr_X", 0x100}, {"arr_Y", 0x200}, {"a", 3}, {"size", 4}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    k.launch.inits.emplace_back(0x100 + 4 * i, i + 2);
    k.launch.inits.emplace_back(0x200 + 4 * i, 100 * i);
    k.expects.emplace_back(0x200 + 4 * i, 3 * (i + 2) + 100 * i);
  }
  return k;
}

/// Vectorized pair copy: out[2i..2i+1] = in[2i..2i+1].
Kernel copy_v2() {
  Kernel k{"copy_v2", cac::programs::copy_v2_ptx(), launch(1, 4, 2, 0x400), {}};
  k.launch.params = {{"in", 0x100}, {"out", 0x200}, {"npairs", 4}};
  for (std::uint32_t i = 0; i < 8; ++i) {
    k.launch.inits.emplace_back(0x100 + 4 * i, 0xc0de0000u + i);
    k.expects.emplace_back(0x200 + 4 * i, 0xc0de0000u + i);
  }
  return k;
}

/// Butterfly shuffle reduction, one 8-lane warp: out[0] = sum(A[0..8)).
Kernel warp_reduce() {
  Kernel k{"warp_reduce_shfl", cac::programs::warp_reduce_shfl_ptx(),
           launch(1, 8, 8, 0x80), {}};
  k.launch.params = {{"arr_A", 0}, {"out", 64}};
  std::uint32_t sum = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    k.launch.inits.emplace_back(4 * i, 7 * i + 3);
    sum += 7 * i + 3;
  }
  k.expects = {{64, sum}};
  return k;
}

/// Hillis-Steele inclusive scan: out[i] = A[0] + ... + A[i].
Kernel scan_prefix() {
  Kernel k{"scan_prefix", cac::programs::scan_prefix_ptx(),
           launch(1, 8, 4, 0x100), {}};
  k.launch.params = {{"arr_A", 0}, {"out", 0x80}};
  std::uint32_t acc = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    k.launch.inits.emplace_back(4 * i, i + 1);
    acc += i + 1;
    k.expects.emplace_back(0x80 + 4 * i, acc);
  }
  return k;
}

/// Broken: thread 0 waits at a barrier its warp siblings never reach.
Kernel barrier_divergence() {
  Kernel k{"barrier_divergence", cac::programs::barrier_divergence_ptx(),
           launch(1, 2, 2, 0x40), {}};
  k.proved = false;
  return k;
}

/// Broken: every thread stores its tid to out[0]; the final value
/// depends on the order, so schedule independence fails.
Kernel race_store() {
  Kernel k{"race_store", cac::programs::race_store_ptx(),
           launch(1, 2, 1, 0x40), {}};
  k.launch.params = {{"out", 0}};
  k.require_independence = true;
  k.proved = false;
  return k;
}

/// Broken (hand-built): a divergent branch with no reconvergence Sync
/// before Exit — the warp gets stuck.  Lowered without inserted Syncs,
/// which would otherwise repair it.
Kernel divergent_exit() {
  cac::ptx::EmitOptions eo;
  eo.emit_syncs = false;
  Kernel k{"divergent_exit",
           cac::ptx::emit_ptx(cac::programs::divergent_exit_program(), eo),
           launch(1, 2, 2, 0x40), {}};
  k.insert_syncs = false;
  k.proved = false;
  return k;
}

/// Hand-built straight-line arithmetic: terminates on every schedule.
Kernel straightline() {
  return Kernel{"straightline",
                cac::ptx::emit_ptx(cac::programs::straightline_program(8)),
                launch(1, 4, 2, 0x40), {}};
}

std::vector<Kernel> program_kernels() {
  return {
      vector_add(4, 2),
      xor_cipher(),
      scan_signature(),
      reduce(cac::programs::reduce_shared_ptx(), "reduce_shared", 8, 4, true),
      atomic_sum(),
      histogram("abca", 1, 4, 2),
      saxpy(),
      copy_v2(),
      warp_reduce(),
      scan_prefix(),
      reduce(cac::programs::reduce_shared_nobar_ptx(), "reduce_shared_nobar",
             8, 4, false),
      barrier_divergence(),
      race_store(),
      divergent_exit(),
      straightline(),
  };
}

// --- lint corpus (examples/buggy/README.md, tests/data) ----------------

struct LintCase {
  std::string path;
  Expect expect;
};

std::vector<LintCase> lint_cases() {
  const std::string readme = "examples/buggy/README.md";
  auto err = [&](std::vector<std::string> passes) {
    Expect e;
    e.exit_code = front::kExitFinding;
    e.errors = std::move(passes);
    e.source = readme;
    return e;
  };
  auto perf = [&](std::vector<std::pair<std::string, std::uint32_t>> w) {
    Expect e;
    e.exit_code = front::kExitProved;
    e.warnings = std::move(w);
    e.no_findings = e.warnings.empty();
    e.source = readme + " (perf/)";
    return e;
  };
  Expect racy = err({"race-candidate"});
  racy.source = "tests/data/racy.ptx header comment";
  Expect clean;
  clean.source = "tests/data/vecadd.ptx (well-formed vector sum)";
  return {
      {"examples/buggy/divergent_barrier.ptx", err({"barrier-divergence"})},
      {"examples/buggy/uninit_register.ptx", err({"uninit-register"})},
      {"examples/buggy/shared_overlap.ptx", err({"race-candidate"})},
      {"examples/buggy/shared_overflow.ptx", err({"shared-overflow"})},
      {"examples/buggy/global_race.ptx",
       err({"race-candidate", "race-candidate", "race-candidate"})},
      {"examples/buggy/perf/strided_vecadd.ptx",
       perf({{"uncoalesced-global", 39},
             {"uncoalesced-global", 40},
             {"uncoalesced-global", 45}})},
      {"examples/buggy/perf/transpose_colmajor.ptx",
       perf({{"shared-bank-conflict", 18}})},
      {"examples/buggy/perf/pitch_pow2.ptx", perf({{"shared-bank-conflict", 19}})},
      {"examples/buggy/perf/divergent_reduce.ptx", perf({{"divergent-region", 23}})},
      {"examples/buggy/perf/coalesced_copy.ptx", perf({})},
      {"tests/data/racy.ptx", racy},
      {"tests/data/vecadd.ptx", clean},
  };
}

/// Renames every `.entry NAME` to `.entry NAME_s<salt>`: a new lowered
/// module, hence a new cache key, with the same work.
std::string rename_entries(std::string src, std::uint32_t salt) {
  const std::string needle = ".entry ";
  for (std::size_t pos = src.find(needle); pos != std::string::npos;
       pos = src.find(needle, pos + 1)) {
    std::size_t end = pos + needle.size();
    while (end < src.size() && src[end] != '(' && src[end] != ' ' &&
           src[end] != '\n') {
      ++end;
    }
    src.insert(end, "_s" + std::to_string(salt));
  }
  return src;
}

}  // namespace

std::string check_verdict(const Job& job,
                          const std::vector<front::Result>& results) {
  const Expect& e = job.expect;
  if (results.empty()) return "no results";
  const int code = front::exit_code_of(results);
  if (code != e.exit_code) {
    return "exit " + std::to_string(code) + ", expected " +
           std::to_string(e.exit_code);
  }
  for (const front::Result& r : results) {
    if (!e.verdict.empty() && r.verdict != e.verdict) {
      return "verdict " + r.verdict + ", expected " + e.verdict;
    }
    if (r.limit_tripped) return "a limit tripped";
  }
  if (std::holds_alternative<front::EquivRequest>(job.req) &&
      e.verdict == "not-equivalent" &&
      !(results[0].equiv_cex.present && results[0].equiv_cex.replay_validated)) {
    return "refutation without a replay-validated counterexample";
  }
  if (!std::holds_alternative<front::LintRequest>(job.req)) return "";

  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::uint32_t>> warnings;
  for (const front::Result& r : results) {
    for (const front::Diagnostic& d : r.findings) {
      if (d.severity == "error") {
        errors.push_back(d.pass);
      } else {
        warnings.emplace_back(d.pass, d.loc.line);
      }
    }
  }
  std::vector<std::string> want = e.errors;
  std::sort(errors.begin(), errors.end());
  std::sort(want.begin(), want.end());
  if (errors != want) return std::to_string(errors.size()) + " errors, unexpected set";
  if (e.no_findings && !warnings.empty()) return "findings on the clean control";
  for (const auto& w : e.warnings) {
    if (std::find(warnings.begin(), warnings.end(), w) == warnings.end()) {
      return "missing " + w.first + " at line " + std::to_string(w.second);
    }
  }
  return "";
}

std::vector<Job> explore_jobs(std::uint32_t threads) {
  std::vector<Job> jobs;
  auto add = [&](Kernel k, const std::string& tag, bool por, bool oracle) {
    k.name += tag;
    Job j = check_job(k, false);
    auto& req = std::get<front::CheckRequest>(j.req);
    req.explore.partial_order_reduction = por;
    req.explore.num_threads = threads;
    req.por_oracle = oracle;
    jobs.push_back(std::move(j));
  };
  // The vector sum, three warps of four, no reduction.
  add(vector_add(12, 4), "/w3", false, false);
  // The vector sum, four warps of eight, POR fed by the static oracle.
  add(vector_add(32, 8), "/w4-por-oracle", false, true);
  // Shared-memory reduction: barriers and Shared valid bits, with POR.
  add(reduce(cac::programs::reduce_shared_ptx(), "reduce_shared", 64, 16, true),
      "/w4-por", true, false);
  // Contended atomics: three warps binning nine bytes into four bins.
  add(histogram("abcabbcab", 1, 9, 3), "/w3", false, false);
  // Refuted: the barrier-free reduction misses the postcondition, so
  // the counterexample path is timed.
  add(reduce(cac::programs::reduce_shared_nobar_ptx(), "reduce_shared_nobar",
             16, 8, false),
      "/w2", false, false);
  return jobs;
}

std::vector<Job> corpus_jobs(const std::string& root) {
  std::vector<Job> jobs;
  for (const LintCase& c : lint_cases()) {
    front::LintRequest req;
    req.file = c.path;
    req.source = read_file(root + "/" + c.path);
    req.perf = true;
    jobs.push_back(Job{"lint:" + c.path, req, c.expect});
  }

  // examples/equiv/pairs.txt: "the first four PROVED, the last two
  // REFUTED", under --block 4 --warp 4.
  std::ifstream pairs(root + "/examples/equiv/pairs.txt");
  if (!pairs) throw std::runtime_error("cannot read examples/equiv/pairs.txt");
  std::vector<std::pair<std::string, std::string>> listed;
  for (std::string line; std::getline(pairs, line);) {
    std::istringstream ls(line);
    std::string a, b;
    if (!(ls >> a) || a[0] == '#' || !(ls >> b)) continue;
    listed.emplace_back(a, b);
  }
  if (listed.size() != 6) {
    throw std::runtime_error("examples/equiv/pairs.txt: expected 6 pairs");
  }
  for (std::size_t i = 0; i < listed.size(); ++i) {
    front::EquivRequest req;
    req.file = listed[i].first;
    req.source = read_file(root + "/" + listed[i].first);
    req.file_b = listed[i].second;
    req.source_b = read_file(root + "/" + listed[i].second);
    req.launch.block = {4, 1, 1};
    req.launch.warp_size = 4;
    Expect e;
    e.verdict = i < 4 ? "equivalent" : "not-equivalent";
    e.exit_code = i < 4 ? front::kExitProved : front::kExitFinding;
    e.source = "examples/equiv/pairs.txt";
    jobs.push_back(Job{"equiv:" + listed[i].second, req, e});
  }

  for (const Kernel& k : program_kernels()) {
    jobs.push_back(check_job(k, false));
    // validate's transparency step compares whole terminal states, and
    // an atom's returned old value differs by schedule; no corpus
    // document states validate's answer for the atomic kernels, so
    // they are model-checked only.
    if (!k.atomic) jobs.push_back(check_job(k, true));
  }
  return jobs;
}

Job salted(const Job& job, std::uint32_t salt) {
  Job out = job;
  out.name += "#" + std::to_string(salt);
  if (auto* c = std::get_if<front::CheckRequest>(&out.req)) {
    // An initial word no kernel reads: a fresh key, identical work.
    c->launch.inits.emplace_back(c->launch.global_bytes - 4, salt);
  } else if (auto* l = std::get_if<front::LintRequest>(&out.req)) {
    l->source = rename_entries(l->source, salt);
  } else {
    auto& e = std::get<front::EquivRequest>(out.req);
    e.source = rename_entries(e.source, salt);
    e.source_b = rename_entries(e.source_b, salt);
  }
  return out;
}

}  // namespace cacbench
