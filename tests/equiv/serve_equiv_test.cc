// Equiv verdicts as first-class citizens of the verification service:
// cache-key discipline (which knobs are structural, which transient),
// and byte-identical cache-hot replay of equivalence verdicts through
// a real in-process server over AF_UNIX.
#include "front/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "front/cache.h"

namespace cac::front {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string corpus(const std::string& name) {
  return read_file(std::string(CAC_SOURCE_DIR) + "/examples/equiv/" + name);
}

EquivRequest pair_request(const std::string& a, const std::string& b) {
  EquivRequest req;
  req.file = a;
  req.source = corpus(a);
  req.file_b = b;
  req.source_b = corpus(b);
  req.launch.block = {4, 1, 1};
  req.launch.warp_size = 4;
  return req;
}

struct TestServer {
  explicit TestServer(std::uint32_t workers = 2) {
    dir = std::filesystem::temp_directory_path() /
          ("cac_equiv_serve_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    std::filesystem::create_directories(dir);
    ServeOptions opts;
    opts.unix_path = dir / "sock";
    opts.workers = workers;
    server = std::make_unique<Server>(std::move(opts));
    server->start();
  }

  ~TestServer() {
    server->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  Client connect() { return Client::connect(dir / "sock"); }

  std::filesystem::path dir;
  std::unique_ptr<Server> server;
  static inline int counter = 0;
};

TEST(EquivCacheKey, StructuralKnobsChangeTheKey) {
  const EquivRequest base =
      pair_request("guard_ref.ptx", "guard_offbyone.ptx");
  const CacheKey k = cache_key(Request{base});

  EquivRequest nonorm = base;
  nonorm.normalize = false;
  EXPECT_NE(cache_key(Request{nonorm}).hex(), k.hex());

  EquivRequest nocex = base;
  nocex.counterexample = false;
  EXPECT_NE(cache_key(Request{nocex}).hex(), k.hex());

  EquivRequest paths = base;
  paths.sym.max_paths = base.sym.max_paths + 1;
  EXPECT_NE(cache_key(Request{paths}).hex(), k.hex());
}

TEST(EquivCacheKey, TransientKnobsDoNot) {
  const EquivRequest base =
      pair_request("guard_ref.ptx", "guard_offbyone.ptx");
  const CacheKey k = cache_key(Request{base});

  // The search budget only decides how hard to look, never what is
  // true — a budget-exhausted inconclusive is already refused by
  // cacheable(), so two budgets may share one cache entry.
  EquivRequest budget = base;
  budget.cex_inputs = 7;
  EXPECT_EQ(cache_key(Request{budget}).hex(), k.hex());

  // Display names are cosmetic, like check/lint file names.
  EquivRequest renamed = base;
  renamed.file = "x.ptx";
  renamed.file_b = "y.ptx";
  EXPECT_EQ(cache_key(Request{renamed}).hex(), k.hex());
}

TEST(EquivCacheKey, StableAcrossSerializationAndWhitespace) {
  const EquivRequest base = pair_request("mask_ref.ptx", "mask_wrongacc.ptx");
  // Round-tripping through the wire form preserves the key.
  const Request back = request_from_json(to_json(Request{base}));
  EXPECT_EQ(cache_key(Request{base}).hex(), cache_key(back).hex());
  // Cosmetic source edits hit the same entry (canonical lowered form).
  EquivRequest cosmetic = base;
  cosmetic.source_b = "// comment\n" + cosmetic.source_b + "\n";
  EXPECT_EQ(cache_key(Request{cosmetic}).hex(),
            cache_key(Request{base}).hex());
  // Swapping the sides is a different question (A==B is symmetric but
  // the reports are side-labeled), so the key must differ.
  EquivRequest swapped = base;
  std::swap(swapped.source, swapped.source_b);
  std::swap(swapped.file, swapped.file_b);
  EXPECT_NE(cache_key(Request{swapped}).hex(),
            cache_key(Request{base}).hex());
}

TEST(ServeEquiv, ColdRunThenByteIdenticalCacheHit) {
  TestServer ts;
  Client client = ts.connect();
  const std::string payload =
      to_json(Request{pair_request("guard_ref.ptx", "guard_offbyone.ptx")});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  EXPECT_FALSE(cold.doc.bool_or("cached", true));
  EXPECT_EQ(cold.doc.u64_or("exit_code", 99), 1u);  // refuted
  const Client::Reply warm = client.call(payload);
  ASSERT_EQ(warm.doc.str_or("status", ""), "ok");
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  const auto body = [](const std::string& raw) {
    const std::size_t at = raw.find("\"results\":");
    return raw.substr(at);
  };
  EXPECT_EQ(body(cold.raw), body(warm.raw));
  const ServeStats s = ts.server->stats();
  EXPECT_EQ(s.jobs_run, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
}

TEST(ServeEquiv, ProvedPairIsCachedToo) {
  TestServer ts;
  Client client = ts.connect();
  const std::string payload =
      to_json(Request{pair_request("scale_ref.ptx", "scale_strength.ptx")});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  EXPECT_EQ(cold.doc.u64_or("exit_code", 99), 0u);  // proved
  const Client::Reply warm = client.call(payload);
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  EXPECT_EQ(ts.server->stats().jobs_run, 1u);
}

TEST(ServeEquiv, BudgetExhaustedInconclusiveIsNotCached) {
  TestServer ts;
  Client client = ts.connect();
  EquivRequest req = pair_request("mask_ref.ptx", "mask_wrongacc.ptx");
  req.cex_inputs = 1;  // trips after the all-zeros trial
  const std::string payload = to_json(Request{req});
  const Client::Reply first = client.call(payload);
  ASSERT_EQ(first.doc.str_or("status", ""), "ok");
  EXPECT_EQ(first.doc.u64_or("exit_code", 99), 3u);  // inconclusive
  const Client::Reply second = client.call(payload);
  ASSERT_EQ(second.doc.str_or("status", ""), "ok");
  // Re-running is correct here: a bigger budget (same cache key!)
  // must not be answered from a budget-starved verdict.
  EXPECT_FALSE(second.doc.bool_or("cached", true));
  EXPECT_EQ(ts.server->stats().jobs_run, 2u);
  EXPECT_EQ(ts.server->stats().cache.hits, 0u);
}

TEST(ServeEquiv, CosmeticallyDifferentSourcesShareTheEntry) {
  TestServer ts;
  Client client = ts.connect();
  const EquivRequest a = pair_request("guard_ref.ptx", "guard_offbyone.ptx");
  EquivRequest b = a;
  b.source = "// cosmetic comment\n" + b.source + "\n";
  b.file = "renamed.ptx";
  b.cex_inputs = 512;  // transient — still the same entry
  client.call(to_json(Request{a}));
  const Client::Reply warm = client.call(to_json(Request{b}));
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  EXPECT_EQ(ts.server->stats().jobs_run, 1u);
}

}  // namespace
}  // namespace cac::front
