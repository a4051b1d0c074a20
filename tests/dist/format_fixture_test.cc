// Format stability: files written by an earlier build must decode and
// re-encode to identical bytes, so no byte of the on-disk or on-wire
// layout changes without a version bump (Checkpoint::kFormatVersion,
// dist::kProtoVersion), and files of an older version are rejected with
// a typed VersionMismatch instead of being misread.
//
// The current fixtures in tests/data/ were written by the build that
// composes Machine::hash() from warp fragment hashes (checkpoint format
// 4, protocol 6):
//
//  * parallel_v4.ckpt — a Parallel-engine checkpoint of reduce_shared
//    (4 threads, warp size 2: the ReduceFixture setup below; one
//    explorer thread, stopped by stop_after_states = 20 at 36 states;
//    a 1-byte resident budget slowed interning so that the monitor's
//    poll caught the cut early, and tiering never changes checkpoint
//    bytes): graph nodes, a frontier, and the embedded StateStore.  It
//    was loaded and saved once more by that build: a live store's
//    resident-bytes counter is tiering-dependent and recomputed by
//    decode, so only a decoded store re-encodes to the same bytes;
//  * graph_part_v6.frame — one kGraphPart frame: worker 1's slice of a
//    barrier_divergence graph (8 threads, warp size 2; two workers,
//    stopped by stop_after_states = 200) with Gid-keyed edges naming
//    both workers, a stuck node, a node with a faulted and an overflow
//    edge, and nonzero store stats.
//
// The older fixtures are kept as rejection inputs: parallel_v3.ckpt and
// graph_part_v5.frame, the same setups written by the build before the
// composed hash (their stored state hashes are the streamed ones).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dist/wire.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sem/launch.h"
#include "support/binio.h"

namespace cac::dist {
namespace {

std::string fixture(const std::string& name) {
  return std::string(CAC_SOURCE_DIR) + "/tests/data/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ReduceFixture {
  ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Machine init;
  sched::ExploreOptions opts;

  ReduceFixture() {
    sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
    launch.param("arr_A", 0).param("out", 32);
    for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
    init = launch.machine();
    opts.stop_at_first_violation = false;
  }
};

TEST(FormatFixture, ParallelCheckpointReencodesByteIdentically) {
  const std::string path = fixture("parallel_v4.ckpt");
  const sched::Checkpoint ck = sched::Checkpoint::load(path);
  EXPECT_EQ(ck.engine, sched::Checkpoint::Engine::Parallel);
  EXPECT_FALSE(ck.nodes.empty());
  EXPECT_FALSE(ck.frontier.empty());

  const std::string copy = testing::TempDir() + "cac_fixture_copy.ckpt";
  ck.save(copy);
  EXPECT_EQ(slurp(copy), slurp(path));
  std::remove(copy.c_str());
}

TEST(FormatFixture, ParallelCheckpointResumesToTheUninterruptedVerdict) {
  const ReduceFixture f;
  const sched::ExploreResult full = sched::explore(f.prg, f.kc, f.init, f.opts);
  ASSERT_TRUE(full.exhaustive);

  for (const std::uint32_t threads : {1u, 2u}) {
    const sched::Checkpoint ck =
        sched::Checkpoint::load(fixture("parallel_v4.ckpt"));
    sched::ExploreOptions cont = f.opts;
    cont.num_threads = threads;
    const sched::ExploreResult resumed =
        sched::explore(f.prg, f.kc, f.init, cont, &ck);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(resumed.exhaustive, full.exhaustive);
    EXPECT_EQ(resumed.limit_hit, full.limit_hit);
    EXPECT_EQ(resumed.states_visited, full.states_visited);
    EXPECT_EQ(resumed.transitions, full.transitions);
    EXPECT_EQ(resumed.min_steps_to_termination,
              full.min_steps_to_termination);
    EXPECT_EQ(resumed.max_steps_to_termination,
              full.max_steps_to_termination);
    EXPECT_EQ(resumed.violations.size(), full.violations.size());
    EXPECT_EQ(resumed.finals(), full.finals());
  }
}

TEST(FormatFixture, GraphPartFrameReencodesByteIdentically) {
  const std::string bytes = slurp(fixture("graph_part_v6.frame"));
  FrameReader fr;
  fr.feed(bytes.data(), bytes.size());
  const std::optional<Frame> f = fr.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(fr.idle());
  ASSERT_EQ(f->type, FrameType::kGraphPart);

  support::BinReader r(f->payload);
  const GraphPartMsg m = GraphPartMsg::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(m.worker, 1u);
  bool stuck = false, faulted = false, overflow = false, foreign = false;
  for (const GraphPartMsg::Node& n : m.nodes) {
    stuck = stuck || n.stuck;
    for (const GraphPartMsg::Edge& e : n.edges) {
      faulted = faulted || e.faulted;
      overflow = overflow || e.overflow;
      foreign = foreign || (e.child.valid() && e.child.worker() != 0);
    }
  }
  EXPECT_TRUE(stuck && faulted && overflow && foreign)
      << "the fixture no longer covers every record shape";

  support::BinWriter w;
  m.encode(w);
  EXPECT_EQ(encode_frame(FrameType::kGraphPart, w.buffer()), bytes);
}

TEST(FormatFixture, V3CheckpointRejectedWithVersionMismatch) {
  try {
    (void)sched::Checkpoint::load(fixture("parallel_v3.ckpt"));
    FAIL() << "v3 checkpoint accepted";
  } catch (const sched::CheckpointError& e) {
    EXPECT_EQ(e.kind(), sched::CheckpointError::Kind::VersionMismatch)
        << e.what();
  }
}

TEST(FormatFixture, V5FrameRejectedWithVersionMismatch) {
  const std::string path = fixture("graph_part_v5.frame");
  const std::string bytes = slurp(path);
  FrameReader fr;
  fr.feed(bytes.data(), bytes.size());
  try {
    (void)fr.next();
    FAIL() << "v5 frame accepted";
  } catch (const DistError& e) {
    EXPECT_EQ(e.kind(), DistError::Kind::VersionMismatch) << e.what();
    EXPECT_EQ(to_string(e.kind()), "version-mismatch");
  }
  // The generation-file reader reports it the way checkpoint loading
  // does.
  try {
    (void)load_frame_file(path, FrameType::kGraphPart);
    FAIL() << "v5 frame file accepted";
  } catch (const sched::CheckpointError& e) {
    EXPECT_EQ(e.kind(), sched::CheckpointError::Kind::VersionMismatch)
        << e.what();
  }
}

}  // namespace
}  // namespace cac::dist
