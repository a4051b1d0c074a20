// Hash and byte stability pin for the machine state.  Machine::hash()
// and the warp fragment hashes are stored in checkpoints and sent on
// the distributed wire, and Warp::encode bytes are the checkpoint and
// frame payloads, so a change of the register-file or warp
// representation must leave every value below unchanged.  The warp
// constants were captured from the std::map-based register file, the
// representation before the flat one; a warp's bytes are pinned by
// their length and 64-bit FNV-1a digest.  The machine hashes were
// captured when Machine::hash() became a mix of the warp fragment
// hashes (checkpoint format 4, protocol 6).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sem/launch.h"
#include "sem/state.h"
#include "sem/step.h"
#include "support/binio.h"

namespace cac::sem {
namespace {

using ptx::TypeClass;

Thread pin_thread(std::uint32_t tid, std::uint64_t seed) {
  Thread t;
  t.tid = tid;
  // UI and SI registers of widths 16/32/64 sharing index 4, written
  // out of key order and with values wider than the register.
  for (const TypeClass cls : {TypeClass::SI, TypeClass::UI}) {
    for (const std::uint8_t width : {64, 16, 32}) {
      t.rho.write({cls, width, 4}, seed * 0x9e3779b97f4a7c15ull + width +
                                       (cls == TypeClass::SI ? 1 : 0));
    }
  }
  t.rho.write({TypeClass::UI, 32, 1}, seed);
  t.rho.write({TypeClass::UI, 16, 4}, seed + 7);  // overwrite
  t.phi.write({3}, (seed & 1) != 0);
  t.phi.write({0}, true);
  t.phi.write({1}, false);
  return t;
}

Machine pin_hand_built() {
  Grid g;
  g.blocks.resize(2);
  // Block 0: a uniform warp and a divergent D(U, D(U, U)) tree whose
  // last leaf is empty.
  g.blocks[0].warps.push_back(std::make_shared<Warp>(
      3, ThreadVec{pin_thread(0, 1), pin_thread(1, 2)}));
  g.blocks[0].warps.push_back(std::make_shared<Warp>(
      Warp(7, ThreadVec{pin_thread(2, 3)}),
      Warp(Warp(9, ThreadVec{pin_thread(3, 4)}), Warp(11, ThreadVec{}))));
  // Block 1: a fresh warp with no register written.
  g.blocks[1].warps.push_back(std::make_shared<Warp>(make_warp(4, 2)));
  mem::Memory mu(mem::MemSizes{16, 0, 8, 0, 2});
  mu.store(mem::Space::Global, 4, 4, 0xdeadbeef, true);
  return Machine(std::move(g), std::move(mu));
}

// reduce_shared stepped along the first eligible choice until one
// LiftBar has been applied.
Machine pin_after_liftbar() {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  Machine m = launch.machine();
  for (;;) {
    const std::vector<Choice> ch = eligible_choices(prg, m.grid);
    if (ch.empty()) {
      ADD_FAILURE() << "no LiftBar reached";
      return m;
    }
    const Choice c = ch.front();
    EXPECT_TRUE(apply_choice(prg, kc, m, c).ok());
    if (c.kind == Choice::Kind::LiftBar) return m;
  }
}

struct WarpPin {
  std::uint64_t hash;
  std::size_t bytes;
  std::uint64_t digest;  // fnv1a of the Warp::encode bytes
};

void expect_pinned(const Machine& m, std::uint64_t machine_hash,
                   const std::vector<WarpPin>& pins) {
  EXPECT_EQ(m.hash(), machine_hash);
  std::size_t k = 0;
  for (const Block& b : m.grid.blocks) {
    for (const WarpRef& w : b.warps) {
      ASSERT_LT(k, pins.size());
      Hasher streamed;
      w->mix_hash(streamed);
      support::BinWriter bw;
      w->encode(bw);
      const std::string bytes = bw.take();
      EXPECT_EQ(w->hash(), pins[k].hash) << "warp " << k << " " << w->shape();
      EXPECT_EQ(streamed.value(), pins[k].hash) << "warp " << k;
      EXPECT_EQ(bytes.size(), pins[k].bytes) << "warp " << k;
      EXPECT_EQ(fnv1a(bytes), pins[k].digest) << "warp " << k;
      ++k;
    }
  }
  EXPECT_EQ(k, pins.size());
}

TEST(HashPin, HandBuiltMachine) {
  const Machine m = pin_hand_built();
  ASSERT_EQ(m.grid.blocks[0].warps[1]->shape(),
            "D(U(7;1),D(U(9;1),U(11;0)))");
  expect_pinned(m, 0xeff8d5bbf042e798ull,
                {{0xe4c5f9590884c84full, 251, 0x31adaef7989aa181ull},
                 {0x24a8e6ecbb4f4e08ull, 279, 0xb43dc07957f0dd29ull},
                 {0x2d2bef5dc5b33b16ull, 53, 0x8c2b827b178dfafcull}});
}

TEST(HashPin, BlockAfterLiftBar) {
  const Machine m = pin_after_liftbar();
  expect_pinned(m, 0x6a1f56df2dfce27eull,
                {{0x48ba39673cbdc350ull, 269, 0x27b50ac1ed3d7f55ull},
                 {0xe04005fa3013a9bcull, 269, 0x1b18cfae63cef711ull}});
}

// The encodings are canonical (strictly increasing keys); decode must
// reject a duplicate or descending key instead of keeping either entry.
std::string reg_file_bytes(std::uint32_t k1, std::uint32_t k2) {
  support::BinWriter w;
  w.u64(2);
  w.u32(k1);
  w.u64(10);
  w.u32(k2);
  w.u64(20);
  return w.take();
}

std::string pred_state_bytes(std::uint32_t k1, std::uint32_t k2) {
  support::BinWriter w;
  w.u64(2);
  w.u32(k1);
  w.u8(1);
  w.u32(k2);
  w.u8(0);
  return w.take();
}

TEST(HashPin, RegFileDecodeRejectsUnorderedKeys) {
  {
    const std::string ok = reg_file_bytes(5, 6);
    support::BinReader r(ok);
    EXPECT_EQ(RegFile::decode(r).written_count(), 2u);
  }
  for (const std::string& bad : {reg_file_bytes(5, 5), reg_file_bytes(6, 5)}) {
    support::BinReader r(bad);
    EXPECT_THROW((void)RegFile::decode(r), support::BinError);
  }
}

TEST(HashPin, PredStateDecodeRejectsUnorderedKeys) {
  {
    const std::string ok = pred_state_bytes(1, 2);
    support::BinReader r(ok);
    EXPECT_EQ(PredState::decode(r).written_count(), 2u);
  }
  for (const std::string& bad :
       {pred_state_bytes(2, 2), pred_state_bytes(2, 1),
        pred_state_bytes(1, 0x10001)}) {
    support::BinReader r(bad);
    EXPECT_THROW((void)PredState::decode(r), support::BinError);
  }
}

}  // namespace
}  // namespace cac::sem
