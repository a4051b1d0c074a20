// Warp fragment-hash memos (sem::Warp::hash) against fresh recomputes.
//
//  * sem::apply_choice drops exactly the memos a transition makes
//    stale: along random schedules over kernels with plain steps,
//    barriers (LiftBar), divergence trees and atomics, every root
//    warp's memo and the machine hash equal a recompute on an
//    encode→decode copy, whose memos start cold;
//  * Machine::invalidate_hash() drops every warp memo after a direct
//    mutation, and the store then interns the mutated warp afresh.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random_program.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/state_store.h"
#include "sem/launch.h"
#include "sem/step.h"
#include "support/binio.h"

namespace cac::sched {
namespace {

struct Case {
  std::string name;
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  {
    const ptx::Program prg = programs::vector_add_listing2();
    const sem::KernelConfig kc{{1, 1, 1}, {12, 1, 1}, 4};
    const programs::VecAddLayout L;
    sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
    launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
        .param("size", 12);
    for (std::uint32_t i = 0; i < 12; ++i) {
      launch.global_u32(L.a + 4 * i, i).global_u32(L.b + 4 * i, 2 * i);
    }
    out.push_back({"vecadd", prg, kc, launch.machine()});
  }
  {
    const ptx::Program prg =
        ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
    const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
    sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
    launch.param("arr_A", 0).param("out", 32);
    for (std::uint32_t i = 0; i < 8; ++i) launch.global_u32(4 * i, i + 1);
    out.push_back({"reduce_shared", prg, kc, launch.machine()});
  }
  {
    const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                                 .kernel("barrier_divergence");
    const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
    out.push_back(
        {"barrier_divergence", prg, kc, sem::Launch(prg, kc, {}).machine()});
  }
  {
    const ptx::Program prg =
        ptx::load_ptx(programs::histogram_ptx()).kernel("histogram");
    const sem::KernelConfig kc{{2, 1, 1}, {4, 1, 1}, 2};
    const std::string data = "abcabbca";
    sem::Launch launch(prg, kc, mem::MemSizes{0x200, 0, 0, 0, 1});
    launch.param("data", 0).param("hist", 0x100).param("size", data.size())
        .param("mask", 3);
    launch.memory().write_init(mem::Space::Global, 0, data.data(),
                               data.size());
    for (std::uint32_t b = 0; b < 4; ++b) launch.global_u32(0x100 + 4 * b, 0);
    out.push_back({"histogram", prg, kc, launch.machine()});
  }
  return out;
}

sem::Warp round_trip(const sem::Warp& w) {
  support::BinWriter bw;
  w.encode(bw);
  const std::string bytes = bw.take();
  support::BinReader r(bytes);
  return sem::Warp::decode(r);
}

/// Every root warp's memo and the machine hash against recomputes on a
/// decoded copy of the grid.
void expect_memos_fresh(const sem::Machine& m, const std::string& where) {
  sem::Grid fresh;
  for (const sem::Block& b : m.grid.blocks) {
    sem::Block& fb = fresh.blocks.emplace_back();
    for (const sem::Warp& w : b.warps) {
      sem::Warp copy = round_trip(w);
      ASSERT_EQ(copy, w) << where;
      EXPECT_EQ(w.hash(), copy.hash()) << where << " " << w.shape();
      fb.warps.push_back(std::move(copy));
    }
  }
  EXPECT_EQ(m.hash(), sem::Machine(std::move(fresh), m.memory).hash())
      << where;
}

TEST(HashMemo, RandomSchedulesKeepMemosFresh) {
  for (const Case& c : cases()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      testing::Rng rng(seed);
      sem::Machine m = c.init;
      expect_memos_fresh(m, c.name);  // warms every memo
      bool lifted = false;
      for (int step = 0; step < 200; ++step) {
        const std::vector<sem::Choice> ch =
            sem::eligible_choices(c.prg, m.grid);
        if (ch.empty()) break;
        const sem::Choice choice = ch[rng.below(ch.size())];
        lifted |= choice.kind == sem::Choice::Kind::LiftBar;
        // The explorers step a copy of the parent, whose memos are warm.
        sem::Machine child = m;
        const sem::StepResult sr =
            sem::apply_choice(c.prg, c.kc, child, choice);
        if (!sr.ok()) break;
        const std::string where = c.name + " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step) + " " +
                                  sem::to_string(choice);
        expect_memos_fresh(child, where);
        if (::testing::Test::HasFailure()) return;
        m = std::move(child);
      }
      if (c.name == "reduce_shared") EXPECT_TRUE(lifted) << "seed " << seed;
    }
  }
}

TEST(HashMemo, InvalidateHashDropsEveryWarpMemo) {
  const Case c = cases().front();
  sem::Machine m = c.init;
  const std::uint64_t before = m.grid.blocks[0].warps[1].hash();
  (void)m.hash();

  StateStore store;
  const StateId original = store.intern(m).id;

  // A direct mutation leaves the memos stale until invalidate_hash().
  m.grid.blocks[0].warps[1].threads()[0].rho.write(
      {ptx::TypeClass::UI, 32, 9}, 5);
  EXPECT_EQ(m.grid.blocks[0].warps[1].hash(), before);
  m.invalidate_hash();
  EXPECT_NE(m.grid.blocks[0].warps[1].hash(), before);
  expect_memos_fresh(m, "after invalidate_hash");

  // The store keys fragments by the memo: the mutated warp is a new
  // fragment, and both states materialize to what was interned.
  const auto r = store.intern(m);
  ASSERT_TRUE(r.inserted);
  EXPECT_EQ(store.materialize(r.id), m);
  EXPECT_EQ(store.materialize(original), c.init);
}

}  // namespace
}  // namespace cac::sched
