// Warp fragment-hash memos (sem::Warp::hash) against fresh recomputes.
//
//  * sem::apply_choice drops exactly the memos a transition makes
//    stale: along random schedules over kernels with plain steps,
//    barriers (LiftBar), divergence trees and atomics, every root
//    warp's memo and the machine hash equal a recompute on an
//    encode→decode copy, whose memos start cold;
//  * Block::unique_warp, the one mutation point, hands out a warp whose
//    memo is already dropped, and the store then interns the mutated
//    warp afresh;
//  * warps are copy-on-write: stepping a child leaves its parent and
//    the parent's stored state untouched, and dedup decides by content
//    when every hash shares one bucket.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random_program.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sched/explore.h"
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

/// reduce_shared over `threads` threads in warps of two: barriers
/// (LiftBar) and Shared valid bits.
Case reduce_case(std::uint32_t threads) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {threads, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < threads; ++i) {
    launch.global_u32(4 * i, i + 1);
  }
  return {"reduce_shared", prg, kc, launch.machine()};
}

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
  out.push_back(reduce_case(8));
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
    for (const sem::WarpRef& w : b.warps) {
      sem::Warp copy = round_trip(*w);
      ASSERT_EQ(copy, *w) << where;
      EXPECT_EQ(w->hash(), copy.hash()) << where << " " << w->shape();
      fb.warps.push_back(std::make_shared<sem::Warp>(std::move(copy)));
    }
  }
  EXPECT_EQ(m.hash(), sem::Machine(std::move(fresh), m.memory).hash())
      << where;
}

/// A copy of `m` that shares no warp and no bank with it: every
/// fragment goes through its encode→decode round trip.
sem::Machine decoded_copy(const sem::Machine& m) {
  sem::Grid g;
  for (const sem::Block& b : m.grid.blocks) {
    sem::Block& gb = g.blocks.emplace_back();
    for (const sem::WarpRef& w : b.warps) {
      gb.warps.push_back(std::make_shared<sem::Warp>(round_trip(*w)));
    }
  }
  const auto bank = [](const mem::Memory::BankRef& b) {
    support::BinWriter bw;
    b->encode(bw);
    const std::string bytes = bw.take();
    support::BinReader r(bytes);
    return std::make_shared<mem::Memory::Bank>(mem::Memory::Bank::decode(r));
  };
  std::vector<mem::Memory::BankRef> shared;
  for (const mem::Memory::BankRef& b : m.memory.shared_bank_refs()) {
    shared.push_back(bank(b));
  }
  return sem::Machine(
      std::move(g),
      mem::Memory::from_banks(bank(m.memory.bank_ref(mem::Space::Global)),
                              bank(m.memory.bank_ref(mem::Space::Const)),
                              std::move(shared),
                              bank(m.memory.bank_ref(mem::Space::Param)),
                              m.memory.shared_size()));
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

TEST(HashMemo, UniqueWarpMutationKeepsMemosFresh) {
  const Case c = cases().front();
  sem::Machine m = c.init;
  // c.init shares its warps with m; the snapshot shares nothing.
  const sem::Machine init = decoded_copy(c.init);
  const std::uint64_t before = m.grid.blocks[0].warps[1]->hash();
  (void)m.hash();

  StateStore store;
  const StateId original = store.intern(m).id;

  // The first write finds the warp shared (with c.init and the store)
  // and clones it; the second finds it unique, with its memo filled by
  // the check in between.  Either way the warp unique_warp hands out
  // has no memo left to go stale.
  for (const std::uint64_t value : {5, 6}) {
    m.grid.blocks[0].unique_warp(1).threads()[0].rho.write(
        {ptx::TypeClass::UI, 32, 9}, value);
    const sem::Warp& mutated = *m.grid.blocks[0].warps[1];
    EXPECT_EQ(mutated.hash(), round_trip(mutated).hash()) << value;
    EXPECT_NE(mutated.hash(), before) << value;
  }
  m.invalidate_hash();  // the machine-level memo (warps track their own)
  expect_memos_fresh(m, "after unique_warp");

  // The store keys fragments by the memo: the mutated warp is a new
  // fragment, and both states materialize to what was interned.
  const std::uint64_t frags = store.stats().warp_fragments;
  const auto r = store.intern(m);
  ASSERT_TRUE(r.inserted);
  EXPECT_EQ(store.stats().warp_fragments, frags + 1);
  EXPECT_EQ(store.materialize(r.id), m);
  EXPECT_EQ(store.materialize(original), init);
  EXPECT_EQ(c.init, init);
}

TEST(CowWarp, SteppingAChildLeavesTheParentAndItsStoredStateUnchanged) {
  for (const Case& c : cases()) {
    bool exec = false, lift = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      testing::Rng rng(seed);
      StateStore store;
      sem::Machine parent = c.init;
      StateId parent_id = store.intern(parent).id;
      for (int step = 0; step < 200; ++step) {
        const std::vector<sem::Choice> ch =
            sem::eligible_choices(c.prg, parent.grid);
        if (ch.empty()) break;
        const sem::Choice choice = ch[rng.below(ch.size())];
        const std::string where = c.name + " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step) + " " +
                                  sem::to_string(choice);
        const sem::Machine snapshot = decoded_copy(parent);
        ASSERT_EQ(snapshot, parent) << where;
        ASSERT_EQ(snapshot.hash(), parent.hash()) << where;

        // Copying copies pointers; stepping clones only what it changes.
        sem::Machine child = parent;
        const sem::StepResult sr =
            sem::apply_choice(c.prg, c.kc, child, choice);
        if (!sr.ok()) break;
        exec |= choice.kind == sem::Choice::Kind::ExecWarp;
        lift |= choice.kind == sem::Choice::Kind::LiftBar;
        for (std::size_t b = 0; b < parent.grid.blocks.size(); ++b) {
          const auto& pw = parent.grid.blocks[b].warps;
          const auto& cw = child.grid.blocks[b].warps;
          for (std::size_t w = 0; w < pw.size(); ++w) {
            const bool stepped =
                b == choice.block &&
                (choice.kind == sem::Choice::Kind::LiftBar ||
                 w == choice.warp);
            EXPECT_EQ(pw[w] != cw[w], stepped)
                << where << " block " << b << " warp " << w;
          }
        }
        EXPECT_EQ(parent, snapshot) << where;
        EXPECT_EQ(parent.hash(), snapshot.hash()) << where;
        EXPECT_EQ(store.materialize(parent_id), snapshot) << where;
        EXPECT_EQ(child.hash(), decoded_copy(child).hash()) << where;
        if (::testing::Test::HasFailure()) return;

        const auto r = store.intern(child, ~0ull, parent_id);
        ASSERT_TRUE(r.id.valid()) << where;
        parent = std::move(child);
        parent_id = r.id;
      }
    }
    EXPECT_TRUE(exec) << c.name;
    if (c.name == "reduce_shared") {
      EXPECT_TRUE(lift);
    }
  }
}

TEST(CowWarp, EqualContentDedupsAcrossDistinctPointersUnderTotalCollision) {
  // hash_mask 0: every fragment and state shares one bucket, so only
  // structural equality separates states, and pointer equality is
  // never available to shortcut it.
  for (const Case& c : cases()) {
    StateStore store(0ull);
    const sem::Machine a = c.init;
    const sem::Machine b = decoded_copy(a);
    ASSERT_NE(a.grid.blocks[0].warps[0], b.grid.blocks[0].warps[0]);
    const auto ra = store.intern(a);
    const auto rb = store.intern(b);
    ASSERT_TRUE(ra.inserted) << c.name;
    EXPECT_FALSE(rb.inserted) << c.name;
    EXPECT_EQ(ra.id, rb.id) << c.name;

    // One warp differs: a new state, and both materialize as interned.
    sem::Machine d = b;
    d.grid.blocks.back().unique_warp(0).threads()[0].rho.write(
        {ptx::TypeClass::UI, 32, 99}, 7);
    d.invalidate_hash();
    const auto rd = store.intern(d);
    EXPECT_TRUE(rd.inserted) << c.name;
    EXPECT_FALSE(rd.id == ra.id) << c.name;
    EXPECT_EQ(store.materialize(ra.id), a) << c.name;
    EXPECT_EQ(store.materialize(rd.id), d) << c.name;
    EXPECT_EQ(store.size(), 2u) << c.name;
  }
}

/// A checkpoint holding only the initial state, interned into `store`:
/// resuming from it runs the whole exploration on that store.  The
/// engines take no hash-mask knob, so this is how a collision-forcing
/// store reaches them.
Checkpoint root_only(const Case& c, const ExploreOptions& opts,
                     Checkpoint::Engine engine,
                     std::shared_ptr<StateStore> store) {
  Checkpoint ck;
  ck.engine = engine;
  ck.program_fp = program_fingerprint(c.prg);
  ck.config_fp = config_fingerprint(c.kc);
  ck.options = opts;
  ck.store = std::move(store);
  const StateId root = ck.store->intern(c.init).id;
  if (engine == Checkpoint::Engine::Serial) {
    ck.stack.push_back({root, 0});
    ck.colors.emplace_back(root.v, 0);
    ck.states_visited = 1;
  } else {
    ck.root = root;
    graph::Node n;
    n.local = root.v;
    ck.nodes.push_back(std::move(n));
    ck.frontier.emplace_back(root.v, 0);
  }
  return ck;
}

TEST(CowWarp, SerialAndParallelVerdictsAgreeUnderTotalCollision) {
  const Case c = reduce_case(4);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const ExploreResult want = explore(c.prg, c.kc, c.init, opts);
  ASSERT_TRUE(want.exhaustive);

  const auto expect_same = [&](const ExploreResult& got,
                               const std::string& where) {
    EXPECT_EQ(got.exhaustive, want.exhaustive) << where;
    EXPECT_EQ(got.states_visited, want.states_visited) << where;
    EXPECT_EQ(got.transitions, want.transitions) << where;
    EXPECT_EQ(got.min_steps_to_termination, want.min_steps_to_termination)
        << where;
    EXPECT_EQ(got.max_steps_to_termination, want.max_steps_to_termination)
        << where;
    EXPECT_EQ(got.violations.size(), want.violations.size()) << where;
    EXPECT_EQ(got.finals(), want.finals()) << where;
  };
  {
    const Checkpoint ck = root_only(c, opts, Checkpoint::Engine::Serial,
                                    std::make_shared<StateStore>(0ull));
    expect_same(explore(c.prg, c.kc, c.init, opts, &ck), "serial");
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    ExploreOptions par = opts;
    par.num_threads = threads;
    const Checkpoint ck = root_only(c, par, Checkpoint::Engine::Parallel,
                                    std::make_shared<StateStore>(0ull));
    expect_same(explore(c.prg, c.kc, c.init, par, &ck),
                "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace cac::sched
