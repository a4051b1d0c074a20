// Warps (paper §III-8): either uniform execution of a set of threads,
// `Uni (pc, ts)`, or divergent execution of two sub-warps, `Div (w1 w2)`
// — so a warp is a *tree* of divergences.  This module also implements
// the reconvergence function `sync` of Fig. 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sem/thread.h"

namespace cac::sem {

class Warp {
 public:
  /// Uniform warp: all threads at one pc, executing in lock-step.
  Warp() = default;
  Warp(std::uint32_t pc, ThreadVec threads)
      : pc_(pc), threads_(std::move(threads)) {}

  /// Divergent warp Div(w1, w2); the left side executes first (Fig. 1
  /// rule (div): for i != Sync the left-most warp steps).
  Warp(Warp left, Warp right)
      : left_(std::make_unique<Warp>(std::move(left))),
        right_(std::make_unique<Warp>(std::move(right))) {}

  Warp(const Warp& other) { *this = other; }
  Warp& operator=(const Warp& other);
  Warp(Warp&&) noexcept = default;
  Warp& operator=(Warp&&) noexcept = default;

  [[nodiscard]] bool divergent() const { return left_ != nullptr; }

  // --- uniform accessors (valid only when !divergent()) ---
  [[nodiscard]] std::uint32_t uni_pc() const { return pc_; }
  void set_uni_pc(std::uint32_t pc) { pc_ = pc; }
  [[nodiscard]] const ThreadVec& threads() const { return threads_; }
  [[nodiscard]] ThreadVec& threads() { return threads_; }

  // --- divergent accessors (valid only when divergent()) ---
  [[nodiscard]] const Warp& left() const { return *left_; }
  [[nodiscard]] Warp& left() { return *left_; }
  [[nodiscard]] const Warp& right() const { return *right_; }
  [[nodiscard]] Warp& right() { return *right_; }

  /// Release ownership of both children (used by sync).
  std::pair<Warp, Warp> take_children();

  /// ωpc — the pc of the left-most uniform leaf: the pc at which the
  /// warp executes its next instruction.
  [[nodiscard]] std::uint32_t pc() const;

  /// The left-most uniform leaf itself.
  [[nodiscard]] Warp& leftmost_leaf();
  [[nodiscard]] const Warp& leftmost_leaf() const;

  /// All threads in the tree, in-order.
  void collect_threads(ThreadVec& out) const;
  [[nodiscard]] std::size_t thread_count() const;

  /// Tree-shape statistics (used by the Fig. 2 bench and tests).
  [[nodiscard]] std::size_t leaf_count() const;
  [[nodiscard]] std::size_t depth() const;

  bool operator==(const Warp& other) const;
  void mix_hash(Hasher& h) const;

  /// The fragment hash: mix_hash over a fresh Hasher, memoized.  The
  /// state store keys warp fragments by it (sched/state_store.h), and
  /// Machine::hash() is composed from the root warps' values.  Root
  /// warps are shared, immutable copy-on-write fragments (WarpRef), so
  /// the memo is a SharedHashCache, as a memory bank's is: racing
  /// fillers are safe, copies start empty, and the one mutation point,
  /// Block::unique_warp, drops it before handing the warp out.  Code
  /// that mutates a warp value it owns outright (not through a Block)
  /// calls invalidate_hash() before hashing it again.  Excluded from ==.
  [[nodiscard]] std::uint64_t hash() const;
  void invalidate_hash() const { hash_cache_.invalidate(); }

  /// Checkpoint codec (sched/checkpoint.h): the divergence tree as a
  /// tagged preorder.  decode throws support::BinError on malformed
  /// input, including trees deeper than a warp could ever diverge.
  void encode(support::BinWriter& w) const;
  static Warp decode(support::BinReader& r);

  /// Compact shape string, e.g. "D(U(10;3),U(18;1))".
  [[nodiscard]] std::string shape() const;

 private:
  std::uint32_t pc_ = 0;
  ThreadVec threads_;
  std::unique_ptr<Warp> left_;
  std::unique_ptr<Warp> right_;
  SharedHashCache hash_cache_;
};

/// Refcounted immutable root warp — the sharing currency between
/// machines and the interning state store, as Memory::BankRef is for
/// banks.  Allocate the pointee mutable (std::make_shared<Warp>):
/// Block::unique_warp sheds the const of a uniquely owned warp.
using WarpRef = std::shared_ptr<const Warp>;

/// The reconvergence function of Fig. 2.  Applied by the Sync rule to
/// the whole warp tree:
///
///   sync(pc, t)                          = (pc+1, t)
///   sync((pc1, {}), w2)                  = sync(w2)
///   sync(w1, (pc2, {}))                  = sync(w1)
///   sync((pc1,t1), (pc2,t2)) | pc1=pc2   = (pc1+1, t1 u t2)
///   sync((pc1,t1), w2)                   = (w2, (pc1,t1))
///   sync(w1, w2)                         = (sync(w1), w2)
///
/// Merged thread sets are kept sorted by tid so that structurally equal
/// warps compare equal regardless of divergence history.
Warp sync_warp(Warp w);

/// Build a uniform warp at pc 0 from thread ids [first, first+n).
Warp make_warp(std::uint32_t first_tid, std::uint32_t n);

}  // namespace cac::sem
