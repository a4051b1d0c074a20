// Thread blocks and grids (paper §III-9, §III-10): a block β is a set
// of warps; a grid γ is a set of blocks.  The machine state of the
// small-step semantics is a (grid, memory) pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory.h"
#include "sem/config.h"
#include "sem/warp.h"

namespace cac::sem {

/// A block's warps are shared, immutable copy-on-write fragments
/// (WarpRef), as Memory's banks are: copying a Block, a Grid or a
/// Machine copies pointers, and sibling states of the explorer and the
/// state store's hot tier share every warp they have not diverged on.
struct Block {
  std::vector<WarpRef> warps;

  Block() = default;
  /// A block of fresh, unshared warps.
  explicit Block(std::vector<Warp> ws);

  /// The one mutable access to a warp: clones warp `i` first when it
  /// is shared (with another machine or with the state store), and
  /// drops its hash memo, so the warp is fresh to mutate and its next
  /// hash() is recomputed.  As Memory::unique_bank does for banks.
  [[nodiscard]] Warp& unique_warp(std::size_t i);

  /// Pointer equality first, then structure.
  friend bool operator==(const Block& a, const Block& b);
};

struct Grid {
  std::vector<Block> blocks;

  friend bool operator==(const Grid&, const Grid&) = default;
};

/// The full machine configuration <gamma, mu> of Fig. 3.
///
/// hash() is memoized, and composed from the block count, each block's
/// warp count, each root warp's memoized fragment hash (Warp::hash)
/// and memory.hash(), so a child state rehashes only the warp its
/// transition stepped.  Warp memos track themselves (Block::unique_warp
/// drops the memo of the warp it hands out) and so do Memory's; the
/// machine-level memo is dropped by the semantics kernel
/// (sem::apply_choice, src/sem/step.cc) on every transition.  Code that
/// mutates `grid` or `memory` directly — tests, hypothetical checkers —
/// calls invalidate_hash() afterwards, or hash() may return the value
/// from before the mutation (operator== is unaffected; it compares real
/// state only).
struct Machine {
  Grid grid;
  mem::Memory memory;
  HashCache hash_cache;  // excluded from operator==

  Machine() = default;
  Machine(Grid g, mem::Memory m)
      : grid(std::move(g)), memory(std::move(m)) {}

  friend bool operator==(const Machine& a, const Machine& b) {
    return a.grid == b.grid && a.memory == b.memory;
  }
  [[nodiscard]] std::uint64_t hash() const;
  /// Drops the machine-level memo (warp and bank memos track
  /// themselves).
  void invalidate_hash() const { hash_cache.invalidate(); }
};

/// The paper's `generate_grid kc`: spawn grid_size blocks of block_size
/// threads, grouped into warps of kc.warp_size, all at pc 0 with empty
/// register files.
Grid generate_grid(const KernelConfig& kc);

std::string to_string(const Grid& g);

}  // namespace cac::sem
