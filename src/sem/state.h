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

struct Block {
  std::vector<Warp> warps;

  friend bool operator==(const Block&, const Block&) = default;
  void mix_hash(Hasher& h) const;
};

struct Grid {
  std::vector<Block> blocks;

  friend bool operator==(const Grid&, const Grid&) = default;
  void mix_hash(Hasher& h) const;
  [[nodiscard]] std::uint64_t hash() const;
};

/// The full machine configuration <gamma, mu> of Fig. 3.
///
/// hash() is memoized, and so is each root warp's fragment hash
/// (Warp::hash).  By design the only mutator of a Machine is the
/// semantics kernel (sem::apply_choice, src/sem/step.cc), which
/// invalidates the machine's cache and the memos of the warps it
/// changes on every transition; Memory additionally tracks its own
/// cache through its mutators.  Code that mutates `grid` or `memory`
/// directly — tests, hypothetical checkers — must call
/// invalidate_hash() afterwards, which drops the machine's cache and
/// every warp memo, or a hash may be stale (operator== is unaffected;
/// it compares real state only).
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
  void invalidate_hash() const;
};

/// The paper's `generate_grid kc`: spawn grid_size blocks of block_size
/// threads, grouped into warps of kc.warp_size, all at pc 0 with empty
/// register files.
Grid generate_grid(const KernelConfig& kc);

std::string to_string(const Grid& g);

}  // namespace cac::sem
