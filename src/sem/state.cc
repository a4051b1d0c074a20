#include "sem/state.h"

namespace cac::sem {

void Block::mix_hash(Hasher& h) const {
  h.mix(warps.size());
  for (const Warp& w : warps) w.mix_hash(h);
}

void Grid::mix_hash(Hasher& h) const {
  h.mix(blocks.size());
  for (const Block& b : blocks) b.mix_hash(h);
}

std::uint64_t Grid::hash() const {
  Hasher h;
  mix_hash(h);
  return h.value();
}

std::uint64_t Machine::hash() const {
  return hash_cache.get_or([&] {
    Hasher h;
    grid.mix_hash(h);
    h.mix(memory.hash());
    return h.value();
  });
}

void Machine::invalidate_hash() const {
  hash_cache.invalidate();
  for (const Block& b : grid.blocks) {
    for (const Warp& w : b.warps) w.invalidate_hash();
  }
}

Grid generate_grid(const KernelConfig& kc) {
  Grid g;
  g.blocks.resize(kc.num_blocks());
  const std::uint32_t tpb = kc.threads_per_block();
  for (std::uint32_t b = 0; b < kc.num_blocks(); ++b) {
    Block& blk = g.blocks[b];
    for (std::uint32_t t = 0; t < tpb; t += kc.warp_size) {
      const std::uint32_t n = std::min(kc.warp_size, tpb - t);
      blk.warps.push_back(make_warp(linear_tid(kc, b, t), n));
    }
  }
  return g;
}

std::string to_string(const Grid& g) {
  std::string out;
  for (std::size_t b = 0; b < g.blocks.size(); ++b) {
    out += "block " + std::to_string(b) + ":";
    for (const Warp& w : g.blocks[b].warps) out += " " + w.shape();
    out += "\n";
  }
  return out;
}

}  // namespace cac::sem
