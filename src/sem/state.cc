#include "sem/state.h"

#include <algorithm>

namespace cac::sem {

Block::Block(std::vector<Warp> ws) {
  warps.reserve(ws.size());
  for (Warp& w : ws) warps.push_back(std::make_shared<Warp>(std::move(w)));
}

Warp& Block::unique_warp(std::size_t i) {
  WarpRef& slot = warps.at(i);
  if (slot.use_count() != 1) slot = std::make_shared<Warp>(*slot);
  // The warp is uniquely ours now (and was allocated mutable, see
  // WarpRef); shedding const is safe, and the memo must go stale before
  // the caller writes.
  auto& w = const_cast<Warp&>(*slot);
  w.invalidate_hash();
  return w;
}

bool operator==(const Block& a, const Block& b) {
  return std::equal(a.warps.begin(), a.warps.end(), b.warps.begin(),
                    b.warps.end(), [](const WarpRef& x, const WarpRef& y) {
                      return x == y || *x == *y;
                    });
}

std::uint64_t Machine::hash() const {
  return hash_cache.get_or([&] {
    Hasher h;
    h.mix(grid.blocks.size());
    for (const Block& b : grid.blocks) {
      h.mix(b.warps.size());
      for (const WarpRef& w : b.warps) h.mix(w->hash());
    }
    h.mix(memory.hash());
    return h.value();
  });
}

Grid generate_grid(const KernelConfig& kc) {
  Grid g;
  g.blocks.resize(kc.num_blocks());
  const std::uint32_t tpb = kc.threads_per_block();
  for (std::uint32_t b = 0; b < kc.num_blocks(); ++b) {
    std::vector<Warp> ws;
    for (std::uint32_t t = 0; t < tpb; t += kc.warp_size) {
      const std::uint32_t n = std::min(kc.warp_size, tpb - t);
      ws.push_back(make_warp(linear_tid(kc, b, t), n));
    }
    g.blocks[b] = Block(std::move(ws));
  }
  return g;
}

std::string to_string(const Grid& g) {
  std::string out;
  for (std::size_t b = 0; b < g.blocks.size(); ++b) {
    out += "block " + std::to_string(b) + ":";
    for (const WarpRef& w : g.blocks[b].warps) out += " " + w->shape();
    out += "\n";
  }
  return out;
}

}  // namespace cac::sem
