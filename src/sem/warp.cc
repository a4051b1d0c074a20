#include "sem/warp.h"

#include <algorithm>

#include "support/binio.h"
#include "support/diag.h"

namespace cac::sem {

Warp& Warp::operator=(const Warp& other) {
  if (this == &other) return *this;
  pc_ = other.pc_;
  threads_ = other.threads_;
  left_ = other.left_ ? std::make_unique<Warp>(*other.left_) : nullptr;
  right_ = other.right_ ? std::make_unique<Warp>(*other.right_) : nullptr;
  hash_cache_ = other.hash_cache_;  // empties ours: a copy is recomputed
  return *this;
}

std::pair<Warp, Warp> Warp::take_children() {
  if (!divergent()) throw KernelError("take_children on a uniform warp");
  Warp l = std::move(*left_);
  Warp r = std::move(*right_);
  left_.reset();
  right_.reset();
  return {std::move(l), std::move(r)};
}

std::uint32_t Warp::pc() const { return leftmost_leaf().uni_pc(); }

Warp& Warp::leftmost_leaf() {
  Warp* w = this;
  while (w->divergent()) w = w->left_.get();
  return *w;
}

const Warp& Warp::leftmost_leaf() const {
  const Warp* w = this;
  while (w->divergent()) w = w->left_.get();
  return *w;
}

void Warp::collect_threads(ThreadVec& out) const {
  if (divergent()) {
    left_->collect_threads(out);
    right_->collect_threads(out);
  } else {
    out.insert(out.end(), threads_.begin(), threads_.end());
  }
}

std::size_t Warp::thread_count() const {
  if (divergent()) return left_->thread_count() + right_->thread_count();
  return threads_.size();
}

std::size_t Warp::leaf_count() const {
  if (divergent()) return left_->leaf_count() + right_->leaf_count();
  return 1;
}

std::size_t Warp::depth() const {
  if (divergent()) return 1 + std::max(left_->depth(), right_->depth());
  return 1;
}

bool Warp::operator==(const Warp& other) const {
  if (divergent() != other.divergent()) return false;
  if (divergent()) {
    return *left_ == *other.left_ && *right_ == *other.right_;
  }
  return pc_ == other.pc_ && threads_ == other.threads_;
}

void Warp::mix_hash(Hasher& h) const {
  if (divergent()) {
    h.mix(0xD17);  // divergence marker
    left_->mix_hash(h);
    right_->mix_hash(h);
    return;
  }
  h.mix(0x0741);  // uniform marker
  h.mix(pc_);
  h.mix(threads_.size());
  for (const Thread& t : threads_) t.mix_hash(h);
}

std::uint64_t Warp::hash() const {
  return hash_cache_.get_or([&] {
    Hasher h;
    mix_hash(h);
    return h.value();
  });
}

void Warp::encode(support::BinWriter& w) const {
  if (divergent()) {
    w.u8(1);
    left_->encode(w);
    right_->encode(w);
    return;
  }
  w.u8(0);
  w.u32(pc_);
  w.u64(threads_.size());
  for (const Thread& t : threads_) t.encode(w);
}

namespace {

Warp decode_warp(support::BinReader& r, unsigned depth) {
  // A warp tree never diverges deeper than one level per thread; 64 is
  // far beyond any real warp and bounds recursion on corrupt input.
  if (depth > 64) throw support::BinError("warp tree implausibly deep");
  const std::uint8_t tag = r.u8();
  if (tag == 1) {
    Warp left = decode_warp(r, depth + 1);
    Warp right = decode_warp(r, depth + 1);
    return Warp(std::move(left), std::move(right));
  }
  if (tag != 0) throw support::BinError("bad warp node tag");
  const std::uint32_t pc = r.u32();
  const std::uint64_t n = r.count(sizeof(std::uint32_t));
  ThreadVec ts;
  ts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ts.push_back(Thread::decode(r));
  return Warp(pc, std::move(ts));
}

}  // namespace

Warp Warp::decode(support::BinReader& r) { return decode_warp(r, 0); }

std::string Warp::shape() const {
  if (divergent()) {
    return "D(" + left_->shape() + "," + right_->shape() + ")";
  }
  return "U(" + std::to_string(pc_) + ";" + std::to_string(threads_.size()) +
         ")";
}

Warp sync_warp(Warp w) {
  if (!w.divergent()) {
    // sync(pc, t) = (pc+1, t): a uniform warp steps past the Sync.
    w.set_uni_pc(w.uni_pc() + 1);
    return w;
  }
  auto [l, r] = w.take_children();
  if (!l.divergent() && l.threads().empty()) return sync_warp(std::move(r));
  if (!r.divergent() && r.threads().empty()) return sync_warp(std::move(l));
  if (!l.divergent() && !r.divergent() && l.uni_pc() == r.uni_pc()) {
    // Reconverge: union the two thread sets, canonically ordered.
    ThreadVec merged = std::move(l.threads());
    ThreadVec& rt = r.threads();
    merged.insert(merged.end(), std::make_move_iterator(rt.begin()),
                  std::make_move_iterator(rt.end()));
    std::sort(merged.begin(), merged.end(),
              [](const Thread& a, const Thread& b) { return a.tid < b.tid; });
    return Warp(l.uni_pc() + 1, std::move(merged));
  }
  if (!l.divergent()) {
    // Rotate so the still-divergent (or lagging) side executes next.
    return Warp(std::move(r), std::move(l));
  }
  return Warp(sync_warp(std::move(l)), std::move(r));
}

Warp make_warp(std::uint32_t first_tid, std::uint32_t n) {
  ThreadVec ts(n);
  for (std::uint32_t i = 0; i < n; ++i) ts[i].tid = first_tid + i;
  return Warp(0, std::move(ts));
}

}  // namespace cac::sem
