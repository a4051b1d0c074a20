#include "sem/thread.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/binio.h"
#include "support/bits.h"

namespace cac::sem {

namespace {

// The first entry whose key is not below `key` (entries sorted by key).
template <typename Vec, typename Key>
auto slot(Vec& v, Key key) {
  return std::lower_bound(v.begin(), v.end(), key,
                          [](const auto& e, Key k) { return e.key < k; });
}

template <typename Vec>
bool same_bytes(const Vec& a, const Vec& b) {
  using E = typename Vec::value_type;
  static_assert(std::has_unique_object_representations_v<E>);
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(E)) == 0);
}

}  // namespace

std::uint64_t RegFile::read(const ptx::Reg& r) const {
  return read_opt(r).value_or(0);
}

std::optional<std::uint64_t> RegFile::read_opt(const ptx::Reg& r) const {
  const std::uint32_t key = r.key();
  const auto it = slot(entries_, key);
  if (it == entries_.end() || it->key != key) return std::nullopt;
  return it->bits;
}

void RegFile::write(const ptx::Reg& r, std::uint64_t value) {
  const std::uint32_t key = r.key();
  const std::uint64_t bits = truncate(value, r.width);
  const auto it = slot(entries_, key);
  if (it != entries_.end() && it->key == key) {
    it->bits = bits;
  } else {
    entries_.insert(it, Entry{key, 0, bits});
  }
}

bool operator==(const RegFile& a, const RegFile& b) {
  return same_bytes(a.entries_, b.entries_);
}

void RegFile::mix_hash(Hasher& h) const {
  h.mix(entries_.size());
  for (const Entry& e : entries_) {
    h.mix(e.key);
    h.mix(e.bits);
  }
}

bool PredState::read(const ptx::Pred& p) const {
  const auto it = slot(entries_, p.index);
  return it != entries_.end() && it->key == p.index && it->value != 0;
}

void PredState::write(const ptx::Pred& p, bool value) {
  const auto it = slot(entries_, p.index);
  if (it != entries_.end() && it->key == p.index) {
    it->value = value ? 1 : 0;
  } else {
    entries_.insert(it, Entry{p.index, static_cast<std::uint8_t>(value), 0});
  }
}

bool operator==(const PredState& a, const PredState& b) {
  return same_bytes(a.entries_, b.entries_);
}

void PredState::mix_hash(Hasher& h) const {
  h.mix(entries_.size());
  for (const Entry& e : entries_) {
    h.mix((static_cast<std::uint64_t>(e.key) << 1) | e.value);
  }
}

void Thread::mix_hash(Hasher& h) const {
  h.mix(tid);
  rho.mix_hash(h);
  phi.mix_hash(h);
}

// Entries are kept in strictly increasing key order, so the encoding is
// canonical: structurally equal register files serialize to identical
// bytes, and decode accepts only that order.

void RegFile::encode(support::BinWriter& w) const {
  w.u64(entries_.size());
  for (const Entry& e : entries_) {
    w.u32(e.key);
    w.u64(e.bits);
  }
}

RegFile RegFile::decode(support::BinReader& r) {
  RegFile rf;
  const std::uint64_t n = r.count(12);  // u32 key + u64 value
  rf.entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t k = r.u32();
    if (!rf.entries_.empty() && k <= rf.entries_.back().key) {
      throw support::BinError("register keys not strictly increasing");
    }
    rf.entries_.push_back(Entry{k, 0, r.u64()});
  }
  return rf;
}

void PredState::encode(support::BinWriter& w) const {
  w.u64(entries_.size());
  for (const Entry& e : entries_) {
    w.u32(e.key);
    w.u8(e.value);
  }
}

PredState PredState::decode(support::BinReader& r) {
  PredState ps;
  const std::uint64_t n = r.count(5);  // u32 key + u8 value
  ps.entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t k = r.u32();
    if (k > 0xffff) throw support::BinError("predicate index out of range");
    if (!ps.entries_.empty() && k <= ps.entries_.back().key) {
      throw support::BinError("predicate indices not strictly increasing");
    }
    ps.entries_.push_back(Entry{static_cast<std::uint16_t>(k),
                                static_cast<std::uint8_t>(r.u8() != 0), 0});
  }
  return ps;
}

void Thread::encode(support::BinWriter& w) const {
  w.u32(tid);
  rho.encode(w);
  phi.encode(w);
}

Thread Thread::decode(support::BinReader& r) {
  Thread t;
  t.tid = r.u32();
  t.rho = RegFile::decode(r);
  t.phi = PredState::decode(r);
  return t;
}

}  // namespace cac::sem
