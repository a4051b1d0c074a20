// Threads (paper §III-7): θ = (tid, ρ, φ) — an enumerated id, a private
// register file, and a predicate state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptx/operand.h"
#include "support/hash.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sem {

/// The register file ρ : reg -> Z.  Values are stored as canonical
/// 64-bit bit patterns truncated to the register's width.  Reads of
/// never-written registers are reported to the caller (the semantics
/// kernel turns them into uninitialized-read diagnostics) and read as
/// zero, which matches the all-zero launch state of a register file.
///
/// Stored flat: one contiguous vector of (Reg::key(), bits) entries
/// sorted by key, so a copy is one allocation plus a memcpy, equality
/// is one memcmp, and hashing and encoding walk the entries in key
/// order (the order the stored hashes and checkpoint bytes are
/// defined by).
class RegFile {
 public:
  [[nodiscard]] std::uint64_t read(const ptx::Reg& r) const;
  [[nodiscard]] std::optional<std::uint64_t> read_opt(const ptx::Reg& r) const;
  void write(const ptx::Reg& r, std::uint64_t value);
  [[nodiscard]] std::size_t written_count() const { return entries_.size(); }
  /// Heap bytes a copy holds: copies allocate exactly the entries
  /// (store footprint accounting).
  [[nodiscard]] std::size_t heap_bytes() const {
    return entries_.size() * sizeof(Entry);
  }

  friend bool operator==(const RegFile& a, const RegFile& b);
  void mix_hash(Hasher& h) const;

  /// Checkpoint codec (sched/checkpoint.h).  decode throws
  /// support::BinError on malformed input, including keys that are not
  /// strictly increasing.
  void encode(support::BinWriter& w) const;
  static RegFile decode(support::BinReader& r);

 private:
  struct Entry {
    std::uint32_t key;      // Reg::key()
    std::uint32_t pad = 0;  // always zero: entries compare by memcmp
    std::uint64_t bits;
  };
  std::vector<Entry> entries_;  // strictly increasing keys
};

/// The predicate state φ : N -> B, flat like RegFile: (index, bool)
/// entries sorted by index.
class PredState {
 public:
  [[nodiscard]] bool read(const ptx::Pred& p) const;
  void write(const ptx::Pred& p, bool value);
  [[nodiscard]] std::size_t written_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t heap_bytes() const {
    return entries_.size() * sizeof(Entry);
  }

  friend bool operator==(const PredState& a, const PredState& b);
  void mix_hash(Hasher& h) const;

  void encode(support::BinWriter& w) const;
  static PredState decode(support::BinReader& r);

 private:
  struct Entry {
    std::uint16_t key;     // Pred::index
    std::uint8_t value;    // 0 or 1
    std::uint8_t pad = 0;  // always zero: entries compare by memcmp
  };
  std::vector<Entry> entries_;  // strictly increasing keys
};

struct Thread {
  std::uint32_t tid = 0;  // enumerated global id (paper §III-7)
  RegFile rho;
  PredState phi;

  friend bool operator==(const Thread&, const Thread&) = default;
  void mix_hash(Hasher& h) const;

  void encode(support::BinWriter& w) const;
  static Thread decode(support::BinReader& r);
};

using ThreadVec = std::vector<Thread>;

}  // namespace cac::sem
