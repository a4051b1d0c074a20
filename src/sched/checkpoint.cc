#include "sched/checkpoint.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "ptx/program.h"
#include "sched/checkpoint_codec.h"
#include "support/binio.h"
#include "support/io.h"

namespace cac::sched {

// The choice/options codec lives in sched::codec (checkpoint_codec.h)
// so the distributed explorer's frames and per-worker checkpoint files
// stay byte-compatible with this format.
namespace codec {

using support::BinReader;
using support::BinWriter;

void encode_choice(BinWriter& w, const sem::Choice& c) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.u32(c.block);
  w.u32(c.warp);
}

sem::Choice decode_choice(BinReader& r) {
  sem::Choice c;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(sem::Choice::Kind::LiftBar)) {
    throw support::BinError("bad choice kind");
  }
  c.kind = static_cast<sem::Choice::Kind>(kind);
  c.block = r.u32();
  c.warp = r.u32();
  return c;
}

void encode_choices(BinWriter& w, const std::vector<sem::Choice>& cs) {
  w.u64(cs.size());
  for (const sem::Choice& c : cs) encode_choice(w, c);
}

std::vector<sem::Choice> decode_choices(BinReader& r) {
  const std::uint64_t n = r.count(9);  // u8 kind + 2x u32
  std::vector<sem::Choice> cs;
  cs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cs.push_back(decode_choice(r));
  return cs;
}

void encode_options(BinWriter& w, const ExploreOptions& o) {
  w.u64(o.max_depth);
  w.u64(o.max_states);
  w.u8(o.stop_at_first_violation ? 1 : 0);
  w.u8(o.partial_order_reduction ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(o.step_opts.order.kind));
  w.u64(o.step_opts.order.perm.size());
  for (const std::uint32_t p : o.step_opts.order.perm) w.u32(p);
  w.u8(o.step_opts.log_accesses ? 1 : 0);
  w.u64(o.por_independent_pcs.size());
  for (const std::uint32_t pc : o.por_independent_pcs) w.u32(pc);
}

ExploreOptions decode_options(BinReader& r) {
  ExploreOptions o;
  o.max_depth = r.u64();
  o.max_states = r.u64();
  o.stop_at_first_violation = r.u8() != 0;
  o.partial_order_reduction = r.u8() != 0;
  const std::uint8_t order = r.u8();
  if (order > static_cast<std::uint8_t>(sem::ThreadOrder::Kind::Permuted)) {
    throw support::BinError("bad thread-order kind");
  }
  o.step_opts.order.kind = static_cast<sem::ThreadOrder::Kind>(order);
  const std::uint64_t np = r.count(sizeof(std::uint32_t));
  o.step_opts.order.perm.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    o.step_opts.order.perm.push_back(r.u32());
  }
  o.step_opts.log_accesses = r.u8() != 0;
  const std::uint64_t ni = r.count(sizeof(std::uint32_t));
  o.por_independent_pcs.reserve(ni);
  for (std::uint64_t i = 0; i < ni; ++i) {
    o.por_independent_pcs.push_back(r.u32());
  }
  return o;
}

}  // namespace codec

namespace {

using codec::decode_choice;
using codec::decode_choices;
using codec::decode_options;
using codec::encode_choice;
using codec::encode_choices;
using codec::encode_options;
using support::BinReader;
using support::BinWriter;

// "CACCKPT" + format family byte.  A change to the payload layout bumps
// kFormatVersion, not the magic.
constexpr char kMagic[8] = {'C', 'A', 'C', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

void encode_payload(BinWriter& w, const Checkpoint& ck) {
  w.u8(static_cast<std::uint8_t>(ck.engine));
  w.u64(ck.program_fp);
  w.u64(ck.config_fp);
  encode_options(w, ck.options);

  if (!ck.store) {
    throw CheckpointError(CheckpointError::Kind::Io,
                          "checkpoint has no state store");
  }
  ck.store->encode(w);

  if (ck.engine == Checkpoint::Engine::Serial) {
    w.u64(ck.states_visited);
    w.u64(ck.transitions);
    w.u64(ck.min_steps);
    w.u64(ck.max_steps);
    w.u8(static_cast<std::uint8_t>(ck.limit_hit));
    w.u8(ck.limits_hit ? 1 : 0);
    w.u64(ck.final_ids.size());
    for (const StateId id : ck.final_ids) w.u32(id.v);
    w.u64(ck.violations.size());
    for (const Violation& v : ck.violations) {
      w.u8(static_cast<std::uint8_t>(v.kind));
      w.str(v.message);
      encode_choices(w, v.trace);
    }
    w.u64(ck.colors.size());
    for (const auto& [id, color] : ck.colors) {
      w.u32(id);
      w.u8(color);
    }
    w.u64(ck.stack.size());
    for (const Checkpoint::SerialFrame& f : ck.stack) {
      w.u32(f.id.v);
      w.u64(f.next);
    }
    encode_choices(w, ck.path);
    return;
  }

  w.u32(ck.root.v);
  graph::encode_nodes(w, ck.nodes, graph::KeyWidth::k32);
  graph::encode_frontier(w, ck.frontier);
}

Checkpoint decode_payload(BinReader& r) {
  Checkpoint ck;
  const std::uint8_t engine = r.u8();
  if (engine > static_cast<std::uint8_t>(Checkpoint::Engine::Parallel)) {
    throw support::BinError("bad engine tag");
  }
  ck.engine = static_cast<Checkpoint::Engine>(engine);
  ck.program_fp = r.u64();
  ck.config_fp = r.u64();
  ck.options = decode_options(r);

  ck.store = std::make_shared<StateStore>();
  ck.store->decode(r);

  if (ck.engine == Checkpoint::Engine::Serial) {
    ck.states_visited = r.u64();
    ck.transitions = r.u64();
    ck.min_steps = r.u64();
    ck.max_steps = r.u64();
    const std::uint8_t limit = r.u8();
    if (limit > static_cast<std::uint8_t>(ExploreResult::Limit::Interrupted)) {
      throw support::BinError("bad limit tag");
    }
    ck.limit_hit = static_cast<ExploreResult::Limit>(limit);
    ck.limits_hit = r.u8() != 0;
    const std::uint64_t nf = r.count(sizeof(std::uint32_t));
    ck.final_ids.reserve(nf);
    for (std::uint64_t i = 0; i < nf; ++i) ck.final_ids.push_back({r.u32()});
    const std::uint64_t nv = r.count();
    ck.violations.reserve(nv);
    for (std::uint64_t i = 0; i < nv; ++i) {
      Violation v;
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(Violation::Kind::DepthExceeded)) {
        throw support::BinError("bad violation kind");
      }
      v.kind = static_cast<Violation::Kind>(kind);
      v.message = r.str();
      v.trace = decode_choices(r);
      ck.violations.push_back(std::move(v));
    }
    const std::uint64_t nc = r.count(5);  // u32 id + u8 color
    ck.colors.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) {
      const std::uint32_t id = r.u32();
      const std::uint8_t color = r.u8();
      if (color > 1) throw support::BinError("bad color tag");
      ck.colors.emplace_back(id, color);
    }
    const std::uint64_t ns = r.count(12);  // u32 id + u64 next
    ck.stack.reserve(ns);
    for (std::uint64_t i = 0; i < ns; ++i) {
      Checkpoint::SerialFrame f;
      f.id = {r.u32()};
      f.next = r.u64();
      ck.stack.push_back(f);
    }
    ck.path = decode_choices(r);
    return ck;
  }

  ck.root = {r.u32()};
  ck.nodes = graph::decode_nodes(r, graph::KeyWidth::k32);
  ck.frontier = graph::decode_frontier(r);
  return ck;
}

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void Checkpoint::save(const std::string& path) const {
  BinWriter w;
  encode_payload(w, *this);
  const std::string& payload = w.buffer();

  std::string file;
  file.reserve(kHeaderSize + payload.size());
  file.append(kMagic, sizeof(kMagic));
  put_u32(file, kFormatVersion);
  put_u32(file, 0);  // reserved
  put_u64(file, payload.size());
  put_u64(file, fnv1a(payload));
  file += payload;

  // Atomic write-then-rename (support::io, which also hosts the fault
  // seam): the previous checkpoint at `path` stays intact until the
  // new one is fully on disk.
  try {
    support::write_file_atomic(path, file);
  } catch (const support::IoError& e) {
    throw CheckpointError(CheckpointError::Kind::Io, e.what());
  }
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::string file;
  try {
    file = support::read_file(path);
  } catch (const support::IoError& e) {
    throw CheckpointError(CheckpointError::Kind::Io, e.what());
  }

  if (file.size() < kHeaderSize) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "truncated header in " + path);
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          path + " is not a checkpoint file");
  }
  const std::uint32_t version = get_u32(file.data() + 8);
  if (version != kFormatVersion) {
    throw CheckpointError(
        CheckpointError::Kind::VersionMismatch,
        path + " has format version " + std::to_string(version) +
            ", this build reads version " + std::to_string(kFormatVersion));
  }
  // The reserved word must be zero until a format revision assigns it
  // meaning — validating it keeps every header byte covered, so any
  // single-byte damage to the header is rejected structurally.
  if (get_u32(file.data() + 12) != 0) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "nonzero reserved header field in " + path);
  }
  const std::uint64_t payload_size = get_u64(file.data() + 16);
  if (payload_size != file.size() - kHeaderSize) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "truncated payload in " + path);
  }
  const std::string_view payload(file.data() + kHeaderSize, payload_size);
  if (fnv1a(payload) != get_u64(file.data() + 24)) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checksum mismatch in " + path);
  }

  try {
    BinReader r(payload);
    Checkpoint ck = decode_payload(r);
    if (!r.done()) {
      throw support::BinError("trailing bytes after payload");
    }
    return ck;
  } catch (const support::BinError& e) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          std::string(e.what()) + " in " + path);
  } catch (const KernelError& e) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          std::string(e.what()) + " in " + path);
  }
}

std::uint64_t program_fingerprint(const ptx::Program& prg) {
  return fnv1a(ptx::to_string(prg));
}

std::uint64_t config_fingerprint(const sem::KernelConfig& kc) {
  Hasher h;
  h.mix(kc.grid.x).mix(kc.grid.y).mix(kc.grid.z);
  h.mix(kc.block.x).mix(kc.block.y).mix(kc.block.z);
  h.mix(kc.warp_size);
  return h.value();
}

void verify_resume(const Checkpoint& ck, Checkpoint::Engine want,
                   const ptx::Program& prg, const sem::KernelConfig& kc,
                   const ExploreOptions& opts) {
  const auto fail = [](const std::string& msg) {
    throw CheckpointError(CheckpointError::Kind::Mismatch, msg);
  };
  if (ck.engine != want) {
    fail(ck.engine == Checkpoint::Engine::Serial
             ? "checkpoint was written by the serial engine; resume "
               "without --threads"
             : "checkpoint was written by the parallel engine; resume "
               "with --threads");
  }
  if (ck.program_fp != program_fingerprint(prg)) {
    fail("program differs from the checkpointed run");
  }
  if (ck.config_fp != config_fingerprint(kc)) {
    fail("kernel configuration differs from the checkpointed run");
  }
  const ExploreOptions& co = ck.options;
  if (co.max_depth != opts.max_depth || co.max_states != opts.max_states) {
    fail("exploration bounds differ from the checkpointed run");
  }
  if (co.stop_at_first_violation != opts.stop_at_first_violation ||
      co.partial_order_reduction != opts.partial_order_reduction ||
      co.por_independent_pcs != opts.por_independent_pcs) {
    fail("exploration policy differs from the checkpointed run");
  }
  if (co.step_opts.order.kind != opts.step_opts.order.kind ||
      co.step_opts.order.perm != opts.step_opts.order.perm ||
      co.step_opts.log_accesses != opts.step_opts.log_accesses) {
    fail("step options differ from the checkpointed run");
  }
  if (!ck.store) fail("checkpoint carries no state store");
}

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

std::uint64_t working_set_bytes(std::uint64_t spilled) {
  const std::uint64_t rss = current_rss_bytes();
  return rss > spilled ? rss - spilled : 0;
}

std::string to_string(CheckpointError::Kind k) {
  switch (k) {
    case CheckpointError::Kind::Io: return "io";
    case CheckpointError::Kind::Corrupt: return "corrupt";
    case CheckpointError::Kind::VersionMismatch: return "version-mismatch";
    case CheckpointError::Kind::Mismatch: return "mismatch";
  }
  return "?";
}

}  // namespace cac::sched
