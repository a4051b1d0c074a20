#include "dist/wire.h"

#include <cstring>

#include "sched/checkpoint_codec.h"
#include "sem/state.h"
#include "support/binio.h"
#include "support/hash.h"
#include "support/io.h"

namespace cac::dist {

using support::BinError;
using support::BinReader;
using support::BinWriter;

std::string to_string(DistError::Kind k) {
  switch (k) {
    case DistError::Kind::Io: return "io";
    case DistError::Kind::Corrupt: return "corrupt";
    case DistError::Kind::VersionMismatch: return "version-mismatch";
    case DistError::Kind::Protocol: return "protocol";
    case DistError::Kind::PeerDied: return "peer-died";
    case DistError::Kind::Timeout: return "timeout";
  }
  return "?";
}

// --- frame layer -----------------------------------------------------

namespace {

constexpr char kMagic[4] = {'C', 'A', 'C', 'F'};

void put_u16(std::string& s, std::uint16_t v) {
  s.push_back(static_cast<char>(v & 0xff));
  s.push_back(static_cast<char>((v >> 8) & 0xff));
}
void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<unsigned char>(p[1]) << 8));
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw DistError(DistError::Kind::Corrupt, what);
}

void encode_gid(BinWriter& w, Gid g) { w.u64(g.v); }
Gid decode_gid(BinReader& r) { return Gid{r.u64()}; }

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw DistError(DistError::Kind::Protocol, "frame payload over cap");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kProtoVersion));
  out.push_back(static_cast<char>(type));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  // The checksum covers the header prefix (magic through length) as
  // well as the payload, so a flipped frame-type or length byte cannot
  // masquerade as a valid frame of another shape.
  const std::uint64_t sum =
      fnv1a(payload.data(), payload.size(), fnv1a(out.data(), out.size()));
  put_u64(out, sum);
  out.append(payload.data(), payload.size());
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderSize) return std::nullopt;
  const char* h = buf_.data() + pos_;
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    corrupt("bad frame magic");
  }
  // The type and reserved fields are this version's; a frame of
  // another version is judged by its checksum alone (below).
  const auto version = static_cast<std::uint8_t>(h[4]);
  const auto type = static_cast<std::uint8_t>(h[5]);
  if (version == kProtoVersion) {
    if (type < static_cast<std::uint8_t>(FrameType::kSetup) ||
        type > static_cast<std::uint8_t>(FrameType::kServeEvent)) {
      corrupt("unknown frame type " + std::to_string(type));
    }
    if (get_u16(h + 6) != 0) corrupt("nonzero reserved frame field");
  }
  const std::uint64_t len = get_u32(h + 8);
  if (len > kMaxFramePayload) corrupt("frame payload length over cap");
  if (buf_.size() - pos_ - kFrameHeaderSize < len) return std::nullopt;
  const std::string_view payload(buf_.data() + pos_ + kFrameHeaderSize,
                                 len);
  const std::uint64_t want =
      fnv1a(payload.data(), payload.size(), fnv1a(h, 12));
  if (want != get_u64(h + 12)) corrupt("frame checksum mismatch");
  // Checked after the checksum, so that a damaged version byte is
  // reported as damage and only an intact foreign frame as skew.
  if (version != kProtoVersion) {
    throw DistError(DistError::Kind::VersionMismatch,
                    "frame protocol version " + std::to_string(version) +
                        ", this build speaks " +
                        std::to_string(kProtoVersion));
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(payload);
  pos_ += kFrameHeaderSize + len;
  return f;
}

// --- message payloads ------------------------------------------------

void SetupMsg::encode(BinWriter& w) const {
  w.u32(worker_index);
  w.u32(n_workers);
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.str(checkpoint_base);
  w.u8(resume);
  w.str(resume_base);
  w.u64(generation);
  w.u32(die_worker);
  w.u64(die_after_states);
  w.u64(die_after_generation);
  w.str(options.store_spill_dir);
  w.u64(options.store_resident_budget_bytes);
  w.u64(options.store_bloom_bits);
  w.u32(options.store_delta_depth);
}

SetupMsg SetupMsg::decode(BinReader& r) {
  SetupMsg m;
  m.worker_index = r.u32();
  m.n_workers = r.u32();
  if (m.n_workers == 0 || m.worker_index >= m.n_workers) {
    throw BinError("bad worker identity in setup");
  }
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.checkpoint_base = r.str();
  m.resume = r.u8();
  if (m.resume > 1) throw BinError("bad resume flag in setup");
  m.resume_base = r.str();
  m.generation = r.u64();
  m.die_worker = r.u32();
  m.die_after_states = r.u64();
  m.die_after_generation = r.u64();
  m.options.store_spill_dir = r.str();
  m.options.store_resident_budget_bytes = r.u64();
  m.options.store_bloom_bits = r.u64();
  m.options.store_delta_depth = r.u32();
  return m;
}

void StateMsg::encode(BinWriter& w) const {
  w.u32(target);
  encode_gid(w, parent);
  w.u32(edge_index);
  w.u32(mirror_id);
  w.u64(depth);
  w.str(state);
}

StateMsg StateMsg::decode(BinReader& r) {
  StateMsg m;
  m.target = r.u32();
  m.parent = decode_gid(r);
  m.edge_index = r.u32();
  m.mirror_id = r.u32();
  m.depth = r.u64();
  m.state = r.str();
  return m;
}

void ResolveMsg::encode(BinWriter& w) const {
  w.u32(target);
  encode_gid(w, parent);
  w.u32(edge_index);
  w.u32(mirror_id);
  w.u8(overflow);
  encode_gid(w, child);
}

ResolveMsg ResolveMsg::decode(BinReader& r) {
  ResolveMsg m;
  m.target = r.u32();
  m.parent = decode_gid(r);
  m.edge_index = r.u32();
  m.mirror_id = r.u32();
  m.overflow = r.u8();
  if (m.overflow > 1) throw BinError("bad overflow flag in resolve");
  m.child = decode_gid(r);
  if (m.overflow == 0 && !m.child.valid()) {
    throw BinError("resolve carries no child and no overflow");
  }
  return m;
}

void RootAckMsg::encode(BinWriter& w) const { encode_gid(w, root); }

RootAckMsg RootAckMsg::decode(BinReader& r) {
  return RootAckMsg{decode_gid(r)};
}

void ProbeMsg::encode(BinWriter& w) const { w.u64(nonce); }

ProbeMsg ProbeMsg::decode(BinReader& r) { return ProbeMsg{r.u64()}; }

void ProbeAckMsg::encode(BinWriter& w) const {
  w.u64(nonce);
  w.u32(worker);
  w.u64(sent);
  w.u64(processed);
  w.u8(idle);
  w.u8(paused);
  w.u64(owned);
  w.u64(rss_bytes);
}

ProbeAckMsg ProbeAckMsg::decode(BinReader& r) {
  ProbeAckMsg m;
  m.nonce = r.u64();
  m.worker = r.u32();
  m.sent = r.u64();
  m.processed = r.u64();
  m.idle = r.u8();
  if (m.idle > 1) throw BinError("bad idle flag in probe ack");
  m.paused = r.u8();
  if (m.paused > 1) throw BinError("bad paused flag in probe ack");
  m.owned = r.u64();
  m.rss_bytes = r.u64();
  return m;
}

void WriteCheckpointMsg::encode(BinWriter& w) const { w.u64(generation); }

WriteCheckpointMsg WriteCheckpointMsg::decode(BinReader& r) {
  return WriteCheckpointMsg{r.u64()};
}

void CheckpointAckMsg::encode(BinWriter& w) const {
  w.u32(worker);
  w.u8(ok);
  w.str(error);
}

CheckpointAckMsg CheckpointAckMsg::decode(BinReader& r) {
  CheckpointAckMsg m;
  m.worker = r.u32();
  m.ok = r.u8();
  if (m.ok > 1) throw BinError("bad ok flag in checkpoint ack");
  m.error = r.str();
  return m;
}

void GraphPartMsg::encode(BinWriter& w) const {
  w.u32(worker);
  w.u8(has_root);
  w.u32(root_local);
  w.str(store);
  sched::graph::encode_nodes(w, nodes, sched::graph::KeyWidth::k64);
  w.u64(owned);
  w.u64(frontier_sent);
  w.u64(resolves_sent);
  w.u64(bytes_sent);
  w.u64(bytes_received);
  for (const auto field : sched::StateStore::Stats::kCounters) {
    w.u64(store_stats.*field);
  }
}

GraphPartMsg GraphPartMsg::decode(BinReader& r) {
  GraphPartMsg m;
  m.worker = r.u32();
  m.has_root = r.u8();
  if (m.has_root > 1) throw BinError("bad root flag in graph part");
  m.root_local = r.u32();
  m.store = r.str();
  m.nodes = sched::graph::decode_nodes(r, sched::graph::KeyWidth::k64);
  m.owned = r.u64();
  m.frontier_sent = r.u64();
  m.resolves_sent = r.u64();
  m.bytes_sent = r.u64();
  m.bytes_received = r.u64();
  for (const auto field : sched::StateStore::Stats::kCounters) {
    m.store_stats.*field = r.u64();
  }
  return m;
}

void WorkerCheckpointMsg::encode(BinWriter& w) const {
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.u32(n_workers);
  w.u32(worker_index);
  w.u64(generation);
  w.u8(has_root);
  w.u32(root_local);
  w.str(store);
  sched::graph::encode_nodes(w, nodes, sched::graph::KeyWidth::k64);
  sched::graph::encode_frontier(w, frontier);
}

WorkerCheckpointMsg WorkerCheckpointMsg::decode(BinReader& r) {
  WorkerCheckpointMsg m;
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.n_workers = r.u32();
  m.worker_index = r.u32();
  if (m.n_workers == 0 || m.worker_index >= m.n_workers) {
    throw BinError("bad worker identity in checkpoint");
  }
  m.generation = r.u64();
  m.has_root = r.u8();
  if (m.has_root > 1) throw BinError("bad root flag in checkpoint");
  m.root_local = r.u32();
  m.store = r.str();
  m.nodes = sched::graph::decode_nodes(r, sched::graph::KeyWidth::k64);
  m.frontier = sched::graph::decode_frontier(r);
  return m;
}

void ManifestMsg::encode(BinWriter& w) const {
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.u32(n_workers);
  w.u64(generation);
  encode_gid(w, root);
}

ManifestMsg ManifestMsg::decode(BinReader& r) {
  ManifestMsg m;
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.n_workers = r.u32();
  if (m.n_workers == 0) throw BinError("bad worker count in manifest");
  m.generation = r.u64();
  m.root = decode_gid(r);
  return m;
}

// --- helpers ---------------------------------------------------------

void encode_machine_as_state(const sem::Machine& m, BinWriter& w) {
  // Must stay byte-identical to StateStore::encode_state for the same
  // machine: the receiver decodes both through decode_state.
  w.u64(m.hash());
  w.u64(m.grid.blocks.size());
  for (const sem::Block& b : m.grid.blocks) {
    w.u64(b.warps.size());
    for (const sem::WarpRef& warp : b.warps) warp->encode(w);
  }
  const auto& shared = m.memory.shared_bank_refs();
  w.u64(shared.size());
  for (const mem::Memory::BankRef& b : shared) b->encode(w);
  m.memory.bank_ref(mem::Space::Global)->encode(w);
  m.memory.bank_ref(mem::Space::Const)->encode(w);
  m.memory.bank_ref(mem::Space::Param)->encode(w);
  w.u64(m.memory.shared_size());
}

void write_frame_file(const std::string& path, FrameType type,
                      std::string_view payload) {
  try {
    support::write_file_atomic(path, encode_frame(type, payload));
  } catch (const support::IoError& e) {
    throw sched::CheckpointError(sched::CheckpointError::Kind::Io, e.what());
  }
}

Frame load_frame_file(const std::string& path, FrameType want) {
  std::string bytes;
  try {
    bytes = support::read_file(path);
  } catch (const support::IoError& e) {
    throw sched::CheckpointError(sched::CheckpointError::Kind::Io, e.what());
  }
  try {
    FrameReader fr;
    fr.feed(bytes.data(), bytes.size());
    std::optional<Frame> f = fr.next();
    if (!f.has_value() || !fr.idle()) {
      throw DistError(DistError::Kind::Corrupt,
                      "truncated or trailing bytes");
    }
    if (f->type != want) {
      throw DistError(DistError::Kind::Corrupt, "unexpected frame type");
    }
    return std::move(*f);
  } catch (const DistError& e) {
    throw sched::CheckpointError(
        e.kind() == DistError::Kind::VersionMismatch
            ? sched::CheckpointError::Kind::VersionMismatch
            : sched::CheckpointError::Kind::Corrupt,
        std::string(e.what()) + " in " + path);
  }
}

std::string worker_checkpoint_path(const std::string& base,
                                   std::uint64_t generation,
                                   std::uint32_t worker) {
  return base + ".g" + std::to_string(generation) + ".w" +
         std::to_string(worker);
}

}  // namespace cac::dist
