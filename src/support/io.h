// Small file-I/O wrapper routing the durability-critical paths —
// checkpoint save and load, verdict-cache persist, serve journal, frame
// files (manifests and generation files) — through the fault-injection
// seam (support/fault.h).  Two write tiers:
//
//   write_file_atomic      throws IoError; callers that must react to
//                          disk faults (checkpoint save) use this
//   try_write_file_atomic  best-effort bool; callers whose correctness
//                          does not depend on the write (cache persist,
//                          journal) use this and count failures
//
// Both write tmp-then-rename so readers never observe a torn file, and
// fsync before rename when `sync` is set so a crash cannot leave a
// renamed-but-empty file.
#pragma once

#include <stdexcept>
#include <string>

namespace cac::support {

class IoError : public std::runtime_error {
 public:
  IoError(std::string msg, int err)
      : std::runtime_error(std::move(msg)), errno_(err) {}
  [[nodiscard]] int error_code() const { return errno_; }

 private:
  int errno_;
};

/// Read a whole file.  Throws IoError (with errno) on open/read
/// failure.  Consults fault_check("open"/"read", path).
std::string read_file(const std::string& path);

/// read_file, but a missing/unreadable file yields "" instead of a
/// throw.  Injected faults also yield "" (the degraded path).
std::string read_file_or_empty(const std::string& path);

/// Write `data` to `path` via tmp + rename.  When `sync`, fsync the
/// tmp file before the rename.  Throws IoError carrying the failing
/// errno; the tmp file is unlinked on failure.  Consults
/// fault_check("open"/"write"/"rename", path).
void write_file_atomic(const std::string& path, const std::string& data,
                       bool sync = true);

/// Best-effort write_file_atomic: returns false instead of throwing.
bool try_write_file_atomic(const std::string& path, const std::string& data,
                           bool sync = true) noexcept;

}  // namespace cac::support
