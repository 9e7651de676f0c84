// SnapshotWriter: buffers typed sections in memory and commits them as
// one atomically written snapshot file (see snapshot_format.h for the
// layout).
#ifndef HDKP2P_STORE_SNAPSHOT_WRITER_H_
#define HDKP2P_STORE_SNAPSHOT_WRITER_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "store/snapshot_format.h"

namespace hdk::store {

/// Builds a snapshot file section by section. Usage:
///
///   SnapshotWriter w;
///   w.BeginSection(SectionId::kStats);
///   w.WriteU64(...); w.WriteArray<Freq>(...);
///   w.EndSection();
///   ... more sections ...
///   HDK_RETURN_NOT_OK(w.Commit(config_hash, store_hash, path));
///
/// Commit writes to `path + ".tmp"` and renames, so a crash mid-write
/// never leaves a truncated file under the final name.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  void BeginSection(SectionId id) {
    assert(!open_ && "BeginSection: previous section still open");
    sections_.push_back(Pending{id, {}});
    open_ = true;
  }

  void EndSection() {
    assert(open_ && "EndSection: no open section");
    open_ = false;
  }

  void WriteBytes(const void* data, size_t n) {
    assert(open_ && "Write*: no open section");
    std::vector<uint8_t>& out = sections_.back().bytes;
    const auto* bytes = static_cast<const uint8_t*>(data);
    out.insert(out.end(), bytes, bytes + n);
  }

  /// Zero-pads the open section to a multiple of `alignment` bytes.
  /// Payloads start 8-byte aligned in the file, so padding to 8 aligns
  /// the next write in the mapped file as well.
  void PadTo(size_t alignment) {
    assert(open_ && "PadTo: no open section");
    std::vector<uint8_t>& out = sections_.back().bytes;
    out.resize((out.size() + alignment - 1) / alignment * alignment, 0);
  }

  void WriteU8(uint8_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

  /// Raw image of a trivially copyable value. Only use for types without
  /// padding bytes (padding would leak indeterminate bytes into the
  /// checksum); padded structs are written field by field instead.
  template <typename T>
  void WritePod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&v, sizeof(T));
  }

  /// Element count (u64) followed by the raw array image — the bulk path
  /// the flat containers' dense entry/hash vectors serialize through.
  template <typename T>
  void WriteArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(values.size());
    if (!values.empty()) {
      WriteBytes(values.data(), values.size() * sizeof(T));
    }
  }
  template <typename T>
  void WriteArray(const std::vector<T>& values) {
    WriteArray(std::span<const T>(values));
  }

  size_t num_sections() const { return sections_.size(); }

  /// Assembles header + section table + payloads, checksums everything
  /// and writes the file atomically (temp file + rename).
  Status Commit(uint64_t config_hash, uint64_t store_hash,
                const std::string& path) const;

 private:
  struct Pending {
    SectionId id;
    std::vector<uint8_t> bytes;
  };

  std::vector<Pending> sections_;
  bool open_ = false;
};

}  // namespace hdk::store

#endif  // HDKP2P_STORE_SNAPSHOT_WRITER_H_
