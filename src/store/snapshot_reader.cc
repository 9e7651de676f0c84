#include "store/snapshot_reader.h"

#include <cstring>

namespace hdk::store {

namespace {

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError("snapshot '" + path + "': " + what);
}

}  // namespace

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  SnapshotReader reader;
  HDK_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path));
  const MappedFile& file = reader.file_;

  if (file.size() < sizeof(SnapshotHeader)) {
    return Corrupt(path, "smaller than the header (" +
                             std::to_string(file.size()) + " bytes)");
  }
  std::memcpy(&reader.header_, file.data(), sizeof(SnapshotHeader));
  const SnapshotHeader& header = reader.header_;
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Corrupt(path, "bad magic (not a snapshot file)");
  }
  if (header.format_version != kSnapshotFormatVersion) {
    return Corrupt(path, "format version " +
                             std::to_string(header.format_version) +
                             ", this build reads version " +
                             std::to_string(kSnapshotFormatVersion));
  }
  // An absurd section count means a corrupt header; reject before sizing
  // the table from it.
  if (header.num_sections > 1024) {
    return Corrupt(path, "implausible section count " +
                             std::to_string(header.num_sections));
  }
  const uint64_t table_bytes =
      uint64_t{header.num_sections} * sizeof(SectionEntry);
  if (file.size() - sizeof(SnapshotHeader) < table_bytes) {
    return Corrupt(path, "section table extends past end of file");
  }
  reader.table_.resize(header.num_sections);
  std::memcpy(reader.table_.data(), file.data() + sizeof(SnapshotHeader),
              table_bytes);
  if (SnapshotChecksum(reader.table_.data(), table_bytes) !=
      header.table_checksum) {
    return Corrupt(path, "section table checksum mismatch");
  }
  for (const SectionEntry& entry : reader.table_) {
    if (entry.offset > file.size() ||
        entry.length > file.size() - entry.offset) {
      return Corrupt(path, "section '" +
                               std::string(SectionIdName(
                                   static_cast<SectionId>(entry.id))) +
                               "' extends past end of file");
    }
    if (entry.offset % 8 != 0) {
      // The loader borrows posting and doc-id blobs straight out of the
      // mapping; they are aligned only if their section is.
      return Corrupt(path, "section '" +
                               std::string(SectionIdName(
                                   static_cast<SectionId>(entry.id))) +
                               "' payload is not 8-byte aligned");
    }
    if (SnapshotChecksum(file.data() + entry.offset, entry.length) !=
        entry.checksum) {
      return Corrupt(path, "section '" +
                               std::string(SectionIdName(
                                   static_cast<SectionId>(entry.id))) +
                               "' checksum mismatch");
    }
  }
  return reader;
}

Result<SectionCursor> SnapshotReader::Find(SectionId id) const {
  for (const SectionEntry& entry : table_) {
    if (entry.id == static_cast<uint32_t>(id)) {
      return SectionCursor(file_.data() + entry.offset, entry.length,
                           std::string(SectionIdName(id)));
    }
  }
  return Status::IOError("snapshot: missing section '" +
                         std::string(SectionIdName(id)) + "'");
}

}  // namespace hdk::store
