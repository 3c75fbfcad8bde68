#include "snapshot/codec.h"

#include <array>
#include <fstream>
#include <sstream>

namespace erms::snapshot {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo:
      return "io";
    case ErrorCode::kBadMagic:
      return "bad_magic";
    case ErrorCode::kBadVersion:
      return "bad_version";
    case ErrorCode::kCorrupt:
      return "corrupt";
    case ErrorCode::kBadSection:
      return "bad_section";
    case ErrorCode::kStateMismatch:
      return "state_mismatch";
  }
  return "?";
}

std::string SnapshotError::to_string() const {
  return std::string("snapshot error [") + snapshot::to_string(code) + "]: " + message;
}

namespace {
/// Slicing-by-8 tables: t[0] is the bytewise table; t[k][b] is the CRC
/// contribution of byte b followed by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    }
  }
  return t;
}

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFU;
  // Eight bytes per step: the running CRC folds into the first four, and
  // each byte's table accounts for the bytes still to come after it.
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
          t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

Writer::Writer() {
  buf_.append(kMagic, sizeof kMagic);
  u32(kFormatVersion);
  u32(0);  // section count, patched by finish()
}

void Writer::raw(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void Writer::begin_section(std::uint32_t tag) {
  in_section_ = true;
  u32(tag);
  section_start_ = buf_.size();
  u64(0);  // length, patched by end_section()
}

void Writer::end_section() {
  in_section_ = false;
  ++section_count_;
  const std::size_t payload_start = section_start_ + sizeof(std::uint64_t);
  const std::uint64_t length = buf_.size() - payload_start;
  std::memcpy(buf_.data() + section_start_, &length, sizeof length);
  u32(crc32(buf_.data() + payload_start, length));
}

std::string Writer::finish() {
  const std::size_t count_offset = sizeof kMagic + sizeof(std::uint32_t);
  std::memcpy(buf_.data() + count_offset, &section_count_, sizeof section_count_);
  return std::move(buf_);
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!ok() || size_ - pos_ < n) {
    if (ok()) {
      fail(ErrorCode::kBadSection, "string overruns payload");
    }
    return {};
  }
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

void Reader::fail(ErrorCode code, std::string message) {
  if (!error_.has_value()) {
    error_ = SnapshotError{code, std::move(message)};
  }
}

SnapshotResult parse_file(const std::string& bytes, std::vector<Section>& out) {
  out.clear();
  const std::size_t header = sizeof kMagic + 2 * sizeof(std::uint32_t);
  if (bytes.size() < header) {
    return SnapshotError{ErrorCode::kBadMagic,
                         "file too short to hold a snapshot header (" +
                             std::to_string(bytes.size()) + " bytes)"};
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return SnapshotError{ErrorCode::kBadMagic, "magic bytes are not ERMSNAP"};
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof kMagic, sizeof version);
  if (version != kFormatVersion) {
    return SnapshotError{ErrorCode::kBadVersion,
                         "snapshot format v" + std::to_string(version) +
                             ", this build reads v" + std::to_string(kFormatVersion)};
  }
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + sizeof kMagic + sizeof version, sizeof count);

  std::size_t pos = header;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t frame = sizeof(std::uint32_t) + sizeof(std::uint64_t);
    if (bytes.size() - pos < frame) {
      return SnapshotError{ErrorCode::kCorrupt,
                           "section " + std::to_string(i) + " frame truncated"};
    }
    std::uint32_t tag = 0;
    std::uint64_t length = 0;
    std::memcpy(&tag, bytes.data() + pos, sizeof tag);
    std::memcpy(&length, bytes.data() + pos + sizeof tag, sizeof length);
    pos += frame;
    if (bytes.size() - pos < length + sizeof(std::uint32_t)) {
      return SnapshotError{ErrorCode::kCorrupt,
                           "section " + std::to_string(i) + " payload truncated"};
    }
    const char* payload = bytes.data() + pos;
    pos += length;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + pos, sizeof stored_crc);
    pos += sizeof stored_crc;
    const std::uint32_t actual = crc32(payload, length);
    if (actual != stored_crc) {
      return SnapshotError{ErrorCode::kCorrupt,
                           "section " + std::to_string(i) + " (tag " +
                               std::to_string(tag) + ") CRC mismatch"};
    }
    out.push_back(Section{tag, payload, static_cast<std::size_t>(length)});
  }
  if (pos != bytes.size()) {
    return SnapshotError{ErrorCode::kCorrupt,
                         std::to_string(bytes.size() - pos) +
                             " trailing bytes after the last section"};
  }
  return std::nullopt;
}

SnapshotResult write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return SnapshotError{ErrorCode::kIo, "cannot open " + path + " for writing"};
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return SnapshotError{ErrorCode::kIo, "short write to " + path};
  }
  return std::nullopt;
}

SnapshotResult read_file(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return SnapshotError{ErrorCode::kIo, "cannot open " + path};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  bytes = ss.str();
  return std::nullopt;
}

}  // namespace erms::snapshot
