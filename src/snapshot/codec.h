#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace erms::snapshot {

/// Why a snapshot failed to save or load. Structured so callers (and tests)
/// can branch on the class of failure instead of parsing prose.
enum class ErrorCode {
  kIo,             // file missing / unreadable / unwritable
  kBadMagic,       // not a snapshot file at all
  kBadVersion,     // written by an incompatible format version
  kCorrupt,        // framing or CRC mismatch — bytes damaged in flight
  kBadSection,     // a section is missing, duplicated, or undecodable
  kStateMismatch,  // snapshot is valid but does not fit this live world
};

const char* to_string(ErrorCode code);

struct SnapshotError {
  ErrorCode code;
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// nullopt = success; the whole snapshot API reports through this.
using SnapshotResult = std::optional<SnapshotError>;

/// CRC-32 (IEEE 802.3 polynomial, same as zlib) over a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

// ---------------------------------------------------------------------------
// File format (all integers little-endian):
//   magic   8 bytes  "ERMSNAP\0"
//   version u32
//   count   u32                       number of sections
//   section × count:
//     tag     u32
//     length  u64                     payload bytes
//     payload length bytes
//     crc     u32                     crc32(payload)
// The header is validated field-by-field (magic, then version) before any
// CRC runs, so a version-skewed file reports kBadVersion, not kCorrupt.
// ---------------------------------------------------------------------------

inline constexpr char kMagic[8] = {'E', 'R', 'M', 'S', 'N', 'A', 'P', '\0'};
inline constexpr std::uint32_t kFormatVersion = 2;

/// Serializes one snapshot file: primitives append to a growing buffer,
/// sections frame component payloads with tag/length/CRC.
class Writer {
 public:
  Writer();

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  /// Bit-exact: the raw 64-bit pattern, so NaNs and signed zeros survive.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t size);

  /// Open a section; every write until end_section() lands in its payload.
  /// Sections do not nest.
  void begin_section(std::uint32_t tag);
  void end_section();

  /// Patch the section count and hand over the complete file image.
  [[nodiscard]] std::string finish();

 private:
  std::string buf_;
  std::size_t section_start_{0};  // offset of current section's length field
  bool in_section_{false};
  std::uint32_t section_count_{0};
};

/// Bounds-checked reads over one section's payload. The first failed read
/// (or explicit fail()) latches an error; subsequent reads return zero
/// values so decoders can bail out without checking every call.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return read_int<std::uint8_t>(); }
  std::uint16_t u16() { return read_int<std::uint16_t>(); }
  std::uint32_t u32() { return read_int<std::uint32_t>(); }
  std::uint64_t u64() { return read_int<std::uint64_t>(); }
  std::int64_t i64() { return read_int<std::int64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str();

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  [[nodiscard]] const SnapshotError& error() const { return *error_; }

  /// Latch a decode failure (first one wins).
  void fail(ErrorCode code, std::string message);
  /// kStateMismatch unless `cond` holds; returns `cond` so decoders can
  /// bail out of loops early.
  bool require(bool cond, const std::string& what) {
    if (!cond) {
      fail(ErrorCode::kStateMismatch, what);
    }
    return cond;
  }

 private:
  template <typename T>
  T read_int() {
    if (!ok() || size_ - pos_ < sizeof(T)) {
      if (ok()) {
        fail(ErrorCode::kBadSection, "payload truncated");
      }
      return T{};
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_{0};
  std::optional<SnapshotError> error_;
};

/// One validated section of a parsed snapshot file.
struct Section {
  std::uint32_t tag;
  const char* data;
  std::size_t size;
};

/// Validate a whole file image — magic, version, framing, every section
/// CRC — without touching any live state. On success `out` maps each
/// section onto the (still caller-owned) byte buffer.
SnapshotResult parse_file(const std::string& bytes, std::vector<Section>& out);

/// Whole-file I/O helpers (kIo on failure).
SnapshotResult write_file(const std::string& path, const std::string& bytes);
SnapshotResult read_file(const std::string& path, std::string& bytes);

}  // namespace erms::snapshot
