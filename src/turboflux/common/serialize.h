#ifndef TURBOFLUX_COMMON_SERIALIZE_H_
#define TURBOFLUX_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "turboflux/common/status.h"

namespace turboflux {
namespace bin {

/// Little-endian binary encoding primitives plus CRC32-framed sections —
/// the substrate of the checkpoint format (DESIGN.md §3.7). Writers append
/// to a std::string payload; the bounds-checked Reader never reads past
/// the payload, so corrupted length fields fail cleanly instead of
/// crashing.

/// Little-endian loads from raw bytes. The shift-and-or form is
/// byte-order independent and compiles to one load on little-endian hosts.
inline uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

inline uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

/// Stores `v` little-endian at `p` and returns the position after it.
/// Encoders that size their buffer once fill it in place with these.
inline char* StoreU32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v);
  p[1] = static_cast<char>(v >> 8);
  p[2] = static_cast<char>(v >> 16);
  p[3] = static_cast<char>(v >> 24);
  return p + 4;
}

inline char* StoreU64(char* p, uint64_t v) {
  p = StoreU32(p, static_cast<uint32_t>(v));
  return StoreU32(p, static_cast<uint32_t>(v >> 32));
}

/// Appends `v` in little-endian order as one bulk append (one capacity
/// check instead of one per byte).
inline void PutU8(std::string& buf, uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

inline void PutU32(std::string& buf, uint32_t v) {
  char b[4];
  StoreU32(b, v);
  buf.append(b, sizeof(b));
}

inline void PutU64(std::string& buf, uint64_t v) {
  char b[8];
  StoreU64(b, v);
  buf.append(b, sizeof(b));
}

/// Bounds-checked cursor over an encoded payload. Every Get returns false
/// (leaving the output untouched) once the payload is exhausted.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  /// Bulk read: returns a pointer to the next `n` bytes and advances past
  /// them, or nullptr (without advancing) when fewer remain. Decoders
  /// check a whole run of fixed-width fields once, then Load* from it.
  const char* Take(size_t n) {
    if (remaining() < n) return nullptr;
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Reads a u32 length field and fails unless at least that many bytes
  /// remain AND the length is at most `max_elems` (corruption guard for
  /// element-count fields).
  bool GetLength(uint32_t* n, uint64_t max_elems);

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`,
/// computed slice-by-16: sixteen independent table lookups per 16-byte
/// block instead of a dependent chain of one per byte, with the same
/// values as the byte-wise Sarwate loop.
uint32_t Crc32(std::string_view data);

/// Section framing: tag (u32), payload size (u64), payload bytes, CRC32 of
/// the payload (u32). A checkpoint is a fixed header followed by a fixed
/// sequence of sections.
Status WriteSection(std::ostream& out, uint32_t tag,
                    const std::string& payload);

/// Reads one section and verifies its tag and checksum. On any mismatch
/// (wrong tag, truncated stream, CRC failure, absurd size) returns a
/// kCorruption/kIoError status and leaves `payload` unspecified.
Status ReadSection(std::istream& in, uint32_t expected_tag,
                   std::string* payload);

/// Cap on a single section's payload; a corrupted size field larger than
/// this is reported as corruption instead of attempting the allocation.
inline constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 34;  // 16 GiB

}  // namespace bin
}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_SERIALIZE_H_
