#include "turboflux/common/serialize.h"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>

namespace turboflux {
namespace bin {

bool Reader::GetLength(uint32_t* n, uint64_t max_elems) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (len > max_elems) return false;
  *n = len;
  return true;
}

namespace {

// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[k][b] is
// the CRC contribution of byte b followed by k zero bytes, so one lookup
// per byte folds a 16-byte block with no dependency between lookups.
constexpr size_t kSlice = 16;
using CrcTables = std::array<std::array<uint32_t, 256>, kSlice>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < kSlice; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Folds the little-endian word at block offset kSlice-4-slot. Byte j of a
// block takes table kSlice-1-j, so the word's four bytes take tables
// slot+3 down to slot.
inline uint32_t FoldWord(uint32_t w, size_t slot) {
  const CrcTables& t = kCrcTables;
  return t[slot + 3][w & 0xff] ^ t[slot + 2][(w >> 8) & 0xff] ^
         t[slot + 1][(w >> 16) & 0xff] ^ t[slot][w >> 24];
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= kSlice; p += kSlice, n -= kSlice) {
    crc = FoldWord(LoadU32(p) ^ crc, 12) ^ FoldWord(LoadU32(p + 4), 8) ^
          FoldWord(LoadU32(p + 8), 4) ^ FoldWord(LoadU32(p + 12), 0);
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteSection(std::ostream& out, uint32_t tag,
                    const std::string& payload) {
  std::string header;
  PutU32(header, tag);
  PutU64(header, payload.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::string footer;
  PutU32(footer, Crc32(payload));
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out) return Status::IoError("short write while emitting section");
  return Status::Ok();
}

Status ReadSection(std::istream& in, uint32_t expected_tag,
                   std::string* payload) {
  char header[12];
  in.read(header, sizeof(header));
  if (in.gcount() != sizeof(header)) {
    return Status::Corruption("truncated section header");
  }
  Reader hr(std::string_view(header, sizeof(header)));
  uint32_t tag = 0;
  uint64_t size = 0;
  hr.GetU32(&tag);
  hr.GetU64(&size);
  if (tag != expected_tag) {
    return Status::Corruption("unexpected section tag " + std::to_string(tag) +
                              " (want " + std::to_string(expected_tag) + ")");
  }
  if (size > kMaxSectionBytes) {
    return Status::Corruption("absurd section size " + std::to_string(size));
  }
  payload->resize(size);
  if (size > 0) {
    in.read(payload->data(), static_cast<std::streamsize>(size));
    if (static_cast<uint64_t>(in.gcount()) != size) {
      return Status::Corruption("truncated section payload");
    }
  }
  char footer[4];
  in.read(footer, sizeof(footer));
  if (in.gcount() != sizeof(footer)) {
    return Status::Corruption("truncated section checksum");
  }
  Reader fr(std::string_view(footer, sizeof(footer)));
  uint32_t stored_crc = 0;
  fr.GetU32(&stored_crc);
  if (stored_crc != Crc32(*payload)) {
    return Status::Corruption("section checksum mismatch (tag " +
                              std::to_string(tag) + ")");
  }
  return Status::Ok();
}

}  // namespace bin
}  // namespace turboflux
