// Binary codec substrate of the checkpoint, WAL and match-log formats
// (common/serialize.h): the sliced CRC-32 against known answers and a
// byte-at-a-time reference, little-endian encoding, and the bounds
// discipline of the Reader's bulk reads.

#include "turboflux/common/serialize.h"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "turboflux/common/rng.h"

namespace turboflux {
namespace bin {
namespace {

// The classic Sarwate loop over the reflected IEEE polynomial, one table
// lookup per byte: the reference the sliced Crc32 must equal.
uint32_t ReferenceCrc32(std::string_view data) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Serialize, Crc32KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Serialize, Crc32MatchesBytewiseReferenceAtEveryOffset) {
  // Every length 0..1024 from every start offset 0..7, so each alignment
  // and each tail length of the 8-byte slicing loop is covered.
  Rng rng(20260);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      std::string_view data(buf.data() + offset, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Serialize, EncodesLittleEndian) {
  std::string buf;
  PutU8(buf, 0xab);
  PutU32(buf, 0x01020304u);
  PutU64(buf, 0x1112131415161718ull);
  EXPECT_EQ(buf, std::string("\xab\x04\x03\x02\x01"
                             "\x18\x17\x16\x15\x14\x13\x12\x11",
                             13));
  Reader r(buf);
  uint8_t a = 0;
  uint32_t b = 0;
  uint64_t c = 0;
  ASSERT_TRUE(r.GetU8(&a) && r.GetU32(&b) && r.GetU64(&c));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0x01020304u);
  EXPECT_EQ(c, 0x1112131415161718ull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TakeNeverReadsPastThePayload) {
  std::string buf;
  PutU32(buf, 7);
  PutU32(buf, 9);
  Reader r(buf);
  EXPECT_EQ(r.Take(9), nullptr);  // too long: nothing consumed
  EXPECT_EQ(r.remaining(), 8u);
  const char* p = r.Take(8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(LoadU32(p), 7u);
  EXPECT_EQ(LoadU32(p + 4), 9u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.Take(1), nullptr);
  uint32_t v = 42;
  EXPECT_FALSE(r.GetU32(&v));
  EXPECT_EQ(v, 42u);  // a failed Get leaves its output untouched
}

}  // namespace
}  // namespace bin
}  // namespace turboflux
