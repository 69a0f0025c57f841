#include "safedm/common/hash.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "safedm/common/rng.hpp"

namespace safedm {
namespace {

TEST(Fnv1a, KnownVector) {
  // FNV-1a 64-bit of "a" is 0xAF63DC4C8601EC8C.
  const u8 a = 'a';
  EXPECT_EQ(fnv1a({&a, 1}), 0xAF63DC4C8601EC8Cull);
}

TEST(Fnv1a, StreamingMatchesOrderSensitivity) {
  Fnv1a64 h1, h2;
  h1.add(1);
  h1.add(2);
  h2.add(2);
  h2.add(1);
  EXPECT_NE(h1.value(), h2.value());
}

TEST(Fnv1a, BitAndWordDiffer) {
  Fnv1a64 h1, h2;
  h1.add_bit(true);
  h2.add_bit(false);
  EXPECT_NE(h1.value(), h2.value());
}

TEST(Crc32, KnownVector) {
  // CRC-32 (IEEE) of "123456789" is 0xCBF43926.
  Crc32 crc;
  for (char c : {'1', '2', '3', '4', '5', '6', '7', '8', '9'})
    crc.add_byte(static_cast<u8>(c));
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, SensitiveToSingleBit) {
  Crc32 a, b;
  a.add(0x123456789ABCDEF0ull);
  b.add(0x123456789ABCDEF1ull);
  EXPECT_NE(a.value(), b.value());
}

/// Byte-at-a-time, bitwise CRC-32: shares no table with Crc32.
class BitwiseCrc32 {
 public:
  void add_byte(u8 byte) {
    reg_ ^= byte;
    for (int k = 0; k < 8; ++k) reg_ = (reg_ >> 1) ^ (0xEDB88320u & (0u - (reg_ & 1u)));
  }
  void add(u64 word) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<u8>(word >> (8 * i)));
  }
  void add32(u32 word) {
    for (int i = 0; i < 4; ++i) add_byte(static_cast<u8>(word >> (8 * i)));
  }
  u32 value() const { return ~reg_; }

 private:
  u32 reg_ = 0xFFFFFFFFu;
};

TEST(Crc32, SlicedWordsMatchByteAtATimeReference) {
  // add (slice-by-8) and add32 (slice-by-4) on random words, with single
  // bytes interleaved so the words land at every register phase.
  Xoshiro256 rng(0xC3C32);
  Crc32 sliced;
  BitwiseCrc32 reference;
  for (int i = 0; i < 20000; ++i) {
    const u64 word = rng.next();
    switch (rng.below(3)) {
      case 0:
        sliced.add(word);
        reference.add(word);
        break;
      case 1:
        sliced.add32(static_cast<u32>(word));
        reference.add32(static_cast<u32>(word));
        break;
      default:
        sliced.add_byte(static_cast<u8>(word));
        reference.add_byte(static_cast<u8>(word));
        break;
    }
    ASSERT_EQ(sliced.value(), reference.value()) << "step " << i;
  }
}

TEST(Crc32Advance, EqualsRepeatedAdvance4) {
  Xoshiro256 rng(0xADFA);
  for (const unsigned words : {0u, 1u, 3u, 8u, 12u, 64u}) {
    const Crc32Advance advance(words);
    for (int i = 0; i < 200; ++i) {
      const u32 reg = static_cast<u32>(rng.next());
      u32 want = reg;
      for (unsigned w = 0; w < words; ++w) want = Crc32::advance4(want);
      ASSERT_EQ(advance(reg), want) << words << " words";
    }
  }
  // add32 is advance4 of the register xor the word.
  const u32 word = 0xDEADBEEFu;
  Crc32 crc;
  crc.add32(word);
  EXPECT_EQ(crc.value(), ~Crc32::advance4(Crc32::kInit ^ word));
}

}  // namespace
}  // namespace safedm
