// Hash primitives used by the compressed-signature ablation (A2) and tests.
//
// The hardware SafeDM compares raw FIFO contents; a cheaper variant hashes
// each signature into a small word at the cost of a collision probability
// (a potential false negative). CRC32 models a realistic hardware
// compactor; FNV-1a is used for software-side containers.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "safedm/common/bits.hpp"

namespace safedm {

/// FNV-1a over a byte span (software hashing, containers, tests).
constexpr u64 fnv1a(std::span<const u8> data, u64 seed = 0xCBF29CE484222325ULL) noexcept {
  u64 h = seed;
  for (u8 b : data) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Incremental FNV-1a over 64-bit words; convenient for streaming FIFO
/// contents without materializing a byte buffer.
class Fnv1a64 {
 public:
  void add(u64 word) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_bit(bool b) noexcept {
    h_ ^= b ? 0x9Eu : 0x3Cu;
    h_ *= 0x100000001B3ULL;
  }
  u64 value() const noexcept { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ULL;
};

/// CRC-32 (IEEE 802.3, reflected) — the hardware-style signature compactor.
/// add() is slice-by-8 and add32() slice-by-4 over tables derived from the
/// byte table; every value is identical to the byte-at-a-time (and bitwise)
/// form. Words are fed least-significant byte first.
class Crc32 {
 public:
  /// The register before any input (value() inverts it on the way out).
  static constexpr u32 kInit = 0xFFFFFFFFu;

  void add(u64 word) noexcept {
    const u32 lo = crc_ ^ static_cast<u32>(word);
    const u32 hi = static_cast<u32>(word >> 32);
    crc_ = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
           kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
           kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  void add32(u32 word) noexcept { crc_ = advance4(crc_ ^ word); }
  void add_byte(u8 byte) noexcept { crc_ = (crc_ >> 8) ^ kTables[0][(crc_ ^ byte) & 0xFFu]; }
  u32 value() const noexcept { return ~crc_; }

  /// A raw register advanced over four zero bytes, so add32(w) is
  /// `reg = advance4(reg ^ w)`. The map is GF(2)-linear, which is what lets
  /// a windowed CRC be maintained incrementally (see Crc32Advance).
  static u32 advance4(u32 reg) noexcept {
    return kTables[3][reg & 0xFFu] ^ kTables[2][(reg >> 8) & 0xFFu] ^
           kTables[1][(reg >> 16) & 0xFFu] ^ kTables[0][reg >> 24];
  }

 private:
  // kTables[k][b]: the register after byte b followed by k zero bytes.
  static constexpr std::array<std::array<u32, 256>, 8> kTables = [] {
    std::array<std::array<u32, 256>, 8> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
      t[0][i] = c;
    }
    for (unsigned k = 1; k < 8; ++k)
      for (u32 i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  u32 crc_ = kInit;
};

/// Crc32::advance4 applied `words` times, tabulated: a GF(2)-linear map on
/// the 32-bit register, stored as one 256-entry table per input byte lane
/// so each application is four lookups whatever the distance.
class Crc32Advance {
 public:
  explicit Crc32Advance(u64 words) {
    std::array<u32, 32> column{};  // the image of each register bit
    for (unsigned bit = 0; bit < 32; ++bit) {
      u32 reg = u32{1} << bit;
      for (u64 w = 0; w < words; ++w) reg = Crc32::advance4(reg);
      column[bit] = reg;
    }
    for (unsigned lane = 0; lane < 4; ++lane) {
      for (unsigned b = 0; b < 256; ++b) {
        u32 image = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
          if ((b >> bit) & 1u) image ^= column[8 * lane + bit];
        table_[lane][b] = image;
      }
    }
  }

  u32 operator()(u32 reg) const noexcept {
    return table_[0][reg & 0xFFu] ^ table_[1][(reg >> 8) & 0xFFu] ^
           table_[2][(reg >> 16) & 0xFFu] ^ table_[3][reg >> 24];
  }

 private:
  std::array<std::array<u32, 256>, 4> table_{};
};

}  // namespace safedm
