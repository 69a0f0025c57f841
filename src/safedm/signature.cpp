#include "safedm/safedm/signature.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>

#include "safedm/common/bits.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"

namespace safedm::monitor {
namespace {

unsigned next_pow2(unsigned v) {
  unsigned p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// L^n for a depth-n window (n applications of Crc32::advance4), built
/// once per depth and shared by every CRC-mode generator of that geometry,
/// across threads. Entries are never erased, so references stay valid.
const Crc32Advance& window_advance(unsigned depth) {
  static std::mutex mutex;
  static std::map<unsigned, std::unique_ptr<const Crc32Advance>> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<const Crc32Advance>& table = tables[depth];
  if (!table) table = std::make_unique<const Crc32Advance>(depth);
  return *table;
}

// A packed stage word is the bit image of one StageSlotTap (8 bytes, no
// padding), so word equality is slot equality; decode via bit_cast.
static_assert(sizeof(core::StageSlotTap) == sizeof(u64));
static_assert(std::has_unique_object_representations_v<core::StageSlotTap>);

core::StageSlotTap unpack_slot(u64 word) {
  core::StageSlotTap slot;
  std::memcpy(static_cast<void*>(&slot), &word, sizeof(slot));
  return slot;
}

// Flat-mode IS: the ordered list of in-flight encodings, oldest (WB)
// first, ignoring which stage holds them. Fixed-capacity scratch — the
// pipeline can hold at most stages × issue-width instructions — so the
// per-cycle comparison never touches the heap.
struct FlatList {
  std::array<u32, SignatureGenerator::kStageSlots> encoding{};
  unsigned count = 0;
};

FlatList flatten(const SignatureGenerator& s) {
  FlatList list;
  const auto& packed = s.packed_stages();
  for (int st = core::kPipelineStages - 1; st >= 0; --st) {
    for (unsigned lane = 0; lane < core::kMaxIssueWidth; ++lane) {
      const core::StageSlotTap slot =
          unpack_slot(packed[static_cast<unsigned>(st) * core::kMaxIssueWidth + lane]);
      if (slot.valid) list.encoding[list.count++] = slot.encoding;
    }
  }
  return list;
}

}  // namespace

SignatureGenerator::SignatureGenerator(const SafeDmConfig& config) : config_(config) {
  SAFEDM_CHECK_MSG(config.num_ports >= 1 && config.num_ports <= core::kMaxPorts,
                   "monitored port count out of range");
  SAFEDM_CHECK_MSG(config.data_fifo_depth >= 1, "data FIFO depth must be positive");
  padded_depth_ = next_pow2(config.data_fifo_depth);
  depth_mask_ = padded_depth_ - 1;
  crc_mode_ = config.compare == CompareMode::kCrc32;
  detect_stage_changes_ = crc_mode_ || config.is_mode == IsMode::kFlatList;
  values_.assign(static_cast<size_t>(config.num_ports) * padded_depth_, 0);
  enables_.assign(values_.size(), 0);
  if (crc_mode_) {
    window_advance_ = &window_advance(config.data_fifo_depth);
    entry_crc_.assign(values_.size(), 0);
    port_crc_.assign(config.num_ports, 0);
    rebuild_crc();
  }
}

void SignatureGenerator::reset() {
  std::fill(values_.begin(), values_.end(), u64{0});
  std::fill(enables_.begin(), enables_.end(), u8{0});
  shifts_ = 0;
  stage_packed_ = {};
  ++stage_version_;
  rebuild_crc();
}

void SignatureGenerator::rebuild_crc() {
  if (!crc_mode_) return;
  for (size_t i = 0; i < values_.size(); ++i)
    entry_crc_[i] = entry_crc(core::PortTap{enables_[i] != 0, values_[i]});
  const unsigned n = config_.data_fifo_depth;
  for (unsigned p = 0; p < config_.num_ports; ++p) {
    u32 reg = 0;
    for (unsigned i = 0; i < n; ++i) {
      const unsigned slot = static_cast<unsigned>(shifts_ - n + i) & depth_mask_;
      reg = Crc32::advance4(reg ^ entry_crc_[p * padded_depth_ + slot]);
    }
    port_crc_[p] = reg;
  }
  data_crc_valid_ = false;
  inst_crc_valid_ = false;
}

bool SignatureGenerator::data_equal(const SignatureGenerator& a, const SignatureGenerator& b) {
  SAFEDM_CHECK_MSG(a.config_.num_ports == b.config_.num_ports &&
                       a.config_.data_fifo_depth == b.config_.data_fifo_depth,
                   "comparing signature generators of different geometry");
  // Ring phase is part of the hardware state; compare entries in FIFO
  // order (oldest to newest) so equal histories compare equal regardless
  // of internal write-cursor positions.
  const unsigned n = a.config_.data_fifo_depth;
  for (unsigned p = 0; p < a.config_.num_ports; ++p) {
    for (unsigned i = 0; i < n; ++i) {
      if (!(a.entry(p, i) == b.entry(p, i))) return false;
    }
  }
  return true;
}

bool SignatureGenerator::instruction_equal(const SignatureGenerator& a,
                                           const SignatureGenerator& b) {
  SAFEDM_CHECK(a.config_.is_mode == b.config_.is_mode);
  if (a.config_.is_mode == IsMode::kPerStage) {
    return a.stage_packed_ == b.stage_packed_;
  }
  const FlatList fa = flatten(a);
  const FlatList fb = flatten(b);
  return fa.count == fb.count &&
         std::equal(fa.encoding.begin(), fa.encoding.begin() + fa.count, fb.encoding.begin());
}

u64 SignatureGenerator::data_distance(const SignatureGenerator& a,
                                      const SignatureGenerator& b) {
  SAFEDM_CHECK(a.config_.num_ports == b.config_.num_ports &&
               a.config_.data_fifo_depth == b.config_.data_fifo_depth);
  const unsigned n = a.config_.data_fifo_depth;
  u64 distance = 0;
  for (unsigned p = 0; p < a.config_.num_ports; ++p) {
    for (unsigned i = 0; i < n; ++i) {
      const core::PortTap ta = a.entry(p, i);
      const core::PortTap tb = b.entry(p, i);
      distance += static_cast<u64>(__builtin_popcountll(ta.value ^ tb.value));
      distance += ta.enable != tb.enable ? 1 : 0;
    }
  }
  return distance;
}

u64 SignatureGenerator::instruction_distance(const SignatureGenerator& a,
                                             const SignatureGenerator& b) {
  // Packed words xor to exactly (encoding diff bits | valid diff bit), so
  // one popcount per slot covers both fields.
  u64 distance = 0;
  for (unsigned k = 0; k < kStageSlots; ++k) {
    distance += static_cast<u64>(__builtin_popcountll(a.stage_packed_[k] ^ b.stage_packed_[k]));
  }
  return distance;
}

u32 SignatureGenerator::data_crc_exhaustive() const {
  // Port-major, oldest to newest: each FIFO entry compacts to its own
  // CRC-32 word, and the signature CRC runs over those words.
  Crc32 crc;
  const unsigned n = config_.data_fifo_depth;
  for (unsigned p = 0; p < config_.num_ports; ++p) {
    for (unsigned i = 0; i < n; ++i) crc.add32(entry_crc(entry(p, i)));
  }
  return crc.value();
}

u32 SignatureGenerator::stage_crc(const void* stages) {
  Crc32 crc;
  const char* bytes = static_cast<const char*>(stages);
  for (unsigned k = 0; k < kStageSlots; ++k) {
    u64 word;
    std::memcpy(&word, bytes + k * sizeof(u64), sizeof(word));
    const core::StageSlotTap slot = unpack_slot(word);
    crc.add_byte(slot.valid ? 1 : 0);
    crc.add(slot.encoding);
  }
  return crc.value();
}

u32 SignatureGenerator::instruction_crc_exhaustive() const {
  if (config_.is_mode == IsMode::kPerStage) return stage_crc(stage_packed_.data());
  Crc32 crc;
  for (int st = core::kPipelineStages - 1; st >= 0; --st) {
    for (unsigned lane = 0; lane < core::kMaxIssueWidth; ++lane) {
      const core::StageSlotTap slot =
          unpack_slot(stage_packed_[static_cast<unsigned>(st) * core::kMaxIssueWidth + lane]);
      if (slot.valid) crc.add(slot.encoding);
    }
  }
  return crc.value();
}

u64 SignatureGenerator::data_signature_bits() const {
  // Each FIFO entry stores a 64-bit value plus its enable bit.
  return static_cast<u64>(config_.num_ports) * config_.data_fifo_depth * 65;
}

u64 SignatureGenerator::instruction_signature_bits() const {
  // Each stage slot stores a 32-bit encoding plus its valid bit.
  return static_cast<u64>(core::kPipelineStages) * core::kMaxIssueWidth * 33;
}

core::PortTap SignatureGenerator::newest_sample(unsigned port) const {
  SAFEDM_CHECK(port < config_.num_ports);
  return entry(port, config_.data_fifo_depth - 1);
}

void SignatureGenerator::batch_commit(u64 shifts, const void* last_stage, u64 cycles) {
  // The chunk loop already wrote the ring slots (and, in CRC mode, rolled
  // the registers and observed every stage image); sync the cursor and the
  // raw-mode level-signal pipeline snapshot.
  shifts_ = shifts;
  if (detect_stage_changes_) return;
  std::memcpy(stage_packed_.data(), last_stage, sizeof(PackedStages));
  stage_version_ += cycles;
}

void SignatureGenerator::save_state(StateWriter& w) const {
  w.begin_section("SIGG", 1);
  w.put_u32(config_.num_ports);
  w.put_u32(config_.data_fifo_depth);
  w.put_u8(static_cast<u8>(config_.is_mode));
  w.put_u8(static_cast<u8>(config_.compare));
  w.put_u64(shifts_);
  w.put_u64(stage_version_);
  // Same slot order and per-slot {enable, value} wire format as the
  // pre-SoA AoS ring: snapshots stay byte-compatible.
  for (size_t i = 0; i < values_.size(); ++i) {
    w.put_bool(enables_[i] != 0);
    w.put_u64(values_[i]);
  }
  for (u64 word : stage_packed_) w.put_u64(word);
  w.end_section();
}

void SignatureGenerator::restore_state(StateReader& r) {
  r.begin_section("SIGG", 1);
  if (r.get_u32() != config_.num_ports || r.get_u32() != config_.data_fifo_depth ||
      r.get_u8() != static_cast<u8>(config_.is_mode) ||
      r.get_u8() != static_cast<u8>(config_.compare))
    throw StateError("signature generator geometry mismatch");
  shifts_ = r.get_u64();
  stage_version_ = r.get_u64();
  // In place: values_data()/enables_data() stay stable for comparators.
  for (size_t i = 0; i < values_.size(); ++i) {
    enables_[i] = r.get_bool() ? u8{1} : u8{0};
    values_[i] = r.get_u64();
  }
  for (u64& word : stage_packed_) word = r.get_u64();
  rebuild_crc();
  r.end_section();
}

}  // namespace safedm::monitor
