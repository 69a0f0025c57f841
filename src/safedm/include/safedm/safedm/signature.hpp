// Signature generator (paper Fig. 4, "Signature generator" block): per-core
// capture of the Data Signature (DS) and Instruction Signature (IS).
//
// DS: one FIFO per monitored register-file port holding the last n cycles
// of {enable, value} samples; the DS is the concatenation of all FIFOs
// (paper III-B1). The hold signal freezes the FIFOs while the pipeline is
// stalled (paper IV-B1).
//
// IS: the {valid, encoding} contents of every pipeline-stage slot
// (per-stage mode, paper III-B2), or the flat in-flight instruction list
// for cores without group-advance pipelines.
//
// Storage layout: SoA. The port FIFOs are stored as two contiguous
// planes — a u64 `value` plane and a u8 `enable` plane (strictly 0/1 per
// byte) — each port-major with a per-port span padded to a power of two,
// so ring indexing is a mask instead of a modulo and the comparator can
// bit-slice whole slot runs with one SIMD lane operation (simd.hpp). The
// write cursor counts total shifts; the logical window (oldest..newest)
// is the last `data_fifo_depth` writes. The padding slots beyond the
// logical depth are never read, and the logical signature geometry
// (data_signature_bits) is unchanged by the padding.
//
// CRC compare mode compresses each FIFO entry to a CRC-32 word and the DS
// to the CRC-32 of those words. Each port keeps its window's share of that
// CRC in one rolling register (shift_crc), so a shift costs O(ports)
// whatever the depth and data_crc() is a fold over the ports.
#pragma once

#include <cstring>
#include <vector>

#include "safedm/common/hash.hpp"
#include "safedm/core/tap.hpp"
#include "safedm/safedm/config.hpp"

namespace safedm {
class StateReader;
class StateWriter;
}  // namespace safedm

namespace safedm::monitor {

class SignatureGenerator {
 public:
  explicit SignatureGenerator(const SafeDmConfig& config);

  /// Capture one cycle of core observation. Returns true when the data
  /// FIFOs shifted (i.e. the frame was not held). Inline: runs twice per
  /// simulated cycle in the monitor hot path.
  bool capture(const core::CoreTapFrame& frame) {
    // Stage snapshot: pipeline contents are level signals; re-capturing a
    // held pipeline reproduces the same snapshot. The snapshot is packed
    // one slot per 64-bit word so the change check (and every downstream
    // IS comparison) is a flat word walk instead of a struct element walk.
    static_assert(sizeof(frame.stage) == sizeof(PackedStages));
    if (!detect_stage_changes_) {
      // Raw per-stage mode: the comparator's IS verdict is one flat word
      // compare, cheaper than exact change detection would be — just
      // refresh the snapshot.
      std::memcpy(stage_packed_.data(), &frame.stage, sizeof(PackedStages));
      ++stage_version_;
    } else {
      observe_stage(&frame.stage);
    }

    // Data FIFOs shift once per un-held clock (paper IV-B1: "the hold
    // signal is used to not overwrite any values in the FIFOs if the
    // pipeline is stalled").
    if (frame.hold) return false;
    // Plane pointers and geometry in locals: the enable-byte stores may
    // alias any member, which would otherwise be reloaded per port.
    u64* const values = values_.data();
    u8* const enables = enables_.data();
    const unsigned ports = config_.num_ports;
    const unsigned stride = padded_depth_;
    const unsigned slot = static_cast<unsigned>(shifts_) & depth_mask_;
    for (unsigned p = 0; p < ports; ++p) {
      const unsigned idx = p * stride + slot;
      values[idx] = frame.port[p].value;
      enables[idx] = frame.port[p].enable ? u8{1} : u8{0};
    }
    if (crc_mode_) shift_crc(shifts_, frame);
    ++shifts_;
    return true;
  }

  /// Exact stage-change detection, for modes where a change gates real
  /// work (CRC rehash, flat-list rebuild): when `stages` (kStageSlots
  /// packed words, laid out as CoreTapFrame::stage) differs from the
  /// snapshot, take it, bump the version and drop the IS CRC memo. Returns
  /// whether it changed. capture() calls it per frame outside raw
  /// per-stage mode; the batched chunk loop calls it per cycle in CRC mode.
  bool observe_stage(const void* stages) {
    u64 delta = 0;
    for (unsigned k = 0; k < kStageSlots; ++k) {
      u64 word;  // per-word memcpy folds to a plain load
      std::memcpy(&word, static_cast<const char*>(stages) + k * sizeof(u64), sizeof(word));
      delta |= word ^ stage_packed_[k];
    }
    if (delta == 0) return false;
    std::memcpy(stage_packed_.data(), stages, sizeof(PackedStages));
    ++stage_version_;
    inst_crc_valid_ = false;
    return true;
  }

  /// Clear all captured state (FIFOs empty, pipeline snapshot invalid).
  void reset();

  /// DS0 == DS1 (bit-exact, including enables and sample order). This is
  /// the exhaustive reference comparison; the per-cycle hot path lives in
  /// DiversityComparator.
  static bool data_equal(const SignatureGenerator& a, const SignatureGenerator& b);

  /// IS0 == IS1 under the configured IS mode.
  static bool instruction_equal(const SignatureGenerator& a, const SignatureGenerator& b);

  /// Compressed signatures (CompareMode::kCrc32). The DS CRC runs over the
  /// window's per-entry CRC-32 words, port-major, oldest first. In CRC
  /// mode it folds the per-port rolling registers by Horner's rule,
  /// r <- L^n(r) ^ S_p (O(ports)), memoized until the next shift; the IS
  /// CRC is memoized until the stage snapshot changes. Raw-mode generators
  /// keep no CRC state and compute both from scratch.
  u32 data_crc() const {
    if (!crc_mode_) return data_crc_exhaustive();
    if (!data_crc_valid_) {
      u32 reg = Crc32::kInit;
      for (unsigned p = 0; p < config_.num_ports; ++p) reg = (*window_advance_)(reg) ^ port_crc_[p];
      data_crc_cache_ = ~reg;
      data_crc_valid_ = true;
    }
    return data_crc_cache_;
  }
  u32 instruction_crc() const {
    if (!crc_mode_) return instruction_crc_exhaustive();
    if (!inst_crc_valid_) {
      inst_crc_cache_ = instruction_crc_exhaustive();
      inst_crc_valid_ = true;
    }
    return inst_crc_cache_;
  }

  /// The same signatures hashed from the raw samples end to end: the
  /// oracle data_crc()/instruction_crc() are tested against, and what the
  /// exhaustive (non-incremental) compare path uses.
  u32 data_crc_exhaustive() const;
  u32 instruction_crc_exhaustive() const;

  /// Per-stage IS CRC of a packed pipeline image: kStageSlots words laid
  /// out as CoreTapFrame::stage and packed_stages() are.
  static u32 stage_crc(const void* stages);

  /// Diversity *magnitude*: Hamming distance between the two cores'
  /// signatures in bits (0 = no diversity). The paper's comparator only
  /// answers equal/unequal; the distance quantifies how far apart the
  /// cores' states are — a richer metric the same hardware taps support.
  static u64 data_distance(const SignatureGenerator& a, const SignatureGenerator& b);
  static u64 instruction_distance(const SignatureGenerator& a, const SignatureGenerator& b);

  /// Total signature storage in bits (used by the hardware cost model and
  /// the APB SIZE register). Reflects the configured logical depth, not
  /// the padded physical storage.
  u64 data_signature_bits() const;
  u64 instruction_signature_bits() const;

  const SafeDmConfig& config() const { return config_; }

  // ---- incremental-comparator observation interface ----------------------

  /// Number of times the data FIFOs have shifted since reset. Two
  /// generators whose shift counts advance in lockstep stay window-aligned.
  u64 shift_count() const { return shifts_; }

  /// Bumped when the pipeline-stage snapshot may have changed (and on
  /// reset); lets observers reuse a cached IS verdict across held cycles.
  /// Exact (content-compared) in CRC and flat-list modes; in raw per-stage
  /// mode it bumps on every capture, since there the downstream verdict is
  /// cheaper than exact change detection.
  u64 stage_version() const { return stage_version_; }

  /// Logical-window access: entry(p, 0) is port p's oldest sample,
  /// entry(p, depth-1) the newest. No bounds checks — hot path.
  core::PortTap entry(unsigned port, unsigned i) const {
    const unsigned idx = port * padded_depth_ +
                         (static_cast<unsigned>(shifts_ - config_.data_fifo_depth + i) & depth_mask_);
    return core::PortTap{enables_[idx] != 0, values_[idx]};
  }

  /// Raw plane views for the comparator's bit-sliced fast path: port p's
  /// physical slot s lives at values_data()[p * padded_depth() + s] (and
  /// the matching enables_data() byte, strictly 0/1). The pointers are
  /// stable for the generator's lifetime.
  const u64* values_data() const { return values_.data(); }
  const u8* enables_data() const { return enables_.data(); }
  unsigned padded_depth() const { return padded_depth_; }

  // ---- batched-capture support (SafeDm::on_cycles fast path) --------------
  //
  // The batched monitor path writes ring slots directly through these
  // mutable plane pointers (same layout/contract as the *_data() views,
  // enable bytes strictly 0/1). In CRC mode it also calls shift_crc for
  // every slot it writes and observe_stage for every cycle. It calls
  // batch_commit() once per chunk to sync the shift cursor and, in raw
  // mode, the pipeline snapshot and stage version. Per-stage IS mode only.
  u64* values_mut() { return values_.data(); }
  u8* enables_mut() { return enables_.data(); }

  /// CRC mode: advance every port's rolling window CRC for the shift that
  /// writes ring slot `shifts & mask` (capture passes its own cursor, the
  /// chunk loop its chunk-local one). It reads only the entry-CRC plane,
  /// never the sample planes, so it may run before or after the slot's
  /// value/enable write. Port p's register is S_p = XOR_i L^(n-i)(w_i) over
  /// its window words w_0 (oldest) .. w_{n-1}, with L = Crc32::advance4; a
  /// shift is S_p <- L(S_p ^ L^n(w_evicted) ^ w_new).
  void shift_crc(u64 shifts, const core::CoreTapFrame& frame) {
    const unsigned slot = static_cast<unsigned>(shifts) & depth_mask_;
    // Logical position 0 leaves the window; with a non-power-of-two depth
    // its slot is not the one being written.
    const unsigned evicted =
        static_cast<unsigned>(shifts - config_.data_fifo_depth) & depth_mask_;
    for (unsigned p = 0; p < config_.num_ports; ++p) {
      const unsigned base = p * padded_depth_;
      const u32 incoming = entry_crc(frame.port[p]);
      port_crc_[p] = Crc32::advance4(port_crc_[p] ^ (*window_advance_)(entry_crc_[base + evicted]) ^
                                     incoming);
      entry_crc_[base + slot] = incoming;
    }
    data_crc_valid_ = false;
  }

  /// `last_stage`: the chunk's final stage image; `cycles`: its length.
  /// Raw mode takes the image and bumps the version once per cycle, as
  /// capture() would have; in CRC mode observe_stage() already kept both
  /// exact, so only the cursor moves.
  void batch_commit(u64 shifts, const void* last_stage, u64 cycles);

  /// One stage slot per word: the bit image of the (padding-free)
  /// StageSlotTap. The packed form makes the whole-pipeline IS comparison
  /// a flat word compare instead of a struct element walk.
  static constexpr unsigned kStageSlots = core::kPipelineStages * core::kMaxIssueWidth;
  using PackedStages = std::array<u64, kStageSlots>;
  const PackedStages& packed_stages() const { return stage_packed_; }

  /// Test access: the sample most recently shifted into `port`'s FIFO.
  core::PortTap newest_sample(unsigned port) const;

  /// FIFO contents + shift cursor + pipeline snapshot. The CRC-mode state
  /// is derived and deliberately NOT serialized: restore rebuilds it from
  /// the restored rings — same values, no hidden state. Restore writes
  /// into the existing ring storage (values_data()/enables_data() stay
  /// stable, so an attached DiversityComparator keeps valid pointers).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  /// CRC-32 of one FIFO entry {enable byte, value}: a word of the DS CRC.
  static u32 entry_crc(const core::PortTap& tap) {
    Crc32 crc;
    crc.add_byte(tap.enable ? 1 : 0);
    crc.add(tap.value);
    return crc.value();
  }
  /// CRC mode: recompute the entry-CRC plane and the rolling registers
  /// from the rings, and drop both memos.
  void rebuild_crc();

  SafeDmConfig config_;
  unsigned padded_depth_ = 1;  // lint: no-snapshot(power of two >= data_fifo_depth, from config)
  unsigned depth_mask_ = 0;    // lint: no-snapshot(padded_depth_ - 1, derived)
  bool crc_mode_ = false;      // lint: no-snapshot(compare mode, fixed by config at construction)
  // Exact stage-change detection pays for itself only when a change gates
  // expensive work (CRC rehash, flat-list rebuild); in raw per-stage mode
  // the snapshot is refreshed unconditionally and the version always bumps.
  // lint: no-snapshot(mode choice, fixed by config at construction)
  bool detect_stage_changes_ = true;
  u64 shifts_ = 0;             // total FIFO shifts; write slot = shifts_ & mask
  u64 stage_version_ = 0;
  // All ports' rings as SoA planes: values_[p * padded_depth_ + slot] and
  // the matching enables_ byte (0/1). Split so the comparator can lane-
  // compare value runs and XOR enable bytes directly.
  std::vector<u64> values_;
  std::vector<u8> enables_;

  // CRC-mode state, all derived from the rings and rebuilt by the
  // constructor, reset() and restore_state(): L^n for this depth (one
  // table per geometry, shared), the entry CRC of every physical slot (so
  // an evicted word is never rehashed), one rolling register per port,
  // and the memoized signature CRCs.
  const Crc32Advance* window_advance_ = nullptr;  // lint: no-snapshot(shared per-depth table, from config)
  std::vector<u32> entry_crc_;           // lint: no-snapshot(derived from the rings, rebuilt on restore)
  std::vector<u32> port_crc_;            // lint: no-snapshot(derived from the rings, rebuilt on restore)
  mutable u32 data_crc_cache_ = 0;       // lint: no-snapshot(memo, invalidated on restore)
  mutable bool data_crc_valid_ = false;  // lint: no-snapshot(cleared on restore)
  mutable u32 inst_crc_cache_ = 0;       // lint: no-snapshot(memo, invalidated on restore)
  mutable bool inst_crc_valid_ = false;  // lint: no-snapshot(cleared on restore)

  // Latest pipeline snapshot, packed (slot-major: stage * issue + lane).
  PackedStages stage_packed_{};
};

}  // namespace safedm::monitor
