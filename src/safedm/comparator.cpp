#include "safedm/safedm/comparator.hpp"

#include <algorithm>

#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"

namespace safedm::monitor {

DiversityComparator::DiversityComparator(const SignatureGenerator& a,
                                         const SignatureGenerator& b)
    : a_(&a),
      b_(&b),
      a_values_(a.values_data()),
      b_values_(b.values_data()),
      a_enables_(a.enables_data()),
      b_enables_(b.enables_data()),
      stride_(a.padded_depth()),
      ring_mask_(a.padded_depth() - 1),
      depth_(a.config().data_fifo_depth),
      ports_(a.config().num_ports),
      crc_mode_(a.config().compare == CompareMode::kCrc32),
      raw_perstage_(a.config().compare != CompareMode::kCrc32 &&
                    a.config().is_mode == IsMode::kPerStage),
      mask_words_((a.config().data_fifo_depth + 63u) / 64u),
      stage_equal_(simd::words_equal_fixed_fn<SignatureGenerator::kStageSlots>(
          simd::active_kernel())) {
  SAFEDM_CHECK_MSG(a.config().num_ports == b.config().num_ports &&
                       a.config().data_fifo_depth == b.config().data_fifo_depth &&
                       a.config().is_mode == b.config().is_mode,
                   "comparator requires generators of identical geometry");
  if (!crc_mode_) port_mismatch_.assign(static_cast<size_t>(ports_) * mask_words_, 0);
  resync();
}

void DiversityComparator::resync() {
  seen_shift_a_ = a_->shift_count();
  seen_shift_b_ = b_->shift_count();
  if (crc_mode_) {
    ds_match_ = a_->data_crc() == b_->data_crc();
  } else {
    rescan_data();
    ds_match_ = mismatch_agg_ == 0;
  }
  seen_stage_a_ = a_->stage_version();
  seen_stage_b_ = b_->stage_version();
  recompute_instruction_verdict();
}

void DiversityComparator::scan_port(unsigned p, u64 sa, u64 sb, u64* out) const {
  for (unsigned w = 0; w < mask_words_; ++w) out[w] = 0;
  const u64* av = a_values_ + static_cast<size_t>(p) * stride_;
  const u64* bv = b_values_ + static_cast<size_t>(p) * stride_;
  const u8* ae = a_enables_ + static_cast<size_t>(p) * stride_;
  const u8* be = b_enables_ + static_cast<size_t>(p) * stride_;
  const simd::MismatchBitsFn mismatch = simd::mismatch_bits_fn(simd::active_kernel());
  // Walk the logical window in runs that are contiguous in BOTH rings and
  // stay inside one mask word, bit-slicing each run with one kernel call.
  unsigned i = 0;
  while (i < depth_) {
    const unsigned oa = static_cast<unsigned>(sa - depth_ + i) & ring_mask_;
    const unsigned ob = static_cast<unsigned>(sb - depth_ + i) & ring_mask_;
    unsigned seg = depth_ - i;
    seg = std::min(seg, stride_ - oa);
    seg = std::min(seg, stride_ - ob);
    seg = std::min(seg, 64u - (i & 63u));
    out[i >> 6] |= mismatch(av + oa, bv + ob, ae + oa, be + ob, seg) << (i & 63u);
    i += seg;
  }
}

void DiversityComparator::rescan_at(u64 sa, u64 sb) {
  mismatch_agg_ = 0;
  for (unsigned p = 0; p < ports_; ++p) {
    u64* words = port_mismatch_.data() + static_cast<size_t>(p) * mask_words_;
    scan_port(p, sa, sb, words);
    for (unsigned w = 0; w < mask_words_; ++w) mismatch_agg_ |= words[w];
  }
}

void DiversityComparator::rescan_data() {
  rescan_at(a_->shift_count(), b_->shift_count());
}

bool DiversityComparator::step_realign(u64 sa, u64 sb) {
  rescan_at(sa, sb);
  ds_match_ = mismatch_agg_ == 0;
  ++stats_.realign_scans;
  return ds_match_;
}

void DiversityComparator::shift_insert_multiword(u64 sa, u64 sb) {
  const unsigned oa = (static_cast<unsigned>(sa) - 1) & ring_mask_;
  const unsigned ob = (static_cast<unsigned>(sb) - 1) & ring_mask_;
  const unsigned top_word = (depth_ - 1) >> 6;
  const unsigned top_bit = (depth_ - 1) & 63u;
  u64 agg = 0;
  for (unsigned p = 0; p < ports_; ++p) {
    u64* m = port_mismatch_.data() + static_cast<size_t>(p) * mask_words_;
    for (unsigned w = 0; w + 1 < mask_words_; ++w) {
      m[w] = (m[w] >> 1) | (m[w + 1] << 63);
    }
    m[mask_words_ - 1] >>= 1;
    const size_t ia = static_cast<size_t>(p) * stride_ + oa;
    const size_t ib = static_cast<size_t>(p) * stride_ + ob;
    m[top_word] |= static_cast<u64>((a_values_[ia] != b_values_[ib]) |
                                    (a_enables_[ia] != b_enables_[ib]))
                   << top_bit;
    for (unsigned w = 0; w < mask_words_; ++w) agg |= m[w];
  }
  mismatch_agg_ = agg;
}

void DiversityComparator::recompute_instruction_verdict() {
  is_match_ = crc_mode_ ? a_->instruction_crc() == b_->instruction_crc()
                        : SignatureGenerator::instruction_equal(*a_, *b_);
}

void DiversityComparator::save_state(StateWriter& w) const {
  w.begin_section("DCMP", 1);
  w.put_u64(stats_.fast_updates);
  w.put_u64(stats_.hold_reuses);
  w.put_u64(stats_.realign_scans);
  w.put_u64(stats_.is_recomputes);
  w.end_section();
}

void DiversityComparator::restore_state(StateReader& r) {
  r.begin_section("DCMP", 1);
  stats_.fast_updates = r.get_u64();
  stats_.hold_reuses = r.get_u64();
  stats_.realign_scans = r.get_u64();
  stats_.is_recomputes = r.get_u64();
  r.end_section();
  // Masks, seen shifts/versions, and both verdicts are derived from the
  // (already restored) generators.
  resync();
}

}  // namespace safedm::monitor
