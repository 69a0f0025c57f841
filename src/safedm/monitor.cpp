#include "safedm/safedm/monitor.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"

namespace safedm::monitor {
namespace {

Histogram make_history(const SafeDmConfig& config) {
  if (!config.history_bins.empty()) return Histogram(config.history_bins);
  return Histogram::exponential(16);
}

}  // namespace

// ---- InstructionDiff -----------------------------------------------------------

void InstructionDiff::configure(unsigned n_replicas) {
  SAFEDM_CHECK(n_replicas >= 2 && n_replicas <= kMaxReplicas);
  n_ = n_replicas;
  reset();
}

void InstructionDiff::set_ignore(unsigned replica, u64 count) {
  SAFEDM_CHECK(replica < n_);
  ignore_[replica] = count;
}

void InstructionDiff::on_commits_n(const unsigned* commits, unsigned n_replicas) {
  SAFEDM_CHECK(n_replicas == n_);
  for (unsigned r = 0; r < n_replicas; ++r) {
    u64 c = commits[r];
    if (ignore_[r] != 0) {
      const u64 skip = std::min(ignore_[r], c);
      ignore_[r] -= skip;
      c -= skip;
    }
    cum_[r] += c;
  }
}

void InstructionDiff::on_commits_prelude(unsigned commits0, unsigned commits1) {
  const unsigned commits[2] = {commits0, commits1};
  on_commits_n(commits, 2);
}

void InstructionDiff::batch_commit_n(const u64* adds, unsigned n_replicas) {
  SAFEDM_CHECK(n_replicas == n_);
  for (unsigned r = 0; r < n_replicas; ++r) cum_[r] += adds[r];
}

void InstructionDiff::reset() {
  cum_ = {};
  ignore_ = {};
}

// ---- SafeDm -----------------------------------------------------------------------

namespace {

unsigned pairs_for(unsigned n_replicas) { return n_replicas * (n_replicas - 1) / 2; }

/// CRC-mode IS verdict of one pair: equal stage words hash equal, so only
/// differing pipelines pay for their memoized CRCs (which may still
/// collide).
bool stage_crcs_match(const SignatureGenerator& a, const SignatureGenerator& b,
                      simd::WordsEqualFixedFn equal) {
  return equal(a.packed_stages().data(), b.packed_stages().data()) ||
         a.instruction_crc() == b.instruction_crc();
}

/// Lower the verdict policy to a single matched-pair threshold.
unsigned lower_policy(const SafeDmConfig& config) {
  const unsigned n_pairs = pairs_for(config.num_replicas);
  switch (config.policy) {
    case VerdictPolicy::kAnyPair:
      return 1;
    case VerdictPolicy::kAllPairs:
      return n_pairs;
    case VerdictPolicy::kQuorum:
      SAFEDM_CHECK_MSG(config.quorum_k >= 1 && config.quorum_k <= n_pairs,
                       "quorum_k must be in 1..C(num_replicas,2)");
      return config.quorum_k;
  }
  SAFEDM_CHECK_MSG(false, "unknown verdict policy");
  return 1;
}

}  // namespace

SafeDm::SafeDm(const SafeDmConfig& config)
    : config_(config),
      enabled_(config.start_enabled),
      hist_nodiv_(make_history(config)),
      hist_ds_(make_history(config)),
      hist_is_(make_history(config)),
      hist_distance_(Histogram::exponential(20)) {
  const unsigned n = config.num_replicas;
  SAFEDM_CHECK_MSG(n >= 2 && n <= kMaxReplicas, "num_replicas must be in 2..8");
  needed_ = lower_policy(config);
  // Reserve exactly, then never resize: the comparators keep raw pointers
  // into the generators (whose rings themselves never reallocate).
  sigs_.reserve(n);
  for (unsigned r = 0; r < n; ++r) sigs_.emplace_back(config);
  const unsigned n_pairs = pairs_for(n);
  pairs_.reserve(n_pairs);
  pair_replicas_.reserve(n_pairs);
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = i + 1; j < n; ++j) {
      pairs_.emplace_back(sigs_[i], sigs_[j]);
      pair_replicas_.emplace_back(static_cast<u8>(i), static_cast<u8>(j));
    }
  }
  if (n > 2) pair_counters_.resize(n_pairs);
  inst_diff_.configure(n);
}

void SafeDm::enable(bool on) { enabled_ = on; }

void SafeDm::set_prelude_ignore(unsigned replica, u64 commits) {
  inst_diff_.set_ignore(replica, commits);
}

void SafeDm::clear_interrupt() { irq_pending_ = false; }

void SafeDm::set_interrupt_handler(std::function<void(u64)> handler) {
  irq_handler_ = std::move(handler);
}

void SafeDm::reset() {
  for (auto& sig : sigs_) sig.reset();
  for (auto& pair : pairs_) pair.resync();
  inst_diff_.reset();
  counters_ = {};
  for (auto& pc : pair_counters_) pc = {};
  seen_commit_ = {};
  lacking_now_ = false;
  irq_pending_ = false;
  nodiv_run_ = ds_run_ = is_run_ = 0;
  hist_nodiv_.clear();
  hist_ds_.clear();
  hist_is_.clear();
  hist_distance_.clear();
}

const SignatureGenerator& SafeDm::signatures(unsigned replica) const {
  SAFEDM_CHECK(replica < sigs_.size());
  return sigs_[replica];
}

std::pair<unsigned, unsigned> SafeDm::pair_replicas(unsigned pair) const {
  SAFEDM_CHECK(pair < pair_replicas_.size());
  return {pair_replicas_[pair].first, pair_replicas_[pair].second};
}

PairCounters SafeDm::pair_counters(unsigned pair) const {
  SAFEDM_CHECK(pair < pairs_.size());
  if (config_.num_replicas == 2) {
    // The single pair is the group: synthesize the cell from the group
    // counters rather than paying a second set of hot-path increments.
    PairCounters pc;
    pc.nodiv_cycles = counters_.nodiv_cycles;
    pc.ds_match_cycles = counters_.ds_match_cycles;
    pc.is_match_cycles = counters_.is_match_cycles;
    pc.zero_stag_cycles = counters_.zero_stag_cycles;
    pc.distance_sum = counters_.distance_sum;
    pc.distance_min = counters_.distance_min;
    pc.distance_max = counters_.distance_max;
    return pc;
  }
  return pair_counters_[pair];
}

const DiversityComparator::Stats& SafeDm::pair_stats(unsigned pair) const {
  SAFEDM_CHECK(pair < pairs_.size());
  return pairs_[pair].stats();
}

u64 SafeDm::storage_bits() const {
  return config_.num_replicas *
         (sigs_[0].data_signature_bits() + sigs_[0].instruction_signature_bits());
}

void SafeDm::on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                      const core::CoreTapFrame& frame1) {
  SAFEDM_CHECK_MSG(config_.num_replicas == 2,
                   "pairwise delivery on an N-replica monitor; use on_group_cycle");
  // The signature FIFOs clock continuously (hardware is never "off"); only
  // the counting/reporting logic is gated by the enable bit. The comparator
  // likewise tracks every cycle so its bookkeeping stays aligned with the
  // FIFOs across enable/arm transitions.
  sigs_[0].capture(frame0);
  sigs_[1].capture(frame1);
  if (config_.incremental_compare) pairs_[0].update();
  inst_diff_.on_commits(frame0.commits, frame1.commits);

  seen_commit_[0] = seen_commit_[0] || frame0.commits > 0;
  seen_commit_[1] = seen_commit_[1] || frame1.commits > 0;
  const bool armed = !config_.arm_on_first_commit || (seen_commit_[0] && seen_commit_[1]);

  const bool both_running = !frame0.halted && !frame1.halted;
  if (!enabled_ || !both_running || !armed) {
    lacking_now_ = false;
    ds_match_now_ = false;
    is_match_now_ = false;
    if (trail_) trail_->push_back(false);
    return;
  }

  ++counters_.monitored_cycles;

  bool ds_match = false;
  bool is_match = false;
  if (config_.incremental_compare) {
    ds_match = pairs_[0].ds_match();
    is_match = pairs_[0].is_match();
  } else if (config_.compare == CompareMode::kRaw) {
    ds_match = SignatureGenerator::data_equal(sigs_[0], sigs_[1]);
    is_match = SignatureGenerator::instruction_equal(sigs_[0], sigs_[1]);
  } else {
    ds_match = sigs_[0].data_crc_exhaustive() == sigs_[1].data_crc_exhaustive();
    is_match = sigs_[0].instruction_crc_exhaustive() == sigs_[1].instruction_crc_exhaustive();
  }

  const bool nodiv = ds_match && is_match;
  lacking_now_ = nodiv;
  ds_match_now_ = ds_match;
  is_match_now_ = is_match;

  const auto track = [](bool condition, u64& run, u64& counter, Histogram& hist) {
    if (condition) {
      ++counter;
      ++run;
    } else if (run > 0) {
      hist.add(run);
      run = 0;
    }
  };
  track(ds_match, ds_run_, counters_.ds_match_cycles, hist_ds_);
  track(is_match, is_run_, counters_.is_match_cycles, hist_is_);
  track(nodiv, nodiv_run_, counters_.nodiv_cycles, hist_nodiv_);

  if (inst_diff_.armed() && inst_diff_.diff() == 0) ++counters_.zero_stag_cycles;

  if (config_.track_distance) {
    const u64 distance = SignatureGenerator::data_distance(sigs_[0], sigs_[1]) +
                         SignatureGenerator::instruction_distance(sigs_[0], sigs_[1]);
    counters_.distance_sum += distance;
    counters_.distance_min = std::min(counters_.distance_min, distance);
    counters_.distance_max = std::max(counters_.distance_max, distance);
    hist_distance_.add(distance);
  }

  update_interrupt(cycle);
  if (trail_) trail_->push_back(lacking_now_);
}

bool SafeDm::batch_fast_eligible() const {
  // The chunked loop covers incremental per-stage compare, raw or CRC;
  // anything else (flat-list IS, distance tracking, disabled or
  // not-yet-armed monitor, multi-word masks) falls back to per-cycle
  // on_cycle, which is always correct.
  bool all_seen = true;
  if (config_.arm_on_first_commit) {
    for (unsigned r = 0; r < config_.num_replicas; ++r) all_seen = all_seen && seen_commit_[r];
  }
  return enabled_ && config_.incremental_compare && config_.is_mode == IsMode::kPerStage &&
         !config_.track_distance && config_.data_fifo_depth <= 64 && all_seen &&
         inst_diff_.armed();
}

void SafeDm::on_cycles(u64 first_cycle, const core::CoreTapFrame* frame0,
                       const core::CoreTapFrame* frame1, unsigned n) {
  unsigned i = 0;
  while (i < n) {
    // Eligibility can flip mid-batch (arming on first commit, prelude
    // consumption), so re-check per span; ineligible cycles go one at a
    // time through the exact per-cycle path.
    if (!batch_fast_eligible()) {
      on_cycle(first_cycle + i, frame0[i], frame1[i]);
      ++i;
      continue;
    }
    // Fast span: consecutive cycles with both cores running. Halted
    // frames take the per-cycle path (they gate counting but still clock
    // the signature FIFOs).
    unsigned j = i;
    while (j < n && !frame0[j].halted && !frame1[j].halted) ++j;
    if (j == i) {
      on_cycle(first_cycle + i, frame0[i], frame1[i]);
      ++i;
      continue;
    }
    while (i < j) {
      const unsigned m = std::min(j - i, 64u);
      process_chunk(first_cycle + i, frame0 + i, frame1 + i, m);
      i += m;
    }
  }
}

void SafeDm::process_chunk(u64 first_cycle, const core::CoreTapFrame* frame0,
                           const core::CoreTapFrame* frame1, unsigned m) {
  // Dispatch once per chunk on the port count so the per-cycle port loops
  // (ring-plane writes + mask shift/insert) run with a constant trip count
  // and fully unroll. P == 0 is the runtime-count fallback; num_ports is
  // validated at construction so the default arm is unreachable in
  // practice, but keeps larger geometries correct if the bound ever grows.
  // CRC compare runs the runtime-count body: its per-port work is table
  // lookups that unrolling does not speed up, and the raw instantiations
  // stay free of CRC branches.
  if (config_.compare == CompareMode::kCrc32) {
    process_chunk_ports<0, true>(first_cycle, frame0, frame1, m);
    return;
  }
  switch (config_.num_ports) {
    case 1: process_chunk_ports<1, false>(first_cycle, frame0, frame1, m); break;
    case 2: process_chunk_ports<2, false>(first_cycle, frame0, frame1, m); break;
    case 3: process_chunk_ports<3, false>(first_cycle, frame0, frame1, m); break;
    case 4: process_chunk_ports<4, false>(first_cycle, frame0, frame1, m); break;
    case 5: process_chunk_ports<5, false>(first_cycle, frame0, frame1, m); break;
    case 6: process_chunk_ports<6, false>(first_cycle, frame0, frame1, m); break;
    default: process_chunk_ports<0, false>(first_cycle, frame0, frame1, m); break;
  }
}

template <unsigned P, bool kCrc>
void SafeDm::process_chunk_ports(u64 first_cycle, const core::CoreTapFrame* frame0,
                                 const core::CoreTapFrame* frame1, unsigned m) {
  // Per-cycle-exact batched hot loop. All accounting below is keyed to
  // cycle events (never to chunk boundaries), so the committed state —
  // including snapshot bytes — is independent of how a cycle stream is
  // chunked. Kernel dispatch, ring-plane pointers, and counter traffic
  // are hoisted out of the loop; state is committed once at the end.
  // The stage compare resolves to a fixed-count kernel (kStageSlots baked
  // in: straight-line vector code, no loop or tail branches).
  const simd::WordsEqualFixedFn stage_equal =
      simd::words_equal_fixed_fn<SignatureGenerator::kStageSlots>(simd::active_kernel());
  constexpr bool crc = kCrc;
  const unsigned ports = P != 0 ? P : config_.num_ports;
  const unsigned stride = sigs_[0].padded_depth();
  const unsigned ring_mask = stride - 1;
  u64* v0 = sigs_[0].values_mut();
  u8* e0 = sigs_[0].enables_mut();
  u64* v1 = sigs_[1].values_mut();
  u8* e1 = sigs_[1].enables_mut();
  u64 sa = sigs_[0].shift_count();
  u64 sb = sigs_[1].shift_count();
  i64 diff = inst_diff_.diff();
  u64 add0 = 0, add1 = 0;  // per-replica commit sums for the cumulative counters
  std::vector<bool>* const trail = trail_;
  u64 is_recomputes = crc ? 0 : m;

  u64 monitored = 0, nodiv_c = 0, ds_c = 0, is_c = 0, zero_c = 0, holds = 0;
  u64 nodiv_run = nodiv_run_, ds_run = ds_run_, is_run = is_run_;
  bool seen0 = seen_commit_[0], seen1 = seen_commit_[1];
  bool ds_now = ds_match_now_, is_now = is_match_now_, lack_now = lacking_now_;

  // IRQ threshold, precomputed: fire on the exact cycle the nodiv count
  // reaches it (at most once — the pending latch holds until cleared, and
  // clearing is an APB/direct call that can't happen mid-chunk).
  u64 fire_at = ~u64{0};
  if (!irq_pending_) {
    if (config_.report == ReportMode::kInterruptFirst) fire_at = 1;
    else if (config_.report == ReportMode::kInterruptThreshold) fire_at = config_.interrupt_threshold;
  }
  // Keep the fire check register-resident: the base only changes inside the
  // fire branch, which also disarms fire_at, so a stale base is never read.
  const u64 nodiv_base = counters_.nodiv_cycles;

  const auto write_slot = [&](SignatureGenerator& sig, u64* values, u8* enables, u64 shifts,
                              const core::CoreTapFrame& f) {
    const unsigned slot = static_cast<unsigned>(shifts) & ring_mask;
    for (unsigned p = 0; p < ports; ++p) {
      const unsigned idx = p * stride + slot;
      values[idx] = f.port[p].value;
      enables[idx] = f.port[p].enable ? u8{1} : u8{0};
    }
    if (crc) sig.shift_crc(shifts, f);
  };

  for (unsigned c = 0; c < m; ++c) {
    const core::CoreTapFrame& a = frame0[c];
    const core::CoreTapFrame& b = frame1[c];

    bool is_match;
    if (crc) {
      const bool changed0 = sigs_[0].observe_stage(&a.stage);
      const bool changed1 = sigs_[1].observe_stage(&b.stage);
      if (changed0 || changed1) ++is_recomputes;
      is_match = stage_crcs_match(sigs_[0], sigs_[1], stage_equal);
    } else {
      // IS verdict straight off the frames: the packed generator snapshots
      // would be byte-identical, so skip the two 112-byte stage copies the
      // per-cycle path pays and compare once with the dispatched kernel.
      is_match = stage_equal(&a.stage, &b.stage);
    }

    bool ds_match;
    if (!a.hold && !b.hold) {
      write_slot(sigs_[0], v0, e0, sa, a);
      write_slot(sigs_[1], v1, e1, sb, b);
      ++sa;
      ++sb;
      ds_match = crc ? pairs_[0].step_crc(true) : pairs_[0].step_shift<P>(a, b);
    } else if (a.hold && b.hold) {
      ++holds;
      ds_match = pairs_[0].ds_match();
    } else {
      // Divergent holds: only the un-held core shifts, then realign.
      if (!a.hold) {
        write_slot(sigs_[0], v0, e0, sa, a);
        ++sa;
      }
      if (!b.hold) {
        write_slot(sigs_[1], v1, e1, sb, b);
        ++sb;
      }
      ds_match = crc ? pairs_[0].step_crc(false) : pairs_[0].step_realign(sa, sb);
    }

    diff += static_cast<i64>(a.commits) - static_cast<i64>(b.commits);
    add0 += a.commits;
    add1 += b.commits;
    seen0 = seen0 || a.commits > 0;
    seen1 = seen1 || b.commits > 0;

    const bool nodiv = ds_match && is_match;
    ++monitored;
    if (ds_match) {
      ++ds_c;
      ++ds_run;
    } else if (ds_run > 0) {
      hist_ds_.add(ds_run);
      ds_run = 0;
    }
    if (is_match) {
      ++is_c;
      ++is_run;
    } else if (is_run > 0) {
      hist_is_.add(is_run);
      is_run = 0;
    }
    if (nodiv) {
      ++nodiv_c;
      ++nodiv_run;
    } else if (nodiv_run > 0) {
      hist_nodiv_.add(nodiv_run);
      nodiv_run = 0;
    }
    if (diff == 0) ++zero_c;
    ds_now = ds_match;
    is_now = is_match;
    lack_now = nodiv;
    if (trail) trail->push_back(nodiv);

    if (nodiv_base + nodiv_c >= fire_at) {
      // Commit the scalar state before the handler runs so an RTOS hook
      // observes counters/flags exactly as the per-cycle path would.
      // (Generator/comparator internals sync at chunk end; handlers are
      // not entitled to introspect signature internals mid-cycle.)
      counters_.monitored_cycles += monitored;
      counters_.nodiv_cycles += nodiv_c;
      counters_.ds_match_cycles += ds_c;
      counters_.is_match_cycles += is_c;
      counters_.zero_stag_cycles += zero_c;
      monitored = nodiv_c = ds_c = is_c = zero_c = 0;
      nodiv_run_ = nodiv_run;
      ds_run_ = ds_run;
      is_run_ = is_run;
      seen_commit_[0] = seen0;
      seen_commit_[1] = seen1;
      lacking_now_ = lack_now;
      ds_match_now_ = ds_now;
      is_match_now_ = is_now;
      inst_diff_.batch_commit(add0, add1);
      add0 = add1 = 0;
      irq_pending_ = true;
      ++counters_.interrupts;
      fire_at = ~u64{0};
      if (irq_handler_) irq_handler_(first_cycle + c);
    }
  }

  counters_.monitored_cycles += monitored;
  counters_.nodiv_cycles += nodiv_c;
  counters_.ds_match_cycles += ds_c;
  counters_.is_match_cycles += is_c;
  counters_.zero_stag_cycles += zero_c;
  nodiv_run_ = nodiv_run;
  ds_run_ = ds_run;
  is_run_ = is_run;
  seen_commit_[0] = seen0;
  seen_commit_[1] = seen1;
  lacking_now_ = lack_now;
  ds_match_now_ = ds_now;
  is_match_now_ = is_now;
  inst_diff_.batch_commit(add0, add1);
  sigs_[0].batch_commit(sa, &frame0[m - 1].stage, m);
  sigs_[1].batch_commit(sb, &frame1[m - 1].stage, m);
  pairs_[0].batch_commit(holds, is_recomputes, is_now);
}

// ---- N-replica group paths -----------------------------------------------------

void SafeDm::on_group_cycle(u64 cycle, const core::CoreTapFrame* const* frames,
                            unsigned n_replicas) {
  SAFEDM_CHECK_MSG(n_replicas == config_.num_replicas,
                   "group delivery width != configured num_replicas");
  if (n_replicas == 2) {
    on_cycle(cycle, *frames[0], *frames[1]);
    return;
  }
  group_cycle(cycle, frames);
}

void SafeDm::on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                             unsigned n_replicas, unsigned n_cycles) {
  SAFEDM_CHECK_MSG(n_replicas == config_.num_replicas,
                   "group delivery width != configured num_replicas");
  if (n_replicas == 2) {
    on_cycles(first_cycle, frames[0], frames[1], n_cycles);
    return;
  }
  const unsigned n = n_replicas;
  unsigned i = 0;
  const core::CoreTapFrame* cur[kMaxReplicas];
  while (i < n_cycles) {
    if (!batch_fast_eligible()) {
      for (unsigned r = 0; r < n; ++r) cur[r] = frames[r] + i;
      group_cycle(first_cycle + i, cur);
      ++i;
      continue;
    }
    // Fast span: consecutive cycles with every replica running.
    unsigned j = i;
    for (; j < n_cycles; ++j) {
      bool any_halted = false;
      for (unsigned r = 0; r < n; ++r) any_halted = any_halted || frames[r][j].halted;
      if (any_halted) break;
    }
    if (j == i) {
      for (unsigned r = 0; r < n; ++r) cur[r] = frames[r] + i;
      group_cycle(first_cycle + i, cur);
      ++i;
      continue;
    }
    while (i < j) {
      const unsigned m = std::min(j - i, 64u);
      process_group_chunk(first_cycle + i, frames, i, m);
      i += m;
    }
  }
}

void SafeDm::group_cycle(u64 cycle, const core::CoreTapFrame* const* frames) {
  const unsigned n = config_.num_replicas;
  for (unsigned r = 0; r < n; ++r) sigs_[r].capture(*frames[r]);
  if (config_.incremental_compare) {
    for (auto& pair : pairs_) pair.update();
  }

  unsigned commits[kMaxReplicas] = {};
  for (unsigned r = 0; r < n; ++r) commits[r] = frames[r]->commits;
  inst_diff_.on_commits_n(commits, n);

  bool all_seen = true;
  bool all_running = true;
  for (unsigned r = 0; r < n; ++r) {
    seen_commit_[r] = seen_commit_[r] || frames[r]->commits > 0;
    all_seen = all_seen && seen_commit_[r];
    all_running = all_running && !frames[r]->halted;
  }
  const bool armed = !config_.arm_on_first_commit || all_seen;
  if (!enabled_ || !all_running || !armed) {
    lacking_now_ = false;
    ds_match_now_ = false;
    is_match_now_ = false;
    if (trail_) trail_->push_back(false);
    return;
  }

  ++counters_.monitored_cycles;

  const bool stag_armed = inst_diff_.armed();
  const unsigned n_pairs = static_cast<unsigned>(pairs_.size());
  unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
  u64 group_distance = ~u64{0};
  for (unsigned p = 0; p < n_pairs; ++p) {
    const unsigned pi = pair_replicas_[p].first;
    const unsigned pj = pair_replicas_[p].second;
    bool ds_match;
    bool is_match;
    if (config_.incremental_compare) {
      ds_match = pairs_[p].ds_match();
      is_match = pairs_[p].is_match();
    } else if (config_.compare == CompareMode::kRaw) {
      ds_match = SignatureGenerator::data_equal(sigs_[pi], sigs_[pj]);
      is_match = SignatureGenerator::instruction_equal(sigs_[pi], sigs_[pj]);
    } else {
      ds_match = sigs_[pi].data_crc_exhaustive() == sigs_[pj].data_crc_exhaustive();
      is_match =
          sigs_[pi].instruction_crc_exhaustive() == sigs_[pj].instruction_crc_exhaustive();
    }
    const bool nodiv = ds_match && is_match;
    PairCounters& pc = pair_counters_[p];
    if (ds_match) {
      ++pc.ds_match_cycles;
      ++ds_n;
    }
    if (is_match) {
      ++pc.is_match_cycles;
      ++is_n;
    }
    if (nodiv) {
      ++pc.nodiv_cycles;
      ++nodiv_n;
    }
    if (stag_armed && inst_diff_.pair_diff(pi, pj) == 0) {
      ++pc.zero_stag_cycles;
      ++zero_n;
    }
    if (config_.track_distance) {
      const u64 distance = SignatureGenerator::data_distance(sigs_[pi], sigs_[pj]) +
                           SignatureGenerator::instruction_distance(sigs_[pi], sigs_[pj]);
      pc.distance_sum += distance;
      pc.distance_min = std::min(pc.distance_min, distance);
      pc.distance_max = std::max(pc.distance_max, distance);
      group_distance = std::min(group_distance, distance);
    }
  }

  // Group verdicts: the lowered policy threshold over the per-pair verdicts.
  const bool ds_match = ds_n >= needed_;
  const bool is_match = is_n >= needed_;
  const bool nodiv = nodiv_n >= needed_;
  lacking_now_ = nodiv;
  ds_match_now_ = ds_match;
  is_match_now_ = is_match;

  const auto track = [](bool condition, u64& run, u64& counter, Histogram& hist) {
    if (condition) {
      ++counter;
      ++run;
    } else if (run > 0) {
      hist.add(run);
      run = 0;
    }
  };
  track(ds_match, ds_run_, counters_.ds_match_cycles, hist_ds_);
  track(is_match, is_run_, counters_.is_match_cycles, hist_is_);
  track(nodiv, nodiv_run_, counters_.nodiv_cycles, hist_nodiv_);

  if (zero_n >= needed_) ++counters_.zero_stag_cycles;

  if (config_.track_distance) {
    // The group's diversity magnitude is its weakest link: the minimum
    // pairwise distance this cycle.
    counters_.distance_sum += group_distance;
    counters_.distance_min = std::min(counters_.distance_min, group_distance);
    counters_.distance_max = std::max(counters_.distance_max, group_distance);
    hist_distance_.add(group_distance);
  }

  update_interrupt(cycle);
  if (trail_) trail_->push_back(lacking_now_);
}

void SafeDm::process_group_chunk(u64 first_cycle, const core::CoreTapFrame* const* frames,
                                 unsigned offset, unsigned m) {
  // The N-replica analogue of process_chunk_ports: per-cycle-exact, all
  // commits keyed to cycle events. Port/pair loops run with runtime trip
  // counts (the matrix dominates the cost; the per-port unrolling of the
  // pairwise path buys little here).
  const simd::WordsEqualFixedFn stage_equal =
      simd::words_equal_fixed_fn<SignatureGenerator::kStageSlots>(simd::active_kernel());
  const bool crc = config_.compare == CompareMode::kCrc32;
  const unsigned n = config_.num_replicas;
  const unsigned n_pairs = static_cast<unsigned>(pairs_.size());
  const unsigned ports = config_.num_ports;
  const unsigned stride = sigs_[0].padded_depth();
  const unsigned ring_mask = stride - 1;

  u64* values[kMaxReplicas];
  u8* enables[kMaxReplicas];
  u64 shifts[kMaxReplicas];
  u64 adds[kMaxReplicas] = {};
  bool seen[kMaxReplicas];
  for (unsigned r = 0; r < n; ++r) {
    values[r] = sigs_[r].values_mut();
    enables[r] = sigs_[r].enables_mut();
    shifts[r] = sigs_[r].shift_count();
    seen[r] = seen_commit_[r];
  }
  // Pair staggering diffs, rebased whenever the chunk commits mid-stream.
  i64 stag_base[kMaxReplicaPairs];
  u64 hold_reuses[kMaxReplicaPairs] = {};
  u64 is_recomputes[kMaxReplicaPairs] = {};  // CRC mode only
  bool pair_is[kMaxReplicaPairs] = {};
  for (unsigned p = 0; p < n_pairs; ++p)
    stag_base[p] = inst_diff_.pair_diff(pair_replicas_[p].first, pair_replicas_[p].second);

  u64 monitored = 0, nodiv_c = 0, ds_c = 0, is_c = 0, zero_c = 0;
  u64 nodiv_run = nodiv_run_, ds_run = ds_run_, is_run = is_run_;
  bool ds_now = ds_match_now_, is_now = is_match_now_, lack_now = lacking_now_;
  std::vector<bool>* const trail = trail_;

  u64 fire_at = ~u64{0};
  if (!irq_pending_) {
    if (config_.report == ReportMode::kInterruptFirst) fire_at = 1;
    else if (config_.report == ReportMode::kInterruptThreshold) fire_at = config_.interrupt_threshold;
  }
  const u64 nodiv_base = counters_.nodiv_cycles;

  for (unsigned c = 0; c < m; ++c) {
    bool shifted[kMaxReplicas];
    bool stage_changed[kMaxReplicas];
    for (unsigned r = 0; r < n; ++r) {
      const core::CoreTapFrame& f = frames[r][offset + c];
      shifted[r] = !f.hold;
      stage_changed[r] = crc && sigs_[r].observe_stage(&f.stage);
      if (!f.hold) {
        const unsigned slot = static_cast<unsigned>(shifts[r]) & ring_mask;
        for (unsigned p = 0; p < ports; ++p) {
          const unsigned idx = p * stride + slot;
          values[r][idx] = f.port[p].value;
          enables[r][idx] = f.port[p].enable ? u8{1} : u8{0};
        }
        if (crc) sigs_[r].shift_crc(shifts[r], f);
        ++shifts[r];
      }
      adds[r] += f.commits;
      seen[r] = seen[r] || f.commits > 0;
    }

    unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
    for (unsigned p = 0; p < n_pairs; ++p) {
      const unsigned pi = pair_replicas_[p].first;
      const unsigned pj = pair_replicas_[p].second;
      const core::CoreTapFrame& fi = frames[pi][offset + c];
      const core::CoreTapFrame& fj = frames[pj][offset + c];
      bool ds_match;
      if (shifted[pi] && shifted[pj]) {
        ds_match = crc ? pairs_[p].step_crc(true) : pairs_[p].step_shift(fi, fj);
      } else if (!shifted[pi] && !shifted[pj]) {
        ++hold_reuses[p];
        ds_match = pairs_[p].ds_match();
      } else {
        ds_match = crc ? pairs_[p].step_crc(false)
                       : pairs_[p].step_realign(shifts[pi], shifts[pj]);
      }
      bool is_match;
      if (crc) {
        if (stage_changed[pi] || stage_changed[pj]) ++is_recomputes[p];
        is_match = stage_crcs_match(sigs_[pi], sigs_[pj], stage_equal);
      } else {
        is_match = stage_equal(&fi.stage, &fj.stage);
      }
      pair_is[p] = is_match;
      const bool nodiv = ds_match && is_match;
      PairCounters& pc = pair_counters_[p];
      if (ds_match) {
        ++pc.ds_match_cycles;
        ++ds_n;
      }
      if (is_match) {
        ++pc.is_match_cycles;
        ++is_n;
      }
      if (nodiv) {
        ++pc.nodiv_cycles;
        ++nodiv_n;
      }
      // Batch eligibility guarantees the staggering counter is armed.
      if (stag_base[p] + static_cast<i64>(adds[pi] - adds[pj]) == 0) {
        ++pc.zero_stag_cycles;
        ++zero_n;
      }
    }

    ++monitored;
    const bool ds_match_g = ds_n >= needed_;
    const bool is_match_g = is_n >= needed_;
    const bool nodiv_g = nodiv_n >= needed_;
    if (ds_match_g) {
      ++ds_c;
      ++ds_run;
    } else if (ds_run > 0) {
      hist_ds_.add(ds_run);
      ds_run = 0;
    }
    if (is_match_g) {
      ++is_c;
      ++is_run;
    } else if (is_run > 0) {
      hist_is_.add(is_run);
      is_run = 0;
    }
    if (nodiv_g) {
      ++nodiv_c;
      ++nodiv_run;
    } else if (nodiv_run > 0) {
      hist_nodiv_.add(nodiv_run);
      nodiv_run = 0;
    }
    if (zero_n >= needed_) ++zero_c;
    ds_now = ds_match_g;
    is_now = is_match_g;
    lack_now = nodiv_g;
    if (trail) trail->push_back(nodiv_g);

    if (nodiv_base + nodiv_c >= fire_at) {
      counters_.monitored_cycles += monitored;
      counters_.nodiv_cycles += nodiv_c;
      counters_.ds_match_cycles += ds_c;
      counters_.is_match_cycles += is_c;
      counters_.zero_stag_cycles += zero_c;
      monitored = nodiv_c = ds_c = is_c = zero_c = 0;
      nodiv_run_ = nodiv_run;
      ds_run_ = ds_run;
      is_run_ = is_run;
      for (unsigned r = 0; r < n; ++r) seen_commit_[r] = seen[r];
      lacking_now_ = lack_now;
      ds_match_now_ = ds_now;
      is_match_now_ = is_now;
      inst_diff_.batch_commit_n(adds, n);
      for (unsigned r = 0; r < n; ++r) adds[r] = 0;
      for (unsigned p = 0; p < n_pairs; ++p)
        stag_base[p] =
            inst_diff_.pair_diff(pair_replicas_[p].first, pair_replicas_[p].second);
      irq_pending_ = true;
      ++counters_.interrupts;
      fire_at = ~u64{0};
      if (irq_handler_) irq_handler_(first_cycle + c);
    }
  }

  counters_.monitored_cycles += monitored;
  counters_.nodiv_cycles += nodiv_c;
  counters_.ds_match_cycles += ds_c;
  counters_.is_match_cycles += is_c;
  counters_.zero_stag_cycles += zero_c;
  nodiv_run_ = nodiv_run;
  ds_run_ = ds_run;
  is_run_ = is_run;
  for (unsigned r = 0; r < n; ++r) seen_commit_[r] = seen[r];
  lacking_now_ = lack_now;
  ds_match_now_ = ds_now;
  is_match_now_ = is_now;
  inst_diff_.batch_commit_n(adds, n);
  for (unsigned r = 0; r < n; ++r)
    sigs_[r].batch_commit(shifts[r], &frames[r][offset + m - 1].stage, m);
  for (unsigned p = 0; p < n_pairs; ++p)
    pairs_[p].batch_commit(hold_reuses[p], crc ? is_recomputes[p] : m, pair_is[p]);
}

void SafeDm::finalize() {
  if (ds_run_ > 0) hist_ds_.add(ds_run_);
  if (is_run_ > 0) hist_is_.add(is_run_);
  if (nodiv_run_ > 0) hist_nodiv_.add(nodiv_run_);
  ds_run_ = is_run_ = nodiv_run_ = 0;
}

void SafeDm::update_interrupt(u64 cycle) {
  bool fire = false;
  switch (config_.report) {
    case ReportMode::kInterruptFirst:
      fire = counters_.nodiv_cycles >= 1;
      break;
    case ReportMode::kInterruptThreshold:
      fire = counters_.nodiv_cycles >= config_.interrupt_threshold;
      break;
    case ReportMode::kPollOnly:
      fire = false;
      break;
  }
  if (fire && !irq_pending_) {
    irq_pending_ = true;
    ++counters_.interrupts;
    if (irq_handler_) irq_handler_(cycle);
  }
}

// ---- APB register file ---------------------------------------------------------------

u32 SafeDm::apb_read(u32 offset) {
  switch (offset) {
    case reg::kCtrl:
      return (enabled_ ? 1u : 0u) | (static_cast<u32>(config_.report) << 1);
    case reg::kStatus:
      return (lacking_now_ ? 1u : 0u) | (irq_pending_ ? 2u : 0u);
    case reg::kNodivLo:
      return static_cast<u32>(counters_.nodiv_cycles);
    case reg::kNodivHi:
      return static_cast<u32>(counters_.nodiv_cycles >> 32);
    case reg::kThreshold:
      return config_.interrupt_threshold;
    case reg::kMonitoredLo:
      return static_cast<u32>(counters_.monitored_cycles);
    case reg::kMonitoredHi:
      return static_cast<u32>(counters_.monitored_cycles >> 32);
    case reg::kInstDiff:
      return static_cast<u32>(static_cast<i32>(
          std::clamp<i64>(inst_diff_.diff(), std::numeric_limits<i32>::min(),
                          std::numeric_limits<i32>::max())));
    case reg::kZeroStagLo:
      return static_cast<u32>(counters_.zero_stag_cycles);
    case reg::kZeroStagHi:
      return static_cast<u32>(counters_.zero_stag_cycles >> 32);
    case reg::kDsMatchLo:
      return static_cast<u32>(counters_.ds_match_cycles);
    case reg::kDsMatchHi:
      return static_cast<u32>(counters_.ds_match_cycles >> 32);
    case reg::kIsMatchLo:
      return static_cast<u32>(counters_.is_match_cycles);
    case reg::kIsMatchHi:
      return static_cast<u32>(counters_.is_match_cycles >> 32);
    case reg::kHistSelect:
      return hist_select_;
    case reg::kHistData: {
      const unsigned bin = hist_select_ & 0xFF;
      const unsigned which = (hist_select_ >> 8) & 0x3;
      const Histogram& hist = which == 0 ? hist_nodiv_ : which == 1 ? hist_ds_ : hist_is_;
      if (bin >= hist.bin_count()) return 0;
      const u64 value = hist.bin_value(bin);
      return value > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<u32>(value);
    }
    case reg::kGeometry:
      return (config_.data_fifo_depth & 0xFF) | ((config_.num_ports & 0xFF) << 8) |
             ((core::kPipelineStages & 0xFF) << 16) |
             ((core::kMaxIssueWidth & 0xFF) << 24);
    case reg::kGroup:
      return (config_.num_replicas & 0xFF) | ((num_pairs() & 0xFF) << 8) |
             ((static_cast<u32>(config_.policy) & 0x3) << 16) | ((needed_ & 0x3FFF) << 18);
    case reg::kPairSelect:
      return pair_select_;
    case reg::kPairData: {
      const unsigned pair = pair_select_ & 0xFF;
      const unsigned which = (pair_select_ >> 8) & 0x3;
      if (pair >= num_pairs()) return 0;
      const PairCounters pc = pair_counters(pair);
      const u64 value = which == 0   ? pc.nodiv_cycles
                        : which == 1 ? pc.ds_match_cycles
                        : which == 2 ? pc.is_match_cycles
                                     : pc.zero_stag_cycles;
      return value > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<u32>(value);
    }
    default:
      return 0;
  }
}

void SafeDm::apb_write(u32 offset, u32 value) {
  switch (offset) {
    case reg::kCtrl: {
      enabled_ = value & 1u;
      // Report mode 3 is reserved: such a write leaves the mode unchanged.
      const u32 mode = (value >> 1) & 0x3u;
      if (mode <= static_cast<u32>(ReportMode::kPollOnly))
        config_.report = static_cast<ReportMode>(mode);
      if (value & (1u << 3)) reset();
      if (value & (1u << 4)) clear_interrupt();
      break;
    }
    case reg::kThreshold:
      config_.interrupt_threshold = value;
      break;
    case reg::kIgnore0:
      inst_diff_.set_ignore(0, value);
      break;
    case reg::kIgnore1:
      inst_diff_.set_ignore(1, value);
      break;
    case reg::kHistSelect:
      hist_select_ = value;
      break;
    case reg::kPairSelect:
      pair_select_ = value;
      break;
    default:
      break;  // writes to read-only registers are ignored, like hardware
  }
}

// ---- snapshot/restore ----------------------------------------------------------

void InstructionDiff::save_state(StateWriter& w) const {
  w.begin_section("IDIF", 2);
  w.put_u32(n_);
  for (unsigned r = 0; r < n_; ++r) {
    w.put_u64(cum_[r]);
    w.put_u64(ignore_[r]);
  }
  w.end_section();
}

void InstructionDiff::restore_state(StateReader& r) {
  r.begin_section("IDIF", 2);
  const u32 n = r.get_u32();
  if (n != n_) throw StateError("InstructionDiff replica count mismatch");
  for (unsigned i = 0; i < n_; ++i) {
    cum_[i] = r.get_u64();
    ignore_[i] = r.get_u64();
  }
  r.end_section();
}

void SafeDm::save_state(StateWriter& w) const {
  w.begin_section("SFDM", 2);
  // Group shape first: a snapshot only restores into a same-shape monitor.
  w.put_u32(config_.num_replicas);
  // Runtime-writable config bits (kCtrl report mode, kThreshold).
  w.put_u8(static_cast<u8>(config_.report));
  w.put_u32(config_.interrupt_threshold);
  w.put_bool(enabled_);
  for (unsigned r = 0; r < config_.num_replicas; ++r) w.put_bool(seen_commit_[r]);
  w.put_bool(lacking_now_);
  w.put_bool(ds_match_now_);
  w.put_bool(is_match_now_);
  w.put_bool(irq_pending_);
  w.put_u64(counters_.monitored_cycles);
  w.put_u64(counters_.nodiv_cycles);
  w.put_u64(counters_.ds_match_cycles);
  w.put_u64(counters_.is_match_cycles);
  w.put_u64(counters_.zero_stag_cycles);
  w.put_u64(counters_.interrupts);
  w.put_u64(counters_.distance_sum);
  w.put_u64(counters_.distance_min);
  w.put_u64(counters_.distance_max);
  w.put_u64(nodiv_run_);
  w.put_u64(ds_run_);
  w.put_u64(is_run_);
  w.put_u32(hist_select_);
  w.put_u32(pair_select_);
  // Matrix cells (N > 2 only; for pairs the group counters are the cell).
  for (const PairCounters& pc : pair_counters_) {
    w.put_u64(pc.nodiv_cycles);
    w.put_u64(pc.ds_match_cycles);
    w.put_u64(pc.is_match_cycles);
    w.put_u64(pc.zero_stag_cycles);
    w.put_u64(pc.distance_sum);
    w.put_u64(pc.distance_min);
    w.put_u64(pc.distance_max);
  }
  inst_diff_.save_state(w);
  for (const SignatureGenerator& sig : sigs_) sig.save_state(w);
  for (const DiversityComparator& pair : pairs_) pair.save_state(w);
  hist_nodiv_.save_state(w);
  hist_ds_.save_state(w);
  hist_is_.save_state(w);
  hist_distance_.save_state(w);
  w.end_section();
}

void SafeDm::restore_state(StateReader& r) {
  r.begin_section("SFDM", 2);
  if (r.get_u32() != config_.num_replicas)
    throw StateError("SafeDm group shape mismatch (num_replicas)");
  const u8 report = r.get_u8();
  if (report > static_cast<u8>(ReportMode::kPollOnly))
    throw StateError("SafeDm report mode " + std::to_string(report) + " out of range (0..2)");
  config_.report = static_cast<ReportMode>(report);
  config_.interrupt_threshold = r.get_u32();
  enabled_ = r.get_bool();
  for (unsigned i = 0; i < config_.num_replicas; ++i) seen_commit_[i] = r.get_bool();
  lacking_now_ = r.get_bool();
  ds_match_now_ = r.get_bool();
  is_match_now_ = r.get_bool();
  irq_pending_ = r.get_bool();
  counters_.monitored_cycles = r.get_u64();
  counters_.nodiv_cycles = r.get_u64();
  counters_.ds_match_cycles = r.get_u64();
  counters_.is_match_cycles = r.get_u64();
  counters_.zero_stag_cycles = r.get_u64();
  counters_.interrupts = r.get_u64();
  counters_.distance_sum = r.get_u64();
  counters_.distance_min = r.get_u64();
  counters_.distance_max = r.get_u64();
  nodiv_run_ = r.get_u64();
  ds_run_ = r.get_u64();
  is_run_ = r.get_u64();
  hist_select_ = r.get_u32();
  pair_select_ = r.get_u32();
  for (PairCounters& pc : pair_counters_) {
    pc.nodiv_cycles = r.get_u64();
    pc.ds_match_cycles = r.get_u64();
    pc.is_match_cycles = r.get_u64();
    pc.zero_stag_cycles = r.get_u64();
    pc.distance_sum = r.get_u64();
    pc.distance_min = r.get_u64();
    pc.distance_max = r.get_u64();
  }
  inst_diff_.restore_state(r);
  for (SignatureGenerator& sig : sigs_) sig.restore_state(r);
  // The comparators resync against the freshly restored generators.
  for (DiversityComparator& pair : pairs_) pair.restore_state(r);
  hist_nodiv_.restore_state(r);
  hist_ds_.restore_state(r);
  hist_is_.restore_state(r);
  hist_distance_.restore_state(r);
  r.end_section();
}

}  // namespace safedm::monitor
