#include "safedm/safedm/monitor.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

void InstructionDiff::on_commits_prelude_n(const unsigned* commits, unsigned n_replicas) {
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

constexpr unsigned pairs_for(unsigned n_replicas) { return n_replicas * (n_replicas - 1) / 2; }

/// Matrix cells of a compile-time replica count, in pair_replicas() order.
template <unsigned N>
constexpr std::array<std::pair<u8, u8>, pairs_for(N)> kCells = [] {
  std::array<std::pair<u8, u8>, pairs_for(N)> cells{};
  unsigned p = 0;
  for (unsigned i = 0; i < N; ++i)
    for (unsigned j = i + 1; j < N; ++j) cells[p++] = {static_cast<u8>(i), static_cast<u8>(j)};
  return cells;
}();

/// Replica indices of matrix cell `p`: from the constant table when the
/// replica count is baked in (N != 0), else from the monitor's own.
template <unsigned N>
std::pair<unsigned, unsigned> cell_replicas(const std::vector<std::pair<u8, u8>>& cells,
                                            unsigned p) {
  if constexpr (N != 0) return {kCells<N>[p].first, kCells<N>[p].second};
  else return {cells[p].first, cells[p].second};
}

/// The lowered verdict threshold as a kernel sees it: a one-pair matrix can
/// only need its one pair, which lets the compiler fold the group verdicts
/// onto the pair's.
template <unsigned N>
unsigned pairs_needed(unsigned needed) {
  return pairs_for(N) == 1 ? 1 : needed;
}

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

/// One episode-tracking step: count a matched cycle and extend its run, or
/// close the open run into the history histogram.
void track(bool condition, u64& run, u64& counter, Histogram& hist) {
  if (condition) {
    ++counter;
    ++run;
  } else if (run > 0) {
    hist.add(run);
    run = 0;
  }
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
  pair_counters_.resize(n_pairs);
  inst_diff_.configure(n);
  // The paper's pair gets kernels with the replica count baked in; larger
  // groups share the runtime-count ones.
  cycle_fn_ = n == 2 ? &SafeDm::group_cycle<2> : &SafeDm::group_cycle<0>;
  chunk_fn_ = n == 2 ? chunk_kernel<2>(config) : chunk_kernel<0>(config);
}

template <unsigned N>
SafeDm::ChunkFn SafeDm::chunk_kernel(const SafeDmConfig& config) {
  // The port count is baked in so the per-cycle port loops (ring-plane
  // writes + mask shift/insert) run with a constant trip count and fully
  // unroll. P == 0 is the runtime-count fallback; num_ports is validated
  // at construction so the default arm is unreachable in practice, but
  // keeps larger geometries correct if the bound ever grows. CRC compare
  // runs the runtime-count body: its per-port work is table lookups that
  // unrolling does not speed up, and the raw instantiations stay free of
  // CRC branches.
  if (config.compare == CompareMode::kCrc32) return &SafeDm::process_chunk<N, 0, true>;
  switch (config.num_ports) {
    case 1: return &SafeDm::process_chunk<N, 1, false>;
    case 2: return &SafeDm::process_chunk<N, 2, false>;
    case 3: return &SafeDm::process_chunk<N, 3, false>;
    case 4: return &SafeDm::process_chunk<N, 4, false>;
    case 5: return &SafeDm::process_chunk<N, 5, false>;
    case 6: return &SafeDm::process_chunk<N, 6, false>;
    default: return &SafeDm::process_chunk<N, 0, false>;
  }
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

const PairCounters& SafeDm::pair_counters(unsigned pair) const {
  SAFEDM_CHECK(pair < pair_counters_.size());
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

// ---- delivery -----------------------------------------------------------------

void SafeDm::on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                      const core::CoreTapFrame& frame1) {
  SAFEDM_CHECK_MSG(config_.num_replicas == 2,
                   "pairwise delivery on an N-replica monitor; use on_group_cycle");
  const core::CoreTapFrame* frames[2] = {&frame0, &frame1};
  group_cycle<2>(cycle, frames);
}

void SafeDm::on_cycles(u64 first_cycle, const core::CoreTapFrame* frame0,
                       const core::CoreTapFrame* frame1, unsigned n) {
  SAFEDM_CHECK_MSG(config_.num_replicas == 2,
                   "pairwise delivery on an N-replica monitor; use on_group_cycles");
  const core::CoreTapFrame* frames[2] = {frame0, frame1};
  deliver(first_cycle, frames, n);
}

void SafeDm::on_group_cycle(u64 cycle, const core::CoreTapFrame* const* frames,
                            unsigned n_replicas) {
  SAFEDM_CHECK_MSG(n_replicas == config_.num_replicas,
                   "group delivery width != configured num_replicas");
  (this->*cycle_fn_)(cycle, frames);
}

void SafeDm::on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                             unsigned n_replicas, unsigned n_cycles) {
  SAFEDM_CHECK_MSG(n_replicas == config_.num_replicas,
                   "group delivery width != configured num_replicas");
  // Per-cycle delivery skips the span loop: for one cycle the per-cycle
  // body is faster than entering the chunk kernel.
  if (n_cycles == 1) (this->*cycle_fn_)(first_cycle, frames);
  else deliver(first_cycle, frames, n_cycles);
}

bool SafeDm::batch_fast_eligible() const {
  // The chunk kernel covers incremental per-stage compare, raw or CRC;
  // anything else (flat-list IS, distance tracking, disabled or
  // not-yet-armed monitor, multi-word masks) falls back to the per-cycle
  // path, which is always correct.
  bool all_seen = true;
  if (config_.arm_on_first_commit) {
    for (unsigned r = 0; r < config_.num_replicas; ++r) all_seen = all_seen && seen_commit_[r];
  }
  return enabled_ && config_.incremental_compare && config_.is_mode == IsMode::kPerStage &&
         !config_.track_distance && config_.data_fifo_depth <= 64 && all_seen &&
         inst_diff_.armed();
}

void SafeDm::deliver(u64 first_cycle, const core::CoreTapFrame* const* frames,
                     unsigned n_cycles) {
  const unsigned n = config_.num_replicas;
  const core::CoreTapFrame* cur[kMaxReplicas] = {};
  unsigned i = 0;
  while (i < n_cycles) {
    for (unsigned r = 0; r < n; ++r) cur[r] = frames[r] + i;
    // Eligibility can flip mid-batch (arming on first commit, prelude
    // consumption, an IRQ handler's writes), so re-check per chunk. The
    // chunk kernel stops at a halted frame; that cycle, like an ineligible
    // one, takes the per-cycle path.
    unsigned done = 0;
    if (batch_fast_eligible())
      done = (this->*chunk_fn_)(first_cycle + i, cur, std::min(n_cycles - i, 64u));
    if (done == 0) {
      (this->*cycle_fn_)(first_cycle + i, cur);
      done = 1;
    }
    i += done;
  }
}

template <unsigned N>
void SafeDm::group_cycle(u64 cycle, const core::CoreTapFrame* const* frames) {
  const unsigned n = N != 0 ? N : config_.num_replicas;
  const unsigned n_pairs = N != 0 ? pairs_for(N) : num_pairs();
  // The signature FIFOs clock continuously (hardware is never "off"); only
  // the counting/reporting logic is gated by the enable bit. The
  // comparators likewise track every cycle so their bookkeeping stays
  // aligned with the FIFOs across enable/arm transitions.
  unsigned commits[kMaxReplicas] = {};
  bool all_seen = true;
  bool all_running = true;
  // -O2 does not unroll a loop whose unrolled body outgrows it. The pragma
  // fully unrolls the pair's replica loops (N == 2), keeping their
  // per-replica locals in registers, and unrolls larger groups' by two.
#pragma GCC unroll 2
  for (unsigned r = 0; r < n; ++r) {
    const core::CoreTapFrame& f = *frames[r];
    sigs_[r].capture(f);
    commits[r] = f.commits;
    seen_commit_[r] = seen_commit_[r] || f.commits > 0;
    all_seen = all_seen && seen_commit_[r];
    all_running = all_running && !f.halted;
  }
  if (config_.incremental_compare) {
    for (unsigned p = 0; p < n_pairs; ++p) pairs_[p].update();
  }
  const bool stag_armed = inst_diff_.on_commits_n(commits, n);

  const bool armed = !config_.arm_on_first_commit || all_seen;
  if (!enabled_ || !all_running || !armed) {
    lacking_now_ = false;
    ds_match_now_ = false;
    is_match_now_ = false;
    if (trail_) trail_->push_back(false);
    return;
  }

  ++counters_.monitored_cycles;

  unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
  u64 group_distance = ~u64{0};
  for (unsigned p = 0; p < n_pairs; ++p) {
    const auto [pi, pj] = cell_replicas<N>(pair_replicas_, p);
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
    const bool zero = stag_armed && inst_diff_.pair_diff(pi, pj) == 0;
    PairCounters& pc = pair_counters_[p];
    pc.nodiv_cycles += nodiv;
    pc.ds_match_cycles += ds_match;
    pc.is_match_cycles += is_match;
    pc.zero_stag_cycles += zero;
    ds_n += ds_match;
    is_n += is_match;
    nodiv_n += nodiv;
    zero_n += zero;
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
  const unsigned needed = pairs_needed<N>(needed_);
  const bool ds_match = ds_n >= needed;
  const bool is_match = is_n >= needed;
  const bool nodiv = nodiv_n >= needed;
  lacking_now_ = nodiv;
  ds_match_now_ = ds_match;
  is_match_now_ = is_match;
  track(ds_match, ds_run_, counters_.ds_match_cycles, hist_ds_);
  track(is_match, is_run_, counters_.is_match_cycles, hist_is_);
  track(nodiv, nodiv_run_, counters_.nodiv_cycles, hist_nodiv_);
  if (zero_n >= needed) ++counters_.zero_stag_cycles;

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

template <unsigned N, unsigned P, bool kCrc>
unsigned SafeDm::process_chunk(u64 first_cycle, const core::CoreTapFrame* const* frames,
                               unsigned m) {
  // Per-cycle-exact batched hot loop. All accounting below is keyed to
  // cycle events (never to chunk boundaries), so the committed state —
  // including snapshot bytes — is independent of how a cycle stream is
  // chunked. Kernel dispatch, ring-plane pointers, and counter traffic
  // (group and per-pair) are hoisted out of the loop; state is committed
  // once at the end. The stage compare resolves to a fixed-count kernel
  // (kStageSlots baked in: straight-line vector code, no loop or tail
  // branches). Replica loops unroll as in group_cycle.
  constexpr unsigned kReplicas = N != 0 ? N : kMaxReplicas;  // array bounds
  constexpr unsigned kPairs = N != 0 ? pairs_for(N) : kMaxReplicaPairs;
  const unsigned n = N != 0 ? N : config_.num_replicas;
  const unsigned n_pairs = N != 0 ? kPairs : num_pairs();
  const unsigned ports = P != 0 ? P : config_.num_ports;
  const simd::WordsEqualFixedFn stage_equal =
      simd::words_equal_fixed_fn<SignatureGenerator::kStageSlots>(simd::active_kernel());
  const unsigned stride = sigs_[0].padded_depth();
  const unsigned ring_mask = stride - 1;
  const unsigned needed = pairs_needed<N>(needed_);
  SignatureGenerator* const sigs = sigs_.data();
  DiversityComparator* const pairs = pairs_.data();
  std::vector<bool>* const trail = trail_;

  const core::CoreTapFrame* f[kReplicas] = {};
  u64* values[kReplicas] = {};
  u8* enables[kReplicas] = {};
  u64 shifts[kReplicas] = {};
  u64 cum[kReplicas] = {};  // cumulative commits: a pair is unstaggered when equal
#pragma GCC unroll 2
  for (unsigned r = 0; r < n; ++r) {
    f[r] = frames[r];
    values[r] = sigs[r].values_mut();
    enables[r] = sigs[r].enables_mut();
    shifts[r] = sigs[r].shift_count();
    cum[r] = inst_diff_.cumulative(r);
  }
  // This chunk's matrix cell counts and per-pair comparator stats.
  u64 pair_ds[kPairs] = {}, pair_is[kPairs] = {}, pair_nodiv[kPairs] = {},
      pair_zero[kPairs] = {};
  u64 hold_reuses[kPairs] = {}, is_recomputes[kPairs] = {};  // is_recomputes: CRC mode
  bool is_last[kPairs] = {};

  u64 nodiv_c = 0, ds_c = 0, is_c = 0, zero_c = 0;
  u64 nodiv_run = nodiv_run_, ds_run = ds_run_, is_run = is_run_;
  bool ds_now = ds_match_now_, is_now = is_match_now_, lack_now = lacking_now_;

  // The chunk ends on the cycle the nodiv count reaches the IRQ threshold,
  // so the handler runs after a full commit and the next chunk re-reads
  // whatever it changed.
  const u64 fire_at = irq_threshold();
  const u64 nodiv_base = counters_.nodiv_cycles;

  unsigned c = 0;
  bool fired = false;
  while (c < m && !fired) {
    // A halted replica gates counting but still clocks its FIFOs: the
    // per-cycle path takes that cycle.
    bool halted = false;
#pragma GCC unroll 2
    for (unsigned r = 0; r < n; ++r) halted = halted || f[r][c].halted;
    if (halted) break;
    // Bit r set: replica r's pipeline holds this cycle (its FIFOs freeze).
    unsigned held = 0;
    bool stage_changed[kReplicas] = {};
#pragma GCC unroll 2
    for (unsigned r = 0; r < n; ++r) {
      const core::CoreTapFrame& fr = f[r][c];
      if constexpr (kCrc) stage_changed[r] = sigs[r].observe_stage(&fr.stage);
      held |= static_cast<unsigned>(fr.hold) << r;
      cum[r] += fr.commits;
    }
    const auto shift_in = [&](unsigned r) {
      const core::CoreTapFrame& fr = f[r][c];
      const unsigned slot = static_cast<unsigned>(shifts[r]) & ring_mask;
      for (unsigned p = 0; p < ports; ++p) {
        const unsigned idx = p * stride + slot;
        values[r][idx] = fr.port[p].value;
        enables[r][idx] = fr.port[p].enable ? u8{1} : u8{0};
      }
      if constexpr (kCrc) sigs[r].shift_crc(shifts[r], fr);
      ++shifts[r];
    };

    // DS verdicts. The common cycle, nobody held, runs without per-replica
    // hold branches; otherwise each pair steps by which of its two held.
    bool ds[kPairs] = {};
    if (held == 0) {
#pragma GCC unroll 2
      for (unsigned r = 0; r < n; ++r) shift_in(r);
      for (unsigned p = 0; p < n_pairs; ++p) {
        const auto [pi, pj] = cell_replicas<N>(pair_replicas_, p);
        if constexpr (kCrc) ds[p] = pairs[p].step_crc(true);
        else ds[p] = pairs[p].template step_shift<P>(f[pi][c], f[pj][c]);
      }
    } else {
#pragma GCC unroll 2
      for (unsigned r = 0; r < n; ++r)
        if (((held >> r) & 1) == 0) shift_in(r);
      for (unsigned p = 0; p < n_pairs; ++p) {
        const auto [pi, pj] = cell_replicas<N>(pair_replicas_, p);
        const unsigned both = (1u << pi) | (1u << pj);
        if ((held & both) == 0) {
          if constexpr (kCrc) ds[p] = pairs[p].step_crc(true);
          else ds[p] = pairs[p].template step_shift<P>(f[pi][c], f[pj][c]);
        } else if ((held & both) == both) {
          ++hold_reuses[p];
          ds[p] = pairs[p].ds_match();
        } else {
          // Divergent holds: only the un-held replica shifted; realign.
          if constexpr (kCrc) ds[p] = pairs[p].step_crc(false);
          else ds[p] = pairs[p].step_realign(shifts[pi], shifts[pj]);
        }
      }
    }

    unsigned ds_n = 0, is_n = 0, nodiv_n = 0, zero_n = 0;
    for (unsigned p = 0; p < n_pairs; ++p) {
      const auto [pi, pj] = cell_replicas<N>(pair_replicas_, p);
      const core::CoreTapFrame& fi = f[pi][c];
      const core::CoreTapFrame& fj = f[pj][c];
      const bool ds_match = ds[p];
      bool is_match;
      if constexpr (kCrc) {
        if (stage_changed[pi] || stage_changed[pj]) ++is_recomputes[p];
        is_match = stage_crcs_match(sigs[pi], sigs[pj], stage_equal);
      } else {
        // IS verdict straight off the frames: the packed generator
        // snapshots would be byte-identical, so skip the stage copies the
        // per-cycle path pays and compare once with the dispatched kernel.
        is_match = stage_equal(&fi.stage, &fj.stage);
      }
      is_last[p] = is_match;
      const bool nodiv = ds_match && is_match;
      // Batch eligibility guarantees the staggering counter is armed.
      const bool zero = cum[pi] == cum[pj];
      pair_ds[p] += ds_match;
      pair_is[p] += is_match;
      pair_nodiv[p] += nodiv;
      pair_zero[p] += zero;
      ds_n += ds_match;
      is_n += is_match;
      nodiv_n += nodiv;
      zero_n += zero;
    }

    const bool ds_match = ds_n >= needed;
    const bool is_match = is_n >= needed;
    const bool nodiv = nodiv_n >= needed;
    track(ds_match, ds_run, ds_c, hist_ds_);
    track(is_match, is_run, is_c, hist_is_);
    track(nodiv, nodiv_run, nodiv_c, hist_nodiv_);
    zero_c += zero_n >= needed;
    ds_now = ds_match;
    is_now = is_match;
    lack_now = nodiv;
    if (trail) trail->push_back(nodiv);
    ++c;
    fired = nodiv_base + nodiv_c >= fire_at;
  }

  if (c == 0) return 0;
  counters_.monitored_cycles += c;
  counters_.nodiv_cycles += nodiv_c;
  counters_.ds_match_cycles += ds_c;
  counters_.is_match_cycles += is_c;
  counters_.zero_stag_cycles += zero_c;
  nodiv_run_ = nodiv_run;
  ds_run_ = ds_run;
  is_run_ = is_run;
  lacking_now_ = lack_now;
  ds_match_now_ = ds_now;
  is_match_now_ = is_now;
  u64 adds[kReplicas] = {};
#pragma GCC unroll 2
  for (unsigned r = 0; r < n; ++r) {
    adds[r] = cum[r] - inst_diff_.cumulative(r);
    seen_commit_[r] = seen_commit_[r] || adds[r] > 0;
    sigs[r].batch_commit(shifts[r], &f[r][c - 1].stage, c);
  }
  inst_diff_.batch_commit_n(adds, n);
  for (unsigned p = 0; p < n_pairs; ++p) {
    PairCounters& pc = pair_counters_[p];
    pc.ds_match_cycles += pair_ds[p];
    pc.is_match_cycles += pair_is[p];
    pc.nodiv_cycles += pair_nodiv[p];
    pc.zero_stag_cycles += pair_zero[p];
    pairs[p].batch_commit(hold_reuses[p], kCrc ? is_recomputes[p] : c, is_last[p]);
  }
  update_interrupt(first_cycle + c - 1);
  return c;
}

void SafeDm::finalize() {
  if (ds_run_ > 0) hist_ds_.add(ds_run_);
  if (is_run_ > 0) hist_is_.add(is_run_);
  if (nodiv_run_ > 0) hist_nodiv_.add(nodiv_run_);
  ds_run_ = is_run_ = nodiv_run_ = 0;
}

u64 SafeDm::irq_threshold() const {
  if (irq_pending_) return ~u64{0};
  switch (config_.report) {
    case ReportMode::kInterruptFirst:
      return 1;
    case ReportMode::kInterruptThreshold:
      return config_.interrupt_threshold;
    case ReportMode::kPollOnly:
      break;
  }
  return ~u64{0};
}

void SafeDm::update_interrupt(u64 cycle) {
  if (counters_.nodiv_cycles < irq_threshold()) return;
  irq_pending_ = true;
  ++counters_.interrupts;
  if (irq_handler_) irq_handler_(cycle);
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
  w.begin_section("SFDM", 3);
  // Group shape first: a snapshot only restores into a same-shape monitor
  // (replica count and lowered verdict policy).
  w.put_u32(config_.num_replicas);
  w.put_u32(needed_);
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
  // Matrix cells, one per pair.
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
  r.begin_section("SFDM", 3);
  if (r.get_u32() != config_.num_replicas)
    throw StateError("SafeDm group shape mismatch (num_replicas)");
  const u32 needed = r.get_u32();
  if (needed != needed_)
    throw StateError("SafeDm group shape mismatch (verdict threshold " + std::to_string(needed) +
                     ", monitor has " + std::to_string(needed_) + ")");
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
