// SafeDM: the hardware Diversity Monitor (paper Section III/IV).
//
// Consumes the replicas' per-cycle tap frames, maintains a
// SignatureGenerator per replica, and reports lack of diversity — a cycle
// in which *both* the Data Signatures and the Instruction Signatures of a
// replica pair match. SafeDM can only raise false positives (unmonitored
// diversity sources), never false negatives (paper III-A): if any monitored
// state differs, the cycle is diverse.
//
// One SafeDm instance watches an N-replica redundancy group (2..8): it
// keeps a full pairwise diversity matrix — one DiversityComparator and one
// PairCounters cell per unordered replica pair — and lowers a group
// VerdictPolicy (any_pair / all_pairs / quorum k) to a threshold over the
// per-pair verdicts for the group-level counters, histograms, and
// interrupt. The paper's two-core monitor is the one-pair case of that
// matrix: every replica count runs the same per-cycle path and the same
// batched chunk kernel, each specialized at compile time on the replica
// count (2 or runtime), the port count and the compare mode.
//
// The block also contains the two evaluation-support modules of the
// paper's integration (Fig. 4): the Instruction diff (staggering counter)
// and the History module (episode-length histograms), plus the APB slave
// register file through which an RTOS programs and polls the monitor.
#pragma once

#include <functional>
#include <utility>

#include "safedm/bus/apb.hpp"
#include "safedm/common/histogram.hpp"
#include "safedm/safedm/comparator.hpp"
#include "safedm/safedm/signature.hpp"
#include "safedm/soc/soc.hpp"

namespace safedm::monitor {

/// Staggering counter (paper IV-B3), generalized to N replicas: tracks one
/// cumulative post-prelude commit count per replica so any pair's signed
/// program-position distance is cum[i] - cum[j]. Optionally ignores each
/// replica's first `ignore` commits so a nop prelude does not distort the
/// distance. The classic two-core diff is pair (0, 1).
class InstructionDiff {
 public:
  /// Set the replica count (2..kMaxReplicas); resets all state.
  void configure(unsigned n_replicas);
  void set_ignore(unsigned replica, u64 count);
  /// Per-cycle step: one commit count per replica. Returns armed() after
  /// the step.
  bool on_commits_n(const unsigned* commits, unsigned n_replicas) {
    u64 pending = 0;
    for (unsigned r = 0; r < n_replicas; ++r) pending |= ignore_[r];
    if (pending == 0) {  // steady state: no prelude left
      for (unsigned r = 0; r < n_replicas; ++r) cum_[r] += commits[r];
      return true;
    }
    on_commits_prelude_n(commits, n_replicas);
    return armed();
  }
  /// The two-replica form of on_commits_n.
  void on_commits(unsigned commits0, unsigned commits1) {
    if ((ignore_[0] | ignore_[1]) == 0) {  // steady state: no prelude left
      cum_[0] += commits0;
      cum_[1] += commits1;
      return;
    }
    const unsigned commits[2] = {commits0, commits1};
    on_commits_prelude_n(commits, 2);
  }
  void reset();

  /// Batched path: fold a chunk's per-replica commit sums in. Only legal
  /// once armed (no prelude left), which the batch eligibility check
  /// guarantees.
  void batch_commit_n(const u64* adds, unsigned n_replicas);

  i64 diff() const { return pair_diff(0, 1); }
  /// Signed committed-instruction distance between replicas i and j.
  i64 pair_diff(unsigned i, unsigned j) const {
    return static_cast<i64>(cum_[i] - cum_[j]);
  }
  /// Cumulative post-prelude commits of one replica (batched-path rebase).
  u64 cumulative(unsigned replica) const { return cum_[replica]; }
  /// True once every replica has consumed its ignored prelude commits.
  bool armed() const {
    u64 pending = 0;
    for (unsigned r = 0; r < n_; ++r) pending |= ignore_[r];
    return pending == 0;
  }

  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  void on_commits_prelude_n(const unsigned* commits, unsigned n_replicas);

  unsigned n_ = 2;
  std::array<u64, kMaxReplicas> cum_{};
  std::array<u64, kMaxReplicas> ignore_{};
};

struct SafeDmCounters {
  u64 monitored_cycles = 0;   // cycles with both cores running, monitor enabled
  u64 nodiv_cycles = 0;       // DS and IS both matched
  u64 ds_match_cycles = 0;
  u64 is_match_cycles = 0;
  u64 zero_stag_cycles = 0;   // instruction diff == 0 (once armed)
  u64 interrupts = 0;         // rising edges of the interrupt line

  // Diversity-magnitude extension (config.track_distance):
  u64 distance_sum = 0;       // sum over cycles of DS+IS Hamming distance
  u64 distance_min = ~u64{0}; // smallest per-cycle distance observed
  u64 distance_max = 0;

  double mean_distance() const {
    return monitored_cycles
               ? static_cast<double>(distance_sum) / static_cast<double>(monitored_cycles)
               : 0.0;
  }
};

/// One cell of the pairwise diversity matrix: the per-pair slice of the
/// group counters. For a 2-replica monitor the single pair *is* the group,
/// so its cell counts the same cycles as the SafeDmCounters fields.
struct PairCounters {
  u64 nodiv_cycles = 0;
  u64 ds_match_cycles = 0;
  u64 is_match_cycles = 0;
  u64 zero_stag_cycles = 0;
  u64 distance_sum = 0;  // DS+IS Hamming distance (config.track_distance)
  u64 distance_min = ~u64{0};
  u64 distance_max = 0;
};

/// APB register map (byte offsets; all registers 32-bit).
namespace reg {
inline constexpr u32 kCtrl = 0x00;        // [0] enable, [2:1] report mode, [3] w1: reset, [4] w1: clear irq
inline constexpr u32 kStatus = 0x04;      // [0] lacking diversity now, [1] irq pending
inline constexpr u32 kNodivLo = 0x08;
inline constexpr u32 kNodivHi = 0x0C;
inline constexpr u32 kThreshold = 0x10;
inline constexpr u32 kMonitoredLo = 0x14;
inline constexpr u32 kMonitoredHi = 0x18;
inline constexpr u32 kInstDiff = 0x1C;    // signed
inline constexpr u32 kZeroStagLo = 0x20;
inline constexpr u32 kZeroStagHi = 0x24;
inline constexpr u32 kDsMatchLo = 0x28;
inline constexpr u32 kDsMatchHi = 0x2C;
inline constexpr u32 kIsMatchLo = 0x30;
inline constexpr u32 kIsMatchHi = 0x34;
inline constexpr u32 kIgnore0 = 0x38;     // prelude commits to ignore, core 0
inline constexpr u32 kIgnore1 = 0x3C;
inline constexpr u32 kHistSelect = 0x40;  // [7:0] bin, [9:8] histogram (0=nodiv,1=ds,2=is)
inline constexpr u32 kHistData = 0x44;    // selected bin count (saturating u32)
inline constexpr u32 kGeometry = 0x48;    // [7:0] n, [15:8] m, [23:16] o, [31:24] p
inline constexpr u32 kGroup = 0x4C;       // [7:0] replicas, [15:8] pairs, [17:16] policy, [31:18] quorum k
inline constexpr u32 kPairSelect = 0x50;  // [7:0] pair index, [9:8] counter (0=nodiv,1=ds,2=is,3=zerostag)
inline constexpr u32 kPairData = 0x54;    // selected pair counter (saturating u32)
inline constexpr u32 kSize = 0x80;        // register file span
}  // namespace reg

static_assert(kMaxReplicas == soc::kMaxGroupReplicas,
              "monitor and SoC must agree on the maximum group size");

class SafeDm final : public soc::CycleObserver, public bus::ApbDevice {
 public:
  explicit SafeDm(const SafeDmConfig& config);
  // The comparators alias the signature generators; copying would leave
  // them dangling.
  SafeDm(const SafeDm&) = delete;
  SafeDm& operator=(const SafeDm&) = delete;

  // ---- programming interface (RTOS-facing; also reachable via APB) -------
  void enable(bool on);
  bool enabled() const { return enabled_; }
  void set_report_mode(ReportMode mode) { config_.report = mode; }
  void set_interrupt_threshold(u32 threshold) { config_.interrupt_threshold = threshold; }
  /// Program the prelude lengths so staggering nops don't skew the diff.
  void set_prelude_ignore(unsigned replica, u64 commits);
  void clear_interrupt();
  void reset();

  /// Invoked on the rising edge of the interrupt line (the RTOS hook).
  void set_interrupt_handler(std::function<void(u64 cycle)> handler);

  // ---- observation ---------------------------------------------------------
  /// The observer hook (MpSoc delivery, or direct driving from benches):
  /// processes `n_cycles` consecutive cycles with per-cycle semantics —
  /// the verdict stream, counters, histograms, IRQ timing, and snapshot
  /// bytes are bit-identical to n_cycles on_group_cycle calls, independent
  /// of batch boundaries. Eligible spans (incremental per-stage mode, raw
  /// or CRC compare, depth <= 64, enabled + armed, no halted frames) run a
  /// chunked fast loop and commit generator/comparator/counter state once
  /// per chunk; everything else falls back to the per-cycle path. Raw
  /// compare compares stage words via one SIMD op and updates the
  /// bit-sliced mismatch masks in place; CRC compare rolls each port's
  /// window CRC and rehashes a replica's IS CRC only when its stage words
  /// change. SafeDM is a pure sink, so it takes any batch length.
  void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override;

  /// One cycle, without the span loop. Updates every cell of the pairwise
  /// diversity matrix, then lowers the configured VerdictPolicy to a
  /// threshold over the per-pair verdicts for the group
  /// counters/histograms/IRQ.
  void on_group_cycle(u64 cycle, const core::CoreTapFrame* const* frames,
                      unsigned n_replicas);

  /// Pair forms of the two above for 2-replica monitors, taking each
  /// replica's frames separately.
  void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                const core::CoreTapFrame& frame1);
  void on_cycles(u64 first_cycle, const core::CoreTapFrame* frame0,
                 const core::CoreTapFrame* frame1, unsigned n);

  /// Optional per-cycle verdict sink: when set, every processed cycle
  /// appends lacking_diversity_now() (false for unmonitored cycles) —
  /// the batched replacement for polling after each step.
  void set_verdict_trail(std::vector<bool>* trail) { trail_ = trail; }

  /// Flush any open no-diversity episode into the histograms (call when an
  /// experiment window ends).
  void finalize();

  // ---- results ---------------------------------------------------------------
  const SafeDmCounters& counters() const { return counters_; }
  bool lacking_diversity_now() const { return lacking_now_; }
  bool ds_matched_now() const { return ds_match_now_; }
  bool is_matched_now() const { return is_match_now_; }
  bool interrupt_pending() const { return irq_pending_; }
  i64 instruction_diff() const { return inst_diff_.diff(); }
  const Histogram& nodiv_history() const { return hist_nodiv_; }
  const Histogram& ds_history() const { return hist_ds_; }
  const Histogram& is_history() const { return hist_is_; }
  /// Per-cycle signature Hamming-distance distribution (track_distance).
  const Histogram& distance_history() const { return hist_distance_; }
  const SafeDmConfig& config() const { return config_; }
  const SignatureGenerator& signatures(unsigned replica) const;

  // ---- pairwise diversity matrix ----------------------------------------
  unsigned num_replicas() const { return config_.num_replicas; }
  unsigned num_pairs() const { return static_cast<unsigned>(pairs_.size()); }
  /// Replica indices (i, j), i < j, of matrix cell `pair`; cells are in
  /// lexicographic order: (0,1), (0,2), ..., (n-2,n-1).
  std::pair<unsigned, unsigned> pair_replicas(unsigned pair) const;
  /// Matrix cell counters (every replica count keeps one cell per pair).
  const PairCounters& pair_counters(unsigned pair) const;
  /// Per-pair fast-path/fallback accounting.
  const DiversityComparator::Stats& pair_stats(unsigned pair) const;
  /// The lowered verdict-policy threshold: matched pairs needed for a
  /// group-level match (any_pair -> 1, all_pairs -> C(n,2), quorum -> k).
  unsigned verdict_threshold() const { return needed_; }

  /// Total monitor storage bits (all replicas' signature FIFOs); feeds the
  /// hardware cost model.
  u64 storage_bits() const;

  // ---- APB slave ---------------------------------------------------------------
  u32 apb_read(u32 offset) override;
  void apb_write(u32 offset, u32 value) override;

  // ---- snapshot/restore --------------------------------------------------------
  /// Serializes everything the delivery hooks and apb_write can mutate —
  /// including the runtime-writable config bits (report mode, interrupt
  /// threshold) — plus every signature generator, comparator, matrix cell,
  /// counter, episode run, and histogram. The group shape (replica count
  /// and lowered verdict threshold) leads the section: a snapshot restores
  /// only into a monitor of the same shape. The interrupt handler is a
  /// binding, not state: the owner re-attaches it after restore if needed.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  using CycleFn = void (SafeDm::*)(u64, const core::CoreTapFrame* const*);
  using ChunkFn = unsigned (SafeDm::*)(u64, const core::CoreTapFrame* const*, unsigned);

  /// The nodiv count at which the interrupt line rises: never while it is
  /// pending or in poll-only mode.
  u64 irq_threshold() const;
  /// Raise the interrupt (and call the handler) if the count has reached
  /// irq_threshold().
  void update_interrupt(u64 cycle);
  bool batch_fast_eligible() const;
  /// The batched span loop behind on_cycles/on_group_cycles: eligible
  /// spans go through the chunk kernel, every other cycle through the
  /// per-cycle path.
  void deliver(u64 first_cycle, const core::CoreTapFrame* const* frames, unsigned n_cycles);
  /// The per-cycle matrix update. N bakes the replica count in at compile
  /// time (0: the runtime count) so the pair's replica and pair loops have
  /// constant trip counts.
  template <unsigned N>
  void group_cycle(u64 cycle, const core::CoreTapFrame* const* frames);
  /// The batched chunk kernel: up to `m` (<= 64) eligible cycles, frames[r]
  /// pointing at replica r's first. Stops before a halted frame and after a
  /// cycle that raises the interrupt; returns the cycles consumed (0 when
  /// the first frame is halted). N as for group_cycle; P bakes
  /// the port count in (0: the runtime count) so the ring writes and mask
  /// updates unroll; kCrc selects the compare mode. Defined (and only
  /// instantiated) in monitor.cpp.
  template <unsigned N, unsigned P, bool kCrc>
  unsigned process_chunk(u64 first_cycle, const core::CoreTapFrame* const* frames, unsigned m);
  /// The chunk kernel instantiation for `config` at replica count N.
  template <unsigned N>
  static ChunkFn chunk_kernel(const SafeDmConfig& config);

  SafeDmConfig config_;
  /// One generator per replica, one comparator per unordered replica pair
  /// (lexicographic order). Both vectors are sized in the constructor and
  /// never resized: the comparators hold pointers into sigs_.
  std::vector<SignatureGenerator> sigs_;
  std::vector<DiversityComparator> pairs_;
  std::vector<std::pair<u8, u8>> pair_replicas_;  // lint: no-snapshot(derived from num_replicas)
  /// The lowered verdict policy, derived from config; serialized as part of
  /// the group shape a snapshot must match.
  unsigned needed_ = 1;
  /// Matrix cell counters, one per pair (lexicographic order, as pairs_).
  std::vector<PairCounters> pair_counters_;
  CycleFn cycle_fn_ = nullptr;  // lint: no-snapshot(kernel choice, fixed by config at construction)
  ChunkFn chunk_fn_ = nullptr;  // lint: no-snapshot(kernel choice, fixed by config at construction)
  InstructionDiff inst_diff_;
  bool enabled_ = false;
  std::array<bool, kMaxReplicas> seen_commit_{};
  bool lacking_now_ = false;
  bool ds_match_now_ = false;
  bool is_match_now_ = false;
  bool irq_pending_ = false;
  SafeDmCounters counters_;

  u64 nodiv_run_ = 0;
  u64 ds_run_ = 0;
  u64 is_run_ = 0;
  Histogram hist_nodiv_;
  Histogram hist_ds_;
  Histogram hist_is_;
  Histogram hist_distance_;

  u32 hist_select_ = 0;
  u32 pair_select_ = 0;
  std::function<void(u64)> irq_handler_;  // lint: no-snapshot(callback wiring, re-registered by owner)
  std::vector<bool>* trail_ = nullptr;    // lint: no-snapshot(observation sink wiring, re-attached by owner)
};

}  // namespace safedm::monitor
