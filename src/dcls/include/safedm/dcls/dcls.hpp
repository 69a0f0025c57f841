// Dual-Core LockStep (DCLS) comparator baseline (paper Fig. 1, Section II).
//
// Classic lockstep ties two identical cores together, replicates inputs,
// and compares outputs with some cycles of staggering: any divergence is
// an error. We model the comparator at the architectural commit stream —
// each retired instruction's {encoding, destination value} from the head
// core is queued and checked against the shadow core's stream — which
// makes the checker robust to micro-timing skew while still catching any
// architectural divergence immediately.
//
// The point of carrying this baseline: DCLS detects *differing* errors
// only. When a common-cause fault corrupts both cores identically (which
// requires their state to be identical — exactly what SafeDM's
// no-diversity verdict flags), both commit streams stay equal and the
// comparator is blind. The DCLS bench demonstrates that escape.
//
// Modelling note: real DCLS replicates inputs and never lets the shadow
// core drive the bus. We approximate input replication with a shared data
// segment, which is exact for tasks that do not mutate their input
// (read-only data + result stores); input-mutating tasks would race on
// the live shared array, an artifact of the approximation, not of DCLS.
#pragma once

#include <deque>

#include "safedm/common/bits.hpp"
#include "safedm/soc/soc.hpp"

namespace safedm::dcls {

struct DclsConfig {
  unsigned head_core = 0;     // the user-visible core; the other is the shadow
  std::size_t max_queue = 4096;  // skew bound before declaring desync
};

struct DclsStats {
  u64 compared_commits = 0;
  u64 mismatches = 0;         // architectural divergence events
  u64 max_skew = 0;           // deepest queue occupancy seen (commits)
  bool desynchronized = false;  // skew bound exceeded
};

class DclsChecker final : public soc::CycleObserver {
 public:
  explicit DclsChecker(const DclsConfig& config) : config_(config) {}

  void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override {
    soc::deliver_pair_cycles(*this, first_cycle, frames, n_replicas, n_cycles);
  }
  void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                const core::CoreTapFrame& frame1);

  bool error_detected() const { return stats_.mismatches > 0 || stats_.desynchronized; }
  const DclsStats& stats() const { return stats_; }
  const DclsConfig& config() const { return config_; }

  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  struct CommitRecord {
    u32 encoding = 0;
    bool rd_written = false;
    u64 rd_value = 0;

    bool operator==(const CommitRecord&) const = default;
  };

  void collect(unsigned which, const core::CoreTapFrame& frame,
               std::deque<CommitRecord>& out);

  DclsConfig config_;  // lint: no-snapshot(structural configuration; restore validates against it)
  // The retiring instructions' encodings are visible in the WB stage the
  // cycle *before* their commit is reported; keep the previous snapshot.
  std::array<std::array<core::StageSlotTap, core::kMaxIssueWidth>, 2> prev_wb_{};
  std::deque<CommitRecord> head_queue_;
  std::deque<CommitRecord> shadow_queue_;
  DclsStats stats_;
};

}  // namespace safedm::dcls
