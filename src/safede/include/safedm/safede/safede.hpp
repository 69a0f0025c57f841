// SafeDE-style diversity *enforcement* baseline (paper reference [4],
// Table II's "diversity enforced (intrusive)" column).
//
// Unlike SafeDM, which only observes, SafeDE guarantees staggering by
// construction: it tracks the committed-instruction distance between the
// head and trail cores and stalls the trail core whenever the distance
// falls below a programmed threshold. This is intrusive — stall cycles
// lengthen execution — which is exactly the trade-off the intrusiveness
// benchmark (E4) quantifies against SafeDM's zero overhead.
#pragma once

#include "safedm/common/bits.hpp"
#include "safedm/soc/soc.hpp"

namespace safedm::safede {

struct SafeDeConfig {
  unsigned head_core = 0;     // the core allowed to run ahead
  i64 min_staggering = 100;   // minimum committed-instruction distance
  bool enabled = true;
};

struct SafeDeStats {
  u64 stall_cycles = 0;       // cycles the trail core was frozen
  u64 interventions = 0;      // rising edges of the stall signal
  i64 min_observed_diff = 0;  // most dangerous distance seen while enabled
};

class SafeDe final : public soc::CycleObserver {
 public:
  SafeDe(const SafeDeConfig& config, soc::MpSoc& soc);

  void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override {
    soc::deliver_pair_cycles(*this, first_cycle, frames, n_replicas, n_cycles);
  }
  /// SafeDE stalls the trail core as the distance shrinks, so it must act
  /// on every cycle as it completes.
  bool needs_per_cycle() const override { return true; }
  void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                const core::CoreTapFrame& frame1);

  void enable(bool on);
  /// Head-core commits minus trail-core commits.
  i64 staggering() const { return diff_; }
  const SafeDeStats& stats() const { return stats_; }
  const SafeDeConfig& config() const { return config_; }

  /// The stall line itself lives in the core (external_stall), which the
  /// SoC snapshot covers; this covers the enforcement FSM that drives it.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  SafeDeConfig config_;
  soc::MpSoc& soc_;
  i64 diff_ = 0;
  bool stalling_ = false;
  bool first_sample_ = true;
  SafeDeStats stats_;
};

}  // namespace safedm::safede
