// Human-readable cycle-by-cycle pipeline trace.
//
// Replaces the paper's Modelsim inspection workflow (Section V-A: "analyze
// the timing behavior ... to see in a cycle-by-cycle basis what occurs in
// the pipeline of the cores and in SafeDM"): attach the tracer as an
// observer and it renders both cores' stage occupancy, the staggering
// counter and the per-cycle diversity verdict.
#pragma once

#include <ostream>

// lint: allow-layer(debug sink: renders monitor verdicts, no soc/safedm code depends back on it)
#include "safedm/safedm/monitor.hpp"
// lint: allow-layer(implements soc::CycleObserver and decodes CoreTapFrame)
#include "safedm/soc/soc.hpp"

namespace safedm::trace {

struct TracerConfig {
  u64 start_cycle = 0;                 // first traced cycle
  u64 end_cycle = ~u64{0};             // last traced cycle (inclusive)
  bool disassemble = true;             // render mnemonics instead of hex
  bool only_when_lacking_diversity = false;  // trace only flagged cycles
};

class PipelineTracer final : public soc::CycleObserver {
 public:
  /// `monitor` may be null (no verdict column).
  PipelineTracer(std::ostream& out, const TracerConfig& config,
                 const monitor::SafeDm* monitor = nullptr);

  void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override {
    soc::deliver_pair_cycles(*this, first_cycle, frames, n_replicas, n_cycles);
  }
  /// The verdict column is the monitor's state for the current cycle.
  bool needs_per_cycle() const override { return monitor_ != nullptr; }
  void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                const core::CoreTapFrame& frame1);

  u64 traced_cycles() const { return traced_; }

 private:
  void render_core(const core::CoreTapFrame& frame);

  std::ostream& out_;
  TracerConfig config_;
  const monitor::SafeDm* monitor_;
  u64 traced_ = 0;
  bool header_written_ = false;
};

}  // namespace safedm::trace
