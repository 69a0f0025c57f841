// VCD (Value Change Dump) export of the SafeDM observation signals, for
// inspection in any waveform viewer (GTKWave etc.) — the offline analogue
// of watching the VHDL module in Modelsim.
//
// Dumped per core: stage-slot valid/encoding for all o×p slots, the
// monitored register-port enables/values, hold and commit count; plus the
// monitor's diversity verdict lines when a SafeDm is attached.
#pragma once

#include <ostream>
#include <string>
#include <vector>

// lint: allow-layer(debug sink: renders monitor verdicts, no soc/safedm code depends back on it)
#include "safedm/safedm/monitor.hpp"
// lint: allow-layer(implements soc::CycleObserver and decodes CoreTapFrame)
#include "safedm/soc/soc.hpp"

namespace safedm::trace {

class VcdWriter final : public soc::CycleObserver {
 public:
  /// `monitor` may be null (no verdict signals). The header is emitted on
  /// the first observed cycle.
  VcdWriter(std::ostream& out, const monitor::SafeDm* monitor = nullptr);

  void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                       unsigned n_replicas, unsigned n_cycles) override {
    soc::deliver_pair_cycles(*this, first_cycle, frames, n_replicas, n_cycles);
  }
  /// The verdict signals are the monitor's state for the current cycle.
  bool needs_per_cycle() const override { return monitor_ != nullptr; }
  void on_cycle(u64 cycle, const core::CoreTapFrame& frame0,
                const core::CoreTapFrame& frame1);

  /// Number of value changes written (test/diagnostic aid).
  u64 changes_written() const { return changes_; }

 private:
  struct Signal {
    std::string id;    // VCD short identifier
    unsigned width;    // bits
    u64 last = ~u64{0};  // last written value (force first write)
  };

  std::string next_id();
  unsigned declare(const std::string& name, unsigned width);  // returns index
  void write_header();
  void emit(unsigned signal, u64 value);
  void dump_frame(unsigned base_index, const core::CoreTapFrame& frame);

  std::ostream& out_;
  const monitor::SafeDm* monitor_;
  std::vector<Signal> signals_;
  std::vector<std::string> declarations_;
  unsigned id_counter_ = 0;
  bool header_done_ = false;
  u64 changes_ = 0;

  // Signal index layout, filled by the constructor.
  unsigned core_base_[2] = {0, 0};
  unsigned sig_nodiv_ = 0;
  unsigned sig_ds_match_ = 0;
  unsigned sig_is_match_ = 0;
  unsigned sig_diff_ = 0;
};

}  // namespace safedm::trace
