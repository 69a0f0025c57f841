#include "safedm/faultsim/faultsim.hpp"

#include <algorithm>
#include <utility>

#include "safedm/common/check.hpp"
#include "safedm/common/log.hpp"
#include "safedm/common/state.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::faultsim {
namespace {

// The monitor is the only observer and a pure sink, so campaign rigs run
// with batched observer delivery: SafeDM's chunked on_group_cycles path
// does the heavy lifting, and snapshots/verdicts stay bit-identical to
// per-cycle delivery (flushed automatically at checkpoints and APB
// accesses).
constexpr unsigned kRigObserverBatch = 32;

soc::SocConfig rig_soc_config() {
  soc::SocConfig config;
  config.observer_batch = kRigObserverBatch;
  return config;
}

struct Rig {
  explicit Rig(monitor::SafeDmConfig dm_config) : soc(rig_soc_config()), dm([&] {
    dm_config.start_enabled = true;
    return dm_config;
  }()) {
    soc.add_observer(&dm);
  }

  void load(const assembler::Program& program) {
    soc.load_redundant(program);
    dm.set_prelude_ignore(0, 0);
    dm.set_prelude_ignore(1, 0);
  }

  u64 result(unsigned core_index) {
    const u64 base = core_index == 0 ? soc.config().data_base0 : soc.config().data_base1;
    return soc.memory().load(base + workloads::kResultOffset, 8);
  }

  // The rig's state is the SoC plus the monitor observing it; the monitor
  // stays attached across restore (observer binding is not state).
  void save_state(StateWriter& w) const {
    w.begin_section("FRIG", 1);
    soc.save_state(w);
    dm.save_state(w);
    w.end_section();
  }

  void restore_state(StateReader& r) {
    r.begin_section("FRIG", 1);
    soc.restore_state(r);
    dm.restore_state(r);
    r.end_section();
  }

  soc::MpSoc soc;
  monitor::SafeDm dm;
};

/// The one stepping loop both the reference run and every injection run
/// share: step until all cores halt or the budget expires, invoking
/// `per_cycle` after each completed cycle (post-observers).
template <typename PerCycle>
void run_to_halt(Rig& rig, u64 budget, PerCycle&& per_cycle) {
  while (!rig.soc.all_halted() && rig.soc.cycle() < budget) {
    rig.soc.step();
    per_cycle();
  }
}

Outcome classify(Rig& rig, u64 golden, bool finished, bool crashed) {
  if (crashed) return Outcome::kCrashed;
  if (!finished) return Outcome::kHung;
  // A core that halted for any reason other than a clean ecall is a
  // detectable failure as well.
  if (rig.soc.core(0).halt_reason() != isa::HaltReason::kEcall ||
      rig.soc.core(1).halt_reason() != isa::HaltReason::kEcall)
    return Outcome::kCrashed;
  const u64 r0 = rig.result(0);
  const u64 r1 = rig.result(1);
  if (r0 != r1) return Outcome::kDetected;
  if (r0 == golden) return Outcome::kMasked;
  return Outcome::kCcf;
}

void validate_injection(const Injection& injection) {
  SAFEDM_CHECK_MSG(injection.reg >= 1 && injection.reg <= 31,
                   "injection register must be x1..x31 (x0 is hardwired zero), got x"
                       << int(injection.reg));
  SAFEDM_CHECK_MSG(injection.bit < 64, "injection bit must be 0..63, got " << injection.bit);
}

/// Nearest checkpoint at or before the injection cycle, or null when none
/// qualifies (then the run replays from cycle zero).
const Checkpoint* find_fork_point(const ReferenceTrace& trace, u64 injection_cycle) {
  const Checkpoint* best = nullptr;
  for (const Checkpoint& cp : trace.checkpoints) {
    if (cp.cycle > injection_cycle) break;  // ascending by cycle
    best = &cp;
  }
  return best;
}

InjectionResult run_with_fault(const assembler::Program& program, const Injection& injection,
                               bool both_cores, unsigned target_core, u64 golden,
                               u64 max_cycles, const ReferenceTrace* fork) {
  validate_injection(injection);
  Rig rig{fork ? fork->dm_config : monitor::SafeDmConfig{}};
  rig.load(program);
  bool crashed = false;
  bool injected = false;
  u64 event_cycle = 0;  // cycle at which the failure became observable

  const auto inject = [&] {
    injected = true;
    if (both_cores) {
      rig.soc.core(0).flip_architectural_bit(injection.reg, injection.bit);
      rig.soc.core(1).flip_architectural_bit(injection.reg, injection.bit);
    } else {
      rig.soc.core(target_core).flip_architectural_bit(injection.reg, injection.bit);
    }
  };

  try {
    if (fork != nullptr) {
      if (const Checkpoint* cp = find_fork_point(*fork, injection.cycle)) {
        StateReader r(cp->state);
        rig.restore_state(r);
        // The replay engine flips right after the step that reaches the
        // injection cycle. A checkpoint taken at exactly that cycle captures
        // the pre-flip state, so the flip is due now; otherwise the loop
        // below reaches it the same way replay does.
        if (rig.soc.cycle() >= injection.cycle) inject();
      }
    }
    run_to_halt(rig, max_cycles, [&] {
      if (!injected && rig.soc.cycle() >= injection.cycle) inject();
    });
    // Clean finish: results are compared when both cores halted. A hang is
    // caught by the watchdog at budget expiry.
    event_cycle = rig.soc.all_halted() ? rig.soc.cycle() : max_cycles;
  } catch (const CheckError&) {
    // Wild pointer / unmapped access after the flip: a loud, detectable
    // failure (the platform would raise a bus error right here).
    crashed = true;
    event_cycle = rig.soc.cycle();
  }
  InjectionResult result;
  result.outcome = classify(rig, golden, rig.soc.all_halted(), crashed);
  const bool detectable = result.outcome == Outcome::kDetected ||
                          result.outcome == Outcome::kCrashed ||
                          result.outcome == Outcome::kHung;
  if (detectable && injected && event_cycle > injection.cycle)
    result.detection_latency = event_cycle - injection.cycle;
  return result;
}

ReferenceTrace record_reference_impl(const assembler::Program& program,
                                     const monitor::SafeDmConfig& dm_config,
                                     const CheckpointPolicy* policy) {
  Rig rig{dm_config};
  rig.load(program);
  ReferenceTrace trace;
  trace.dm_config = dm_config;

  u64 interval = 0;
  bool adaptive = false;
  if (policy != nullptr) {
    adaptive = policy->interval == 0;
    interval = adaptive ? 1024 : policy->interval;
  }

  // The per-cycle verdict stream arrives through the monitor's trail sink
  // (appended during batched deliveries) instead of polling after every
  // step; checkpoint saves flush pending cycles first, so each checkpoint
  // still captures the exact per-cycle state.
  rig.dm.set_verdict_trail(&trace.nodiv);

  run_to_halt(rig, kReferenceBudget, [&] {
    if (interval == 0 || rig.soc.all_halted()) return;
    if (rig.soc.cycle() % interval != 0) return;
    StateWriter w;
    rig.save_state(w);
    trace.checkpoints.push_back(Checkpoint{rig.soc.cycle(), w.take()});
    if (adaptive && trace.checkpoints.size() > policy->max_checkpoints) {
      // Thin the train (keep every other checkpoint) and double the
      // interval, bounding memory on long workloads.
      std::vector<Checkpoint> kept;
      for (std::size_t i = 0; i < trace.checkpoints.size(); i += 2)
        kept.push_back(std::move(trace.checkpoints[i]));
      trace.checkpoints = std::move(kept);
      interval *= 2;
    }
  });
  rig.soc.flush_observers();  // drain the tail of the trail
  rig.dm.set_verdict_trail(nullptr);
  SAFEDM_CHECK_MSG(rig.soc.all_halted(), "reference run did not finish");
  trace.golden_checksum = rig.result(0);
  SAFEDM_CHECK_MSG(trace.golden_checksum == rig.result(1),
                   "reference run: redundant results disagree");
  trace.cycles = rig.soc.cycle();
  trace.checkpoint_interval = interval;
  return trace;
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked:
      return "masked";
    case Outcome::kDetected:
      return "detected";
    case Outcome::kCcf:
      return "CCF";
    case Outcome::kCrashed:
      return "crashed";
    case Outcome::kHung:
      return "hung";
  }
  return "?";
}

ReferenceTrace record_reference(const assembler::Program& program,
                                const monitor::SafeDmConfig& dm_config) {
  return record_reference_impl(program, dm_config, nullptr);
}

ReferenceTrace record_reference(const assembler::Program& program,
                                const monitor::SafeDmConfig& dm_config,
                                const CheckpointPolicy& policy) {
  return record_reference_impl(program, dm_config, &policy);
}

InjectionResult inject_identical_fault_timed(const assembler::Program& program,
                                             const Injection& injection, u64 golden_checksum,
                                             u64 max_cycles, const ReferenceTrace* fork_from) {
  return run_with_fault(program, injection, /*both_cores=*/true, 0, golden_checksum,
                        max_cycles, fork_from);
}

InjectionResult inject_single_fault_timed(const assembler::Program& program,
                                          const Injection& injection, unsigned target_core,
                                          u64 golden_checksum, u64 max_cycles,
                                          const ReferenceTrace* fork_from) {
  SAFEDM_CHECK(target_core < soc::kNumCores);
  return run_with_fault(program, injection, /*both_cores=*/false, target_core,
                        golden_checksum, max_cycles, fork_from);
}

void sanitize_targets(std::vector<u8>& registers, std::vector<unsigned>& bits) {
  std::erase_if(registers, [](u8 reg) {
    const bool bad = reg < 1 || reg > 31;
    if (bad) SAFEDM_WARN("faultsim: dropping injection register x" << int(reg)
                                                                   << " (valid: x1..x31)");
    return bad;
  });
  std::erase_if(bits, [](unsigned bit) {
    const bool bad = bit >= 64;
    if (bad) SAFEDM_WARN("faultsim: dropping injection bit " << bit << " (valid: 0..63)");
    return bad;
  });
}

}  // namespace safedm::faultsim
