// Common-cause-failure (CCF) fault-injection primitives.
//
// Validates the premise of the paper (Section III-B): when two redundant
// cores hold *identical* state, a single physical fault affecting both
// identically (e.g. a voltage droop flipping the same register bit in
// both) produces identical errors, which output comparison cannot detect —
// a CCF. When the cores are diverse, the same double fault lands on
// different state and the errors differ, so comparison catches them.
//
// This header holds one injection experiment's pieces:
//   1. a reference run records SafeDM's per-cycle verdict and the golden
//      result checksum (plus, optionally, restorable checkpoints);
//   2. an injection run flips the same register bit in both cores (or one
//      bit in one core) at a chosen cycle and classifies the outcome.
// Sampling injection cycles per verdict class and aggregating outcomes is
// the campaign engine's job (campaign.hpp, `run_engine`).
#pragma once

#include <optional>
#include <vector>

#include "safedm/assembler/assembler.hpp"
#include "safedm/common/bits.hpp"
#include "safedm/safedm/config.hpp"

namespace safedm::faultsim {

/// Watchdog budget for the reference run; injection runs derive their own
/// budget from the measured reference length, and the injector entry
/// points default to this when no budget is given.
inline constexpr u64 kReferenceBudget = 30'000'000;

enum class Outcome : u8 {
  kMasked,    // both results equal the golden value: fault had no effect
  kDetected,  // the two cores' results differ: comparison catches the error
  kCcf,       // results agree with each other but are wrong: undetectable
  kCrashed,   // a core trapped / accessed unmapped memory: detectable
  kHung,      // a core failed to finish within the cycle budget: watchdog
};

const char* outcome_name(Outcome outcome);

/// One serialized SoC+monitor rig state, taken after cycle `cycle`'s
/// observers ran. Forking from it reproduces the replay-from-zero run
/// bit-exactly from that cycle on (the restored-forward equivalence
/// invariant, DESIGN.md §5b).
struct Checkpoint {
  u64 cycle = 0;
  std::vector<u8> state;
};

/// How the reference run drops checkpoints.
struct CheckpointPolicy {
  /// Cycles between checkpoints; 0 = auto. Auto starts at a small
  /// interval and doubles it (thinning the recorded train) whenever the
  /// count would exceed `max_checkpoints`, bounding memory at roughly
  /// max_checkpoints snapshots regardless of workload length.
  u64 interval = 0;
  unsigned max_checkpoints = 64;
};

struct ReferenceTrace {
  std::vector<bool> nodiv;     // SafeDM verdict per cycle (index 0 = cycle 1)
  u64 golden_checksum = 0;
  u64 cycles = 0;

  /// Monitor config the trace (and its checkpoints) were recorded with; a
  /// forked injection run must rebuild the identical rig to restore into.
  monitor::SafeDmConfig dm_config{};
  std::vector<Checkpoint> checkpoints;  // ascending by cycle; may be empty
  u64 checkpoint_interval = 0;          // final effective drop interval
};

/// Reference run: record per-cycle verdicts and the golden result.
ReferenceTrace record_reference(const assembler::Program& program,
                                const monitor::SafeDmConfig& dm_config = {});

/// Same, additionally dropping restorable checkpoints per `policy` for
/// checkpoint-forked injection runs.
ReferenceTrace record_reference(const assembler::Program& program,
                                const monitor::SafeDmConfig& dm_config,
                                const CheckpointPolicy& policy);

struct Injection {
  u64 cycle = 0;   // inject right after this SoC cycle completes
  u8 reg = 5;      // architectural integer register (1..31; x0 is rejected —
                   // flipping the hardwired zero is a no-op that would be
                   // miscounted as a masked fault)
  unsigned bit = 0;
};

/// Outcome plus detection latency: cycles from the injection to the event
/// that makes the fault observable — the end-of-run output comparison for
/// `kDetected`, the trap for `kCrashed`, the watchdog budget expiring for
/// `kHung`. Zero for `kMasked` and `kCcf` (nothing ever detects those).
struct InjectionResult {
  Outcome outcome = Outcome::kMasked;
  u64 detection_latency = 0;
};

/// Run with the identical fault injected into BOTH cores (the CCF model).
///
/// When `fork_from` is non-null and carries checkpoints, the run restores
/// the nearest checkpoint at or before the injection cycle and simulates
/// only the tail — O(tail) instead of O(prefix + tail) — with outcomes
/// bit-identical to the replay-from-zero engine.
InjectionResult inject_identical_fault_timed(const assembler::Program& program,
                                             const Injection& injection, u64 golden_checksum,
                                             u64 max_cycles = kReferenceBudget,
                                             const ReferenceTrace* fork_from = nullptr);

/// Run with the fault injected into ONE core (the single-fault model the
/// redundancy is designed for; must always be masked or detected).
InjectionResult inject_single_fault_timed(const assembler::Program& program,
                                          const Injection& injection, unsigned target_core,
                                          u64 golden_checksum,
                                          u64 max_cycles = kReferenceBudget,
                                          const ReferenceTrace* fork_from = nullptr);

/// Drop injection targets the fault model cannot express: register x0 (the
/// hardwired zero — a flip there is a no-op that would be miscounted as
/// masked), registers >= 32, and bits >= 64. Logs a warning per dropped
/// entry. Used by the campaign engine (campaign.hpp).
void sanitize_targets(std::vector<u8>& registers, std::vector<unsigned>& bits);

}  // namespace safedm::faultsim
