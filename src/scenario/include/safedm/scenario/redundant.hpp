// Shared redundant-execution harness: builds the MPSoC + SafeDM rig, runs
// a workload redundantly, and returns the monitor's counters. Mirrors the
// paper's methodology (Section V-B): synchronized start, optional nop
// prelude on one core, monitor armed once both cores execute the program,
// max over repeated runs.
//
// The scenario runner and the remaining bench drivers execute this *same*
// code path, so a cell of `scenarios/table1.json` is equivalent to a
// hand-built RunSpec by construction; the equivalence test
// (tests/scenario/runner_equiv_test.cpp) pins the lowering.
//
// Every MpSoc run is fully independent, so the repeated-run and sweep
// layers fan out over a process-wide ThreadPool. SAFEDM_BENCH_THREADS
// overrides the worker count (default: hardware concurrency; 1 restores
// the historical serial behavior for debugging).
#pragma once

#include <optional>

#include "safedm/assembler/assembler.hpp"
#include "safedm/common/thread_pool.hpp"
#include "safedm/safede/safede.hpp"
#include "safedm/safedm/config.hpp"
#include "safedm/soc/soc.hpp"

namespace safedm::scenario {

struct RunOutcome {
  u64 cycles = 0;            // SoC cycles until both cores halted
  u64 monitored_cycles = 0;
  u64 zero_stag = 0;         // cycles with instruction diff == 0
  u64 nodiv = 0;             // cycles with neither data nor instr diversity
  u64 ds_match = 0;
  u64 is_match = 0;
  u64 committed0 = 0;
  u64 committed1 = 0;
  // Diversity-magnitude statistics (dm.track_distance; zero/~0 otherwise).
  // For an N-replica group these describe the per-cycle *minimum pairwise*
  // distance — the weakest link of the diversity matrix.
  u64 distance_sum = 0;
  u64 distance_min = ~u64{0};
  u64 distance_max = 0;
  bool completed = false;

  /// Field-wise max aggregation (the paper reports the highest values
  /// found over repeated runs). distance_min, being a min-statistic, takes
  /// the min — the aggregate keeps the worst case of every field.
  RunOutcome& max_with(const RunOutcome& other);
};

struct RunSpec {
  unsigned scale = 1;
  unsigned stagger_nops = 0;
  unsigned delayed_core = 1;
  unsigned arbiter_bias = 0;
  u64 max_cycles = 20'000'000;
  monitor::SafeDmConfig dm{};
  /// SafeDM is a pure sink, so runs batch its delivery by default.
  soc::SocConfig soc{.observer_batch = 32};
  /// When set, a SafeDE enforcement stage rides along (scenario DSL's
  /// staggering policy). SafeDE intervenes — it stalls the trail core —
  /// so the SoC delivers every cycle as it completes while it is attached.
  std::optional<safede::SafeDeConfig> safede{};
};

/// Process-wide simulation pool (sized by SAFEDM_BENCH_THREADS / hardware).
ThreadPool& shared_pool();

RunOutcome run_redundant(const assembler::Program& program, const RunSpec& spec);

/// The paper reports the max over repeated runs ("we selected the highest
/// values found"). Runs vary who starts first and the arbiter phase; the
/// variants are independent simulations and execute on the shared pool.
RunOutcome max_over_runs(const assembler::Program& program, RunSpec spec);

}  // namespace safedm::scenario
