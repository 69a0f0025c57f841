#include "safedm/scenario/redundant.hpp"

#include <algorithm>
#include <vector>

#include "safedm/safedm/monitor.hpp"

namespace safedm::scenario {

RunOutcome& RunOutcome::max_with(const RunOutcome& other) {
  cycles = std::max(cycles, other.cycles);
  monitored_cycles = std::max(monitored_cycles, other.monitored_cycles);
  zero_stag = std::max(zero_stag, other.zero_stag);
  nodiv = std::max(nodiv, other.nodiv);
  ds_match = std::max(ds_match, other.ds_match);
  is_match = std::max(is_match, other.is_match);
  committed0 = std::max(committed0, other.committed0);
  committed1 = std::max(committed1, other.committed1);
  distance_sum = std::max(distance_sum, other.distance_sum);
  distance_min = std::min(distance_min, other.distance_min);
  distance_max = std::max(distance_max, other.distance_max);
  completed = completed || other.completed;
  return *this;
}

ThreadPool& shared_pool() {
  static ThreadPool pool(bench_thread_count());
  return pool;
}

RunOutcome run_redundant(const assembler::Program& program, const RunSpec& spec) {
  soc::SocConfig soc_config = spec.soc;
  soc_config.arbiter_bias = spec.arbiter_bias;
  soc::MpSoc soc(soc_config);

  std::optional<safede::SafeDe> enforcement;
  if (spec.safede) {
    enforcement.emplace(*spec.safede, soc);
    soc.add_observer(&*enforcement);
  }

  monitor::SafeDmConfig dm_config = spec.dm;
  dm_config.start_enabled = true;
  monitor::SafeDm dm(dm_config);
  soc.add_observer(&dm);

  soc.load_redundant(program, spec.stagger_nops, spec.delayed_core);
  for (unsigned r = 0; r < soc.group_size(0); ++r)
    dm.set_prelude_ignore(r, soc.prelude_commits(soc.group_core(0, r)));

  const u64 cycles = soc.run(spec.max_cycles);
  dm.finalize();

  RunOutcome out;
  out.cycles = cycles;
  out.completed = soc.all_halted();
  const auto& c = dm.counters();
  out.monitored_cycles = c.monitored_cycles;
  out.zero_stag = c.zero_stag_cycles;
  out.nodiv = c.nodiv_cycles;
  out.ds_match = c.ds_match_cycles;
  out.is_match = c.is_match_cycles;
  out.distance_sum = c.distance_sum;
  out.distance_min = c.distance_min;
  out.distance_max = c.distance_max;
  out.committed0 = soc.core(0).stats().committed;
  out.committed1 = soc.core(1).stats().committed;
  return out;
}

RunOutcome max_over_runs(const assembler::Program& program, RunSpec spec) {
  std::vector<RunSpec> specs;
  if (spec.stagger_nops == 0) {
    for (unsigned bias = 0; bias < 2; ++bias) {
      RunSpec s = spec;
      s.arbiter_bias = bias;
      specs.push_back(s);
    }
  } else {
    for (unsigned delayed = 0; delayed < 2; ++delayed) {
      RunSpec s = spec;
      s.delayed_core = delayed;
      specs.push_back(s);
    }
  }
  std::vector<RunOutcome> outcomes(specs.size());
  shared_pool().parallel_for(specs.size(), [&](std::size_t i) {
    outcomes[i] = run_redundant(program, specs[i]);
  });
  RunOutcome best;
  for (const RunOutcome& out : outcomes) best.max_with(out);
  return best;
}

}  // namespace safedm::scenario
