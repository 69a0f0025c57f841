// The harness equivalence claim: replaying a Table-1 cell of
// scenarios/table1.json through run_scenario() produces the same counters
// as driving the shared redundant-run harness with the equivalent
// hand-built configuration (default RunSpec, stagger from the column, max
// over platform variants). The harness is shared by construction; this
// test pins the lowering — scenario defaults must keep matching the
// harness defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "safedm/scenario/runner.hpp"
#include "safedm/workloads/workloads.hpp"

#ifndef SAFEDM_SCENARIO_DIR
#error "SAFEDM_SCENARIO_DIR must point at the checked-in scenarios/ corpus"
#endif

namespace safedm::scenario {
namespace {

TEST(RunnerEquiv, Table1ScenarioMatchesBenchHarness) {
  const std::vector<Scenario> cells =
      load_scenario_file(std::string(SAFEDM_SCENARIO_DIR) + "/table1.json");
  const auto cell = std::find_if(cells.begin(), cells.end(), [](const Scenario& s) {
    return s.run && s.run->workload == "bitcount" && s.run->stagger_nops == 0;
  });
  ASSERT_NE(cell, cells.end()) << "table1.json lost its bitcount/0-nop cell";
  const Scenario& scenario = *cell;

  // The harness side of the cell: default RunSpec, stagger from the
  // column, max over platform variants.
  const assembler::Program program =
      workloads::build(scenario.run->workload, scenario.run->scale);
  RunSpec bench_spec;
  bench_spec.scale = scenario.run->scale;
  bench_spec.stagger_nops = scenario.run->stagger_nops;
  const RunOutcome bench_outcome = max_over_runs(program, bench_spec);

  // The scenario side: the runner must derive the identical spec...
  const RunSpec lowered = build_run_spec(scenario);
  EXPECT_EQ(lowered.scale, bench_spec.scale);
  EXPECT_EQ(lowered.stagger_nops, bench_spec.stagger_nops);
  EXPECT_EQ(lowered.delayed_core, bench_spec.delayed_core);
  EXPECT_EQ(lowered.max_cycles, bench_spec.max_cycles);
  EXPECT_EQ(lowered.dm.num_ports, bench_spec.dm.num_ports);
  EXPECT_EQ(lowered.dm.data_fifo_depth, bench_spec.dm.data_fifo_depth);
  EXPECT_EQ(lowered.dm.is_mode, bench_spec.dm.is_mode);
  EXPECT_EQ(lowered.dm.compare, bench_spec.dm.compare);
  EXPECT_FALSE(lowered.safede.has_value());

  // ...and executing the scenario end-to-end must reproduce the cell's
  // counters exactly.
  const ScenarioResult result = run_scenario(scenario);
  ASSERT_TRUE(result.ran_redundant);
  EXPECT_TRUE(result.outcome.completed);
  EXPECT_EQ(result.outcome.zero_stag, bench_outcome.zero_stag);
  EXPECT_EQ(result.outcome.nodiv, bench_outcome.nodiv);
  EXPECT_EQ(result.outcome.ds_match, bench_outcome.ds_match);
  EXPECT_EQ(result.outcome.is_match, bench_outcome.is_match);
  EXPECT_EQ(result.outcome.monitored_cycles, bench_outcome.monitored_cycles);
  EXPECT_EQ(result.outcome.cycles, bench_outcome.cycles);
  EXPECT_TRUE(result.passed()) << "checked-in expectations drifted from the harness";
}

TEST(RunnerEquiv, SweepFalseMatchesSingleRun) {
  const Scenario scenario = parse_scenario(parse_json(R"({
    "schema": "safedm.scenario/v1",
    "name": "single",
    "run": { "workload": "bitcount", "stagger_nops": 100, "sweep": false }
  })"), "inline");
  const assembler::Program program = workloads::build("bitcount", 1);
  const RunOutcome direct = run_redundant(program, build_run_spec(scenario));
  const ScenarioResult result = run_scenario(scenario);
  EXPECT_EQ(result.outcome.zero_stag, direct.zero_stag);
  EXPECT_EQ(result.outcome.nodiv, direct.nodiv);
  EXPECT_EQ(result.outcome.cycles, direct.cycles);
}

// The runner batches SafeDM's delivery unless the scenario sets a batch;
// an explicit 1 (per-cycle delivery) must survive the lowering as written.
TEST(RunnerEquiv, ObserverBatchDefaultsTo32AndHonorsExplicitOne) {
  const auto lowered_batch = [](const std::string& soc_section) {
    const Scenario scenario = parse_scenario(parse_json(R"({
      "schema": "safedm.scenario/v1",
      "name": "batch",)" + soc_section + R"(
      "run": { "workload": "bitcount", "sweep": false }
    })"), "inline");
    return build_run_spec(scenario).soc.observer_batch;
  };
  EXPECT_EQ(lowered_batch(""), 32u);
  EXPECT_EQ(lowered_batch(R"( "soc": { "observer_batch": 1 },)"), 1u);
  EXPECT_EQ(lowered_batch(R"( "soc": { "observer_batch": 8 },)"), 8u);
}

// The mechanism behind the pm anomaly (paper Section V-C), which the DSL
// has no knob for: store-buffer coalescing changes pm's run length, in
// opposite directions at a synchronized and a 1000-nop start.
TEST(RunnerEquiv, StoreBufferCoalescingMovesPmCycles) {
  const assembler::Program pm = workloads::build("pm", 1);
  const auto cycles = [&](unsigned nops, bool coalesce) {
    RunSpec spec;
    spec.stagger_nops = nops;
    spec.soc.core.store_buffer.coalesce = coalesce;
    const RunOutcome out = run_redundant(pm, spec);
    EXPECT_TRUE(out.completed);
    return out.cycles;
  };
  EXPECT_EQ(cycles(0, true), 24459u);
  EXPECT_EQ(cycles(0, false), 24706u);
  EXPECT_EQ(cycles(1000, true), 29894u);
  EXPECT_EQ(cycles(1000, false), 29826u);
}

TEST(RunnerEquiv, FailedBoundReportsDetail) {
  const Scenario scenario = parse_scenario(parse_json(R"({
    "schema": "safedm.scenario/v1",
    "name": "fails",
    "run": { "workload": "bitcount", "stagger_nops": 10000, "sweep": false },
    "expect": { "counters": { "zero_stag": { "min": 1 } } }
  })"), "inline");
  const ScenarioResult result = run_scenario(scenario);
  EXPECT_FALSE(result.passed());
  bool found = false;
  for (const CheckResult& check : result.checks) {
    if (check.name != "expect.counters.zero_stag") continue;
    found = true;
    EXPECT_FALSE(check.pass);
    EXPECT_NE(check.detail.find("observed 0"), std::string::npos) << check.detail;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace safedm::scenario
