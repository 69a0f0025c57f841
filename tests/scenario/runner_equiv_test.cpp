// The tentpole equivalence claim: replaying a checked-in Table-1 scenario
// through run_scenario() produces the same per-workload counters as
// driving the shared redundant-run harness with the equivalent bench/table1
// configuration. The harness itself is shared by construction (bench_util
// re-exports src/scenario's run_redundant/max_over_runs); this test pins
// the lowering — scenario defaults must keep matching the bench defaults.
#include <gtest/gtest.h>

#include <string>

#include "safedm/scenario/runner.hpp"
#include "safedm/workloads/workloads.hpp"

#ifndef SAFEDM_SCENARIO_DIR
#error "SAFEDM_SCENARIO_DIR must point at the checked-in scenarios/ corpus"
#endif

namespace safedm::scenario {
namespace {

TEST(RunnerEquiv, Table1ScenarioMatchesBenchHarness) {
  const std::string path = std::string(SAFEDM_SCENARIO_DIR) + "/table1_bitcount_stag0.json";
  const Scenario scenario = load_scenario_file(path);
  ASSERT_TRUE(scenario.run.has_value());
  EXPECT_EQ(scenario.run->workload, "bitcount");

  // The bench/table1 side of the cell: default RunSpec, stagger from the
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
