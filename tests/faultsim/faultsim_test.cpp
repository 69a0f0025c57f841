#include "safedm/faultsim/faultsim.hpp"

#include <gtest/gtest.h>

#include "safedm/faultsim/campaign.hpp"

#include "safedm/workloads/workloads.hpp"

namespace safedm::faultsim {
namespace {

TEST(FaultSim, ReferenceRunIsCleanAndDeterministic) {
  const assembler::Program program = workloads::build("bitcount", 1);
  const ReferenceTrace a = record_reference(program);
  const ReferenceTrace b = record_reference(program);
  EXPECT_EQ(a.golden_checksum, b.golden_checksum);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.nodiv.size(), a.cycles);
}

TEST(FaultSim, SingleFaultNeverCausesSilentAgreementOnWrongResult) {
  // The classic redundancy guarantee: a fault in ONE core can be masked or
  // detected, but the two results can never agree on a wrong value.
  const assembler::Program program = workloads::build("isqrt", 1);
  const ReferenceTrace trace = record_reference(program);
  const u64 budget = trace.cycles * 4 + 100'000;
  for (u64 cycle : {u64{200}, trace.cycles / 2, trace.cycles - 200}) {
    for (u8 reg : {u8{6}, u8{18}}) {
      const Outcome outcome = inject_single_fault_timed(program, Injection{cycle, reg, 13}, 0,
                                                        trace.golden_checksum, budget)
                                  .outcome;
      EXPECT_NE(outcome, Outcome::kCcf)
          << "single fault at cycle " << cycle << " reg " << int(reg);
    }
  }
}

TEST(FaultSim, IdenticalFaultInLockstepStateIsACcf) {
  // Force a no-diversity scenario: shared data segment (identical pointers)
  // so the cores genuinely run in identical state; flip the same live bit
  // in both. Either the fault is masked (bit not consumed) or the two
  // cores err identically (CCF) — they can never disagree.
  const assembler::Program program = workloads::build("bitcount", 1);
  const ReferenceTrace trace = record_reference(program);
  const u64 budget = trace.cycles * 4 + 100'000;
  bool saw_ccf = false;
  for (u64 cycle : {u64{500}, u64{2000}, trace.cycles / 2}) {
    for (unsigned bit : {1u, 9u, 33u}) {
      const Outcome outcome = inject_identical_fault_timed(program, Injection{cycle, 9, bit},
                                                           trace.golden_checksum, budget)
                                  .outcome;
      // reg s1 (x9) holds the element count in bitcount on both cores:
      // identical value in both => identical behaviour after the flip.
      EXPECT_NE(outcome, Outcome::kDetected) << "cycle " << cycle << " bit " << bit;
      saw_ccf = saw_ccf || outcome == Outcome::kCcf || outcome == Outcome::kHung ||
                outcome == Outcome::kCrashed;
    }
  }
  EXPECT_TRUE(saw_ccf) << "no injection perturbed the run at all";
}

TEST(FaultSim, NoDivInjectionsAreNeverDetected) {
  // The paper's core claim, as an invariant: at a cycle SafeDM flags as
  // lacking diversity, an identical double fault lands on identical state
  // and therefore can never produce *differing* results ("detected").
  // (Unmonitored-state false positives could in principle break this; the
  // deterministic campaign below shows they do not here.)
  EngineConfig config;
  config.workloads = {"cubic"};
  config.samples_per_class = 4;
  config.registers = {6, 9};
  config.bits = {3, 40};
  config.single_fault = false;
  const EngineReport report = run_engine(config);
  ASSERT_EQ(report.workloads.size(), 1u);
  const WorkloadReport& cubic = report.workloads[0];
  ASSERT_GT(cubic.nodiv_pool, 0u) << "cubic must have no-div cycles to sample";
  ASSERT_GT(cubic.identical[1].total(), 0u);
  EXPECT_EQ(cubic.identical[1].count(Outcome::kDetected), 0u);
}

TEST(FaultSim, CampaignAggregatesConsistently) {
  // Every injection lands in exactly one class aggregate, per workload and
  // in the report total.
  EngineConfig config;
  config.workloads = {"bitcount", "isqrt"};
  config.samples_per_class = 2;
  config.registers = {6};
  config.bits = {3};
  const EngineReport report = run_engine(config);
  u64 sum = 0;
  for (const WorkloadReport& wr : report.workloads) {
    EXPECT_EQ(wr.injections,
              wr.identical[0].total() + wr.identical[1].total() + wr.single.total())
        << wr.name;
    sum += wr.injections;
  }
  EXPECT_EQ(report.injections, sum);
  EXPECT_GT(report.injections, 0u);
}

TEST(FaultSim, CheckpointTrainIsAscendingAndBounded) {
  const assembler::Program program = workloads::build("bitcount", 1);
  const CheckpointPolicy policy;  // interval 0 = adaptive
  const ReferenceTrace trace = record_reference(program, monitor::SafeDmConfig{}, policy);
  ASSERT_FALSE(trace.checkpoints.empty());
  EXPECT_LE(trace.checkpoints.size(), policy.max_checkpoints);
  EXPECT_GT(trace.checkpoint_interval, 0u);
  for (std::size_t i = 1; i < trace.checkpoints.size(); ++i)
    EXPECT_LT(trace.checkpoints[i - 1].cycle, trace.checkpoints[i].cycle);
  // The checkpoint train must not perturb the trace itself.
  const ReferenceTrace plain = record_reference(program);
  EXPECT_EQ(trace.golden_checksum, plain.golden_checksum);
  EXPECT_EQ(trace.cycles, plain.cycles);
  EXPECT_EQ(trace.nodiv, plain.nodiv);
}

TEST(FaultSim, FixedCheckpointIntervalIsNeverThinned) {
  const assembler::Program program = workloads::build("bitcount", 1);
  CheckpointPolicy policy;
  policy.interval = 512;
  const ReferenceTrace trace = record_reference(program, monitor::SafeDmConfig{}, policy);
  EXPECT_EQ(trace.checkpoint_interval, 512u);
  // One checkpoint per full interval strictly inside the run (none is
  // taken on the halt cycle itself).
  EXPECT_EQ(trace.checkpoints.size(), (trace.cycles - 1) / 512);
  for (const Checkpoint& cp : trace.checkpoints) EXPECT_EQ(cp.cycle % 512, 0u);
}

TEST(FaultSim, ForkedInjectionMatchesReplayAtEveryDepth) {
  // The tentpole invariant at the injection level: restoring the nearest
  // checkpoint <= the injection cycle and running only the tail must give
  // the same outcome and latency as replaying from cycle zero. Cover the
  // degenerate positions: before the first checkpoint (fork falls back to
  // a full replay), exactly on a checkpoint, between two, and late.
  const assembler::Program program = workloads::build("bitcount", 1);
  CheckpointPolicy policy;
  policy.interval = 1000;
  const ReferenceTrace trace = record_reference(program, monitor::SafeDmConfig{}, policy);
  const u64 budget = trace.cycles * 4 + 100'000;
  for (const u64 cycle : {u64{400}, u64{1000}, u64{1537}, trace.cycles - 50}) {
    const Injection injection{cycle, 9, 7};
    const InjectionResult replay_ccf =
        inject_identical_fault_timed(program, injection, trace.golden_checksum, budget);
    const InjectionResult forked_ccf = inject_identical_fault_timed(
        program, injection, trace.golden_checksum, budget, &trace);
    EXPECT_EQ(replay_ccf.outcome, forked_ccf.outcome) << "cycle " << cycle;
    EXPECT_EQ(replay_ccf.detection_latency, forked_ccf.detection_latency) << "cycle " << cycle;

    const InjectionResult replay_single = inject_single_fault_timed(
        program, injection, /*target_core=*/1, trace.golden_checksum, budget);
    const InjectionResult forked_single = inject_single_fault_timed(
        program, injection, /*target_core=*/1, trace.golden_checksum, budget, &trace);
    EXPECT_EQ(replay_single.outcome, forked_single.outcome) << "cycle " << cycle;
    EXPECT_EQ(replay_single.detection_latency, forked_single.detection_latency)
        << "cycle " << cycle;
  }
}

TEST(FaultSim, OutcomeNamesCoverAllValues) {
  EXPECT_STREQ(outcome_name(Outcome::kMasked), "masked");
  EXPECT_STREQ(outcome_name(Outcome::kDetected), "detected");
  EXPECT_STREQ(outcome_name(Outcome::kCcf), "CCF");
  EXPECT_STREQ(outcome_name(Outcome::kCrashed), "crashed");
  EXPECT_STREQ(outcome_name(Outcome::kHung), "hung");
}

}  // namespace
}  // namespace safedm::faultsim
