// Campaign-engine tests: thread-count determinism, injection validation,
// latency accounting, Wilson intervals, and the single-fault-never-CCF
// invariant as a property over random programs.
#include "safedm/faultsim/campaign.hpp"

#include <gtest/gtest.h>

#include "safedm/assembler/assembler.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/isa/inst.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::faultsim {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.workloads = {"bitcount"};
  config.samples_per_class = 2;
  config.registers = {6, 9};
  config.bits = {3, 40};
  config.seed = 7;
  return config;
}

TEST(Campaign, ReportIsBitIdenticalAcrossThreadCounts) {
  EngineConfig config = small_config();
  config.threads = 1;
  const std::string serial = report_to_json(run_engine(config));
  config.threads = 4;
  const std::string parallel = report_to_json(run_engine(config));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"schema\": \"safedm.bench.faultsim/v1\""), std::string::npos);
}

TEST(Campaign, ReportIsBitIdenticalAcrossEnginesAndIntervals) {
  // The injection engine is a pure performance knob, like `threads`: the
  // replay engine and the checkpoint-forked engine must emit byte-equal
  // reports at any checkpoint interval (0 = adaptive), in any combination
  // with the thread count.
  EngineConfig config = small_config();
  config.engine = InjectionEngine::kReplay;
  config.threads = 1;
  const std::string replay = report_to_json(run_engine(config));
  config.engine = InjectionEngine::kCheckpoint;
  for (const u64 interval : {u64{0}, u64{64}, u64{1000}}) {
    config.checkpoint_interval = interval;
    config.threads = interval == 64 ? 4 : 1;
    EXPECT_EQ(report_to_json(run_engine(config)), replay) << "interval " << interval;
  }
}

TEST(Campaign, SeedChangesTheSampledSites) {
  EngineConfig config = small_config();
  config.single_fault = false;
  const EngineReport a = run_engine(config);
  config.seed = 8;
  const EngineReport b = run_engine(config);
  // Same site count (the space is enumerated, only the cycles are
  // sampled), same pools; the seed only moves the sampled cycles.
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.workloads[0].nodiv_pool, b.workloads[0].nodiv_pool);
}

TEST(Campaign, InjectionSeedIsPerSiteStable) {
  const u64 s = injection_seed(1, "bitcount", 500, 6, 3, false);
  EXPECT_EQ(s, injection_seed(1, "bitcount", 500, 6, 3, false));
  EXPECT_NE(s, injection_seed(2, "bitcount", 500, 6, 3, false));
  EXPECT_NE(s, injection_seed(1, "cubic", 500, 6, 3, false));
  EXPECT_NE(s, injection_seed(1, "bitcount", 501, 6, 3, false));
  EXPECT_NE(s, injection_seed(1, "bitcount", 500, 9, 3, false));
  EXPECT_NE(s, injection_seed(1, "bitcount", 500, 6, 4, false));
  EXPECT_NE(s, injection_seed(1, "bitcount", 500, 6, 3, true));
}

TEST(Campaign, RejectsX0AndOutOfRangeRegisters) {
  // Regression: flipping x0 is a no-op the old campaign silently counted
  // as kMasked, deflating CCF rates.
  const assembler::Program program = workloads::build("bitcount", 1);
  const ReferenceTrace trace = record_reference(program);
  const u64 budget = trace.cycles * 4 + 100'000;
  const u64 golden = trace.golden_checksum;
  EXPECT_THROW(inject_identical_fault_timed(program, Injection{500, 0, 3}, golden, budget),
               CheckError);
  EXPECT_THROW(inject_identical_fault_timed(program, Injection{500, 32, 3}, golden, budget),
               CheckError);
  EXPECT_THROW(inject_single_fault_timed(program, Injection{500, 0, 3}, 0, golden, budget),
               CheckError);
  EXPECT_THROW(inject_identical_fault_timed(program, Injection{500, 6, 64}, golden, budget),
               CheckError);
}

TEST(Campaign, ConfigSanitizerDropsInvalidTargets) {
  std::vector<u8> regs{0, 6, 32, 255, 9};
  std::vector<unsigned> bits{3, 64, 40, 1000};
  sanitize_targets(regs, bits);
  EXPECT_EQ(regs, (std::vector<u8>{6, 9}));
  EXPECT_EQ(bits, (std::vector<unsigned>{3, 40}));
}

TEST(Campaign, EngineFiltersX0FromConfig) {
  EngineConfig config = small_config();
  config.registers = {0, 6};  // x0 must be dropped, not silently injected
  config.bits = {3};
  config.single_fault = false;
  const EngineReport report = run_engine(config);
  // 2 classes x <=2 cycles x 1 reg x 1 bit.
  EXPECT_LE(report.injections, 4u);
  EXPECT_EQ(report.config.registers, (std::vector<u8>{6}));
}

TEST(Campaign, LatencyHistogramCoversExactlyDetectableOutcomes) {
  EngineConfig config = small_config();
  const EngineReport report = run_engine(config);
  for (const WorkloadReport& wr : report.workloads) {
    for (const ClassAggregate* agg :
         {&wr.identical[0], &wr.identical[1], &wr.single}) {
      const u64 detectable = agg->count(Outcome::kDetected) + agg->count(Outcome::kCrashed) +
                             agg->count(Outcome::kHung);
      EXPECT_EQ(agg->latency.total_samples(), detectable);
    }
  }
}

TEST(Campaign, WilsonIntervalBracketsTheRate) {
  const Interval ci = wilson_interval(3, 10);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.lo, 0.3);
  EXPECT_GT(ci.hi, 0.3);
  EXPECT_LT(ci.hi, 1.0);
  const Interval zero = wilson_interval(0, 0);
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_EQ(zero.hi, 0.0);
  const Interval all = wilson_interval(10, 10);
  EXPECT_GT(all.hi, 0.95);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.7);
}

// ---- single-fault-never-CCF property over random programs ------------------

namespace e = isa::enc;
using namespace assembler;

/// Small straight-line generator following the workload conventions
/// (a0 = data base, result checksum stored at offset 0, clean ecall): a
/// single-core fault can corrupt one result, but two results can never
/// agree on a wrong value.
Program random_program(u64 seed) {
  Xoshiro256 rng(seed);
  Assembler a;
  DataBuilder d;
  std::vector<u64> blob(64);
  for (auto& w : blob) w = rng.next();
  d.add_u64_array(blob);

  constexpr Reg kPool[] = {T0, T1, T2, S1, S2, S3, A1, A2};
  constexpr unsigned kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  const auto pick = [&] { return kPool[rng.below(kPoolSize)]; };
  for (Reg r : kPool) a.li(r, static_cast<i64>(rng.next() & 0xFFFF));

  const unsigned ops = 40 + static_cast<unsigned>(rng.below(60));
  for (unsigned i = 0; i < ops; ++i) {
    const Reg rd = pick(), rs1 = pick(), rs2 = pick();
    switch (rng.below(8)) {
      case 0: a(e::add(rd, rs1, rs2)); break;
      case 1: a(e::sub(rd, rs1, rs2)); break;
      case 2: a(e::xor_(rd, rs1, rs2)); break;
      case 3: a(e::or_(rd, rs1, rs2)); break;
      case 4: a(e::and_(rd, rs1, rs2)); break;
      case 5: a(e::mul(rd, rs1, rs2)); break;
      case 6: a(e::ld(rd, A0, static_cast<i64>(rng.below(64) * 8))); break;
      default: a(e::sltu(rd, rs1, rs2)); break;
    }
  }
  // Fold the pool into a checksum and publish it.
  a.mv(T6, ZERO);
  for (Reg r : kPool) a(e::xor_(T6, T6, r));
  a(e::sd(T6, A0, workloads::kResultOffset));
  a(e::ecall());
  return a.assemble("random", std::move(d));
}

TEST(Campaign, SingleFaultNeverCcfOnRandomPrograms) {
  Xoshiro256 rng(99);
  for (u64 p = 0; p < 6; ++p) {
    const Program program = random_program(1000 + p);
    const ReferenceTrace trace = record_reference(program);
    const u64 budget = trace.cycles * 4 + 100'000;
    for (int i = 0; i < 6; ++i) {
      const Injection injection{rng.range(50, trace.cycles - 1),
                                static_cast<u8>(rng.range(1, 31)),
                                static_cast<unsigned>(rng.below(64))};
      const unsigned core = static_cast<unsigned>(rng.below(2));
      const InjectionResult result =
          inject_single_fault_timed(program, injection, core, trace.golden_checksum, budget);
      EXPECT_NE(result.outcome, Outcome::kCcf)
          << "program " << p << " cycle " << injection.cycle << " reg "
          << int(injection.reg) << " bit " << injection.bit << " core " << core;
      if (result.outcome == Outcome::kMasked)
        EXPECT_EQ(result.detection_latency, 0u);
    }
  }
}

}  // namespace
}  // namespace safedm::faultsim
