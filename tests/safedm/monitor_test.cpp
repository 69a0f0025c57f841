#include "safedm/safedm/monitor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "safedm/common/state.hpp"

namespace safedm::monitor {
namespace {

SafeDmConfig cfg() {
  SafeDmConfig c;
  c.data_fifo_depth = 4;
  c.num_ports = 4;
  c.start_enabled = true;
  return c;
}

core::CoreTapFrame idle_frame(unsigned commits = 0) {
  core::CoreTapFrame f;
  f.commits = commits;
  return f;
}

core::CoreTapFrame active_frame(u64 port0_value, u32 ex_encoding, unsigned commits = 1) {
  core::CoreTapFrame f;
  f.port[0] = core::PortTap{true, port0_value};
  f.stage[4][0] = core::StageSlotTap{true, ex_encoding};
  f.commits = commits;
  return f;
}

TEST(SafeDm, IdenticalFramesLackDiversity) {
  SafeDm dm(cfg());
  for (int i = 0; i < 10; ++i)
    dm.on_cycle(i, active_frame(42, 0x13), active_frame(42, 0x13));
  EXPECT_EQ(dm.counters().nodiv_cycles, 10u);
  EXPECT_EQ(dm.counters().monitored_cycles, 10u);
  EXPECT_TRUE(dm.lacking_diversity_now());
}

TEST(SafeDm, DataDifferenceIsDiversity) {
  SafeDm dm(cfg());
  for (int i = 0; i < 10; ++i)
    dm.on_cycle(i, active_frame(1, 0x13), active_frame(2, 0x13));
  EXPECT_EQ(dm.counters().nodiv_cycles, 0u);
  EXPECT_EQ(dm.counters().is_match_cycles, 10u);
  EXPECT_EQ(dm.counters().ds_match_cycles, 0u);
}

TEST(SafeDm, InstructionDifferenceIsDiversity) {
  SafeDm dm(cfg());
  for (int i = 0; i < 10; ++i)
    dm.on_cycle(i, active_frame(5, 0x13), active_frame(5, 0x33));
  EXPECT_EQ(dm.counters().nodiv_cycles, 0u);
  EXPECT_EQ(dm.counters().ds_match_cycles, 10u);
  EXPECT_EQ(dm.counters().is_match_cycles, 0u);
}

TEST(SafeDm, DataWindowRemembersPastDifference) {
  // One divergent sample keeps DS different for the next n-1 cycles even if
  // the cores re-align afterwards.
  SafeDm dm(cfg());  // depth 4
  dm.on_cycle(0, active_frame(1, 0x13), active_frame(99, 0x13));  // diverge
  for (int i = 1; i <= 2; ++i)
    dm.on_cycle(i, active_frame(7, 0x13), active_frame(7, 0x13));
  EXPECT_EQ(dm.counters().nodiv_cycles, 0u);  // still in window
  for (int i = 3; i <= 6; ++i)
    dm.on_cycle(i, active_frame(7, 0x13), active_frame(7, 0x13));
  EXPECT_GT(dm.counters().nodiv_cycles, 0u);  // aged out, re-converged
}

TEST(SafeDm, DisabledDoesNotCount) {
  SafeDmConfig c = cfg();
  c.start_enabled = false;
  SafeDm dm(c);
  dm.on_cycle(0, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_EQ(dm.counters().monitored_cycles, 0u);
  dm.enable(true);
  dm.on_cycle(1, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_EQ(dm.counters().monitored_cycles, 1u);
}

TEST(SafeDm, HaltedCoreStopsMonitoring) {
  SafeDm dm(cfg());
  auto halted = active_frame(1, 0x13);
  halted.halted = true;
  dm.on_cycle(0, active_frame(1, 0x13), halted);
  EXPECT_EQ(dm.counters().monitored_cycles, 0u);
  EXPECT_FALSE(dm.lacking_diversity_now());
}

TEST(SafeDm, InterruptOnFirstOccurrence) {
  SafeDmConfig c = cfg();
  c.report = ReportMode::kInterruptFirst;
  SafeDm dm(c);
  u64 fired_at = 0;
  dm.set_interrupt_handler([&](u64 cycle) { fired_at = cycle; });
  dm.on_cycle(1, active_frame(1, 0x13), active_frame(2, 0x13));  // diverse
  EXPECT_FALSE(dm.interrupt_pending());
  dm.on_cycle(2, active_frame(3, 0x13), active_frame(3, 0x13));  // DS still differs (window)
  dm.on_cycle(3, active_frame(3, 0x13), active_frame(3, 0x13));
  dm.on_cycle(4, active_frame(3, 0x13), active_frame(3, 0x13));
  dm.on_cycle(5, active_frame(3, 0x13), active_frame(3, 0x13));
  dm.on_cycle(6, active_frame(3, 0x13), active_frame(3, 0x13));  // now matches
  EXPECT_TRUE(dm.interrupt_pending());
  EXPECT_GT(fired_at, 0u);
  EXPECT_EQ(dm.counters().interrupts, 1u);
}

TEST(SafeDm, InterruptThresholdMode) {
  SafeDmConfig c = cfg();
  c.report = ReportMode::kInterruptThreshold;
  c.interrupt_threshold = 5;
  SafeDm dm(c);
  for (int i = 0; i < 4; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_FALSE(dm.interrupt_pending());
  dm.on_cycle(4, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_TRUE(dm.interrupt_pending());
}

TEST(SafeDm, PollOnlyNeverInterrupts) {
  SafeDm dm(cfg());  // default kPollOnly
  for (int i = 0; i < 100; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_FALSE(dm.interrupt_pending());
  EXPECT_EQ(dm.counters().nodiv_cycles, 100u);
}

TEST(SafeDm, ClearInterrupt) {
  SafeDmConfig c = cfg();
  c.report = ReportMode::kInterruptFirst;
  SafeDm dm(c);
  dm.on_cycle(0, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_TRUE(dm.interrupt_pending());
  dm.clear_interrupt();
  EXPECT_FALSE(dm.interrupt_pending());
}

TEST(SafeDm, InstructionDiffTracksCommitImbalance) {
  SafeDm dm(cfg());
  dm.on_cycle(0, idle_frame(2), idle_frame(0));
  dm.on_cycle(1, idle_frame(2), idle_frame(1));
  EXPECT_EQ(dm.instruction_diff(), 3);
  dm.on_cycle(2, idle_frame(0), idle_frame(2));
  EXPECT_EQ(dm.instruction_diff(), 1);
}

TEST(SafeDm, PreludeIgnoreSuppressesNopCommits) {
  SafeDm dm(cfg());
  dm.set_prelude_ignore(1, 4);
  // Core 1 commits 4 nops (ignored), then program commits align.
  dm.on_cycle(0, idle_frame(0), idle_frame(2));
  dm.on_cycle(1, idle_frame(0), idle_frame(2));
  EXPECT_EQ(dm.instruction_diff(), 0);
  dm.on_cycle(2, idle_frame(1), idle_frame(1));
  EXPECT_EQ(dm.instruction_diff(), 0);
}

TEST(SafeDm, ZeroStagCountsOnlyWhenArmed) {
  SafeDm dm(cfg());
  dm.set_prelude_ignore(1, 2);
  dm.on_cycle(0, idle_frame(1), idle_frame(1));  // core1 still in prelude: not armed
  EXPECT_EQ(dm.counters().zero_stag_cycles, 0u);
  dm.on_cycle(1, idle_frame(0), idle_frame(2));  // prelude consumed: armed, diff 0
  dm.on_cycle(2, idle_frame(1), idle_frame(1));  // diff stays 0
  EXPECT_EQ(dm.counters().zero_stag_cycles, 2u);
}

TEST(SafeDm, HistoryRecordsEpisodeLengths) {
  SafeDm dm(cfg());
  // 3-cycle no-div episode, then diversity, then 1-cycle episode.
  for (int i = 0; i < 3; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  dm.on_cycle(3, active_frame(1, 0x13), active_frame(9, 0x13));  // break
  for (int i = 4; i < 8; ++i) dm.on_cycle(i, active_frame(4, 0x13), active_frame(4, 0x13));
  dm.finalize();
  EXPECT_EQ(dm.nodiv_history().total_samples(), 2u);
  EXPECT_EQ(dm.nodiv_history().max_sample(), 3u);
}

TEST(SafeDm, ApbRegisterFile) {
  SafeDm dm(cfg());
  for (int i = 0; i < 7; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_EQ(dm.apb_read(reg::kNodivLo), 7u);
  EXPECT_EQ(dm.apb_read(reg::kNodivHi), 0u);
  EXPECT_EQ(dm.apb_read(reg::kMonitoredLo), 7u);
  EXPECT_EQ(dm.apb_read(reg::kStatus) & 1u, 1u);  // lacking diversity now
  // Geometry register encodes n, m, o, p.
  const u32 geometry = dm.apb_read(reg::kGeometry);
  EXPECT_EQ(geometry & 0xFF, 4u);          // n
  EXPECT_EQ((geometry >> 8) & 0xFF, 4u);   // m
  EXPECT_EQ((geometry >> 16) & 0xFF, 7u);  // o
  EXPECT_EQ((geometry >> 24) & 0xFF, 2u);  // p
}

TEST(SafeDm, ApbControlWrites) {
  SafeDmConfig c = cfg();
  c.start_enabled = false;
  SafeDm dm(c);
  dm.apb_write(reg::kCtrl, 1u | (static_cast<u32>(ReportMode::kInterruptThreshold) << 1));
  EXPECT_TRUE(dm.enabled());
  dm.apb_write(reg::kThreshold, 3);
  for (int i = 0; i < 3; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_TRUE(dm.interrupt_pending());
  dm.apb_write(reg::kCtrl, 1u | (1u << 4));  // clear irq, stay enabled
  EXPECT_FALSE(dm.interrupt_pending());
  dm.apb_write(reg::kCtrl, 1u | (1u << 3));  // reset counters
  EXPECT_EQ(dm.apb_read(reg::kNodivLo), 0u);
}

TEST(SafeDm, ApbCtrlReservedReportModeLeavesModeUnchanged) {
  SafeDmConfig c = cfg();
  c.start_enabled = false;
  c.report = ReportMode::kInterruptThreshold;
  SafeDm dm(c);
  dm.apb_write(reg::kCtrl, 1u | (3u << 1));
  EXPECT_TRUE(dm.enabled());  // the write's other fields still land
  EXPECT_EQ(dm.config().report, ReportMode::kInterruptThreshold);
  EXPECT_EQ((dm.apb_read(reg::kCtrl) >> 1) & 3u,
            static_cast<u32>(ReportMode::kInterruptThreshold));
}

TEST(SafeDm, RestoreRejectsOutOfRangeReportMode) {
  SafeDm dm(cfg());
  StateWriter w;
  dm.save_state(w);
  std::vector<u8> bytes = std::move(w).take();
  // Stream magic (8) + SFDM section header (16) + num_replicas (4) +
  // verdict threshold (4).
  constexpr std::size_t kReportByte = 8 + 16 + 4 + 4;
  ASSERT_EQ(bytes[kReportByte], static_cast<u8>(ReportMode::kPollOnly));
  bytes[kReportByte] = 3;
  SafeDmConfig c = cfg();
  c.report = ReportMode::kInterruptFirst;
  SafeDm target(c);
  StateReader r(bytes);
  try {
    target.restore_state(r);
    FAIL() << "restore accepted report mode 3";
  } catch (const StateError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("report mode 3"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_EQ(target.config().report, ReportMode::kInterruptFirst);
}

TEST(SafeDm, RestoreRejectsVerdictThresholdMismatch) {
  // A snapshot carries the lowered verdict policy: an any_pair triple's
  // counters must not continue under all_pairs or quorum(2) rules.
  SafeDmConfig any = cfg();
  any.num_replicas = 3;
  any.policy = VerdictPolicy::kAnyPair;
  SafeDm source(any);
  const core::CoreTapFrame frame = active_frame(1, 0x13);
  const core::CoreTapFrame* frames[3] = {&frame, &frame, &frame};
  for (int i = 0; i < 5; ++i) source.on_group_cycle(i, frames, 3);
  StateWriter w;
  source.save_state(w);
  const std::vector<u8> bytes = std::move(w).take();

  SafeDmConfig all = any;
  all.policy = VerdictPolicy::kAllPairs;
  SafeDmConfig quorum = any;
  quorum.policy = VerdictPolicy::kQuorum;
  quorum.quorum_k = 2;
  for (const SafeDmConfig& c : {all, quorum}) {
    SafeDm target(c);
    StateReader r(bytes);
    try {
      target.restore_state(r);
      FAIL() << "restore accepted threshold 1 into a monitor needing "
             << target.verdict_threshold();
    } catch (const StateError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("verdict threshold 1"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
    EXPECT_EQ(target.counters().nodiv_cycles, 0u);
  }

  // quorum(1) lowers to the same threshold as any_pair: it restores.
  SafeDmConfig quorum1 = any;
  quorum1.policy = VerdictPolicy::kQuorum;
  quorum1.quorum_k = 1;
  SafeDm target(quorum1);
  StateReader r(bytes);
  target.restore_state(r);
  EXPECT_EQ(target.counters().nodiv_cycles, source.counters().nodiv_cycles);
}

TEST(SafeDm, ApbHistogramReadout) {
  SafeDm dm(cfg());
  for (int i = 0; i < 2; ++i) dm.on_cycle(i, active_frame(1, 0x13), active_frame(1, 0x13));
  dm.on_cycle(2, active_frame(1, 0x13), active_frame(5, 0x13));
  dm.finalize();
  // Episode of length 2 lands in the (1,2] bin (index 1) of histogram 0.
  dm.apb_write(reg::kHistSelect, 1u);
  EXPECT_EQ(dm.apb_read(reg::kHistData), 1u);
  // Out-of-range bin reads as zero.
  dm.apb_write(reg::kHistSelect, 0xFFu);
  EXPECT_EQ(dm.apb_read(reg::kHistData), 0u);
}

TEST(SafeDm, HistDataReadSaturatesAtU32Max) {
  // kHistData is documented as a saturating u32 readout of a 64-bit bin
  // count; a count above 2^32 must clamp to 0xFFFFFFFF, never truncate.
  SafeDm dm(cfg());
  // Drive the bin count past 2^32 directly (2^32 monitored episodes are
  // not reachable in a test); the accessor's constness only reflects the
  // observation API, the histogram object itself is mutable state.
  const u64 huge = (u64{1} << 32) + 5;
  const_cast<Histogram&>(dm.nodiv_history()).add(2, huge);
  dm.apb_write(reg::kHistSelect, 1u);  // episode length 2 -> (1,2] bin
  EXPECT_EQ(dm.apb_read(reg::kHistData), 0xFFFFFFFFu);
  // A truncating read would have produced this instead:
  EXPECT_NE(dm.apb_read(reg::kHistData), static_cast<u32>(huge));
}

TEST(SafeDm, CrcCompareModeDetectsSameCases) {
  SafeDmConfig c = cfg();
  c.compare = CompareMode::kCrc32;
  SafeDm dm(c);
  dm.on_cycle(0, active_frame(1, 0x13), active_frame(1, 0x13));
  EXPECT_EQ(dm.counters().nodiv_cycles, 1u);
  dm.on_cycle(1, active_frame(2, 0x13), active_frame(3, 0x13));
  EXPECT_EQ(dm.counters().nodiv_cycles, 1u);
}

TEST(SafeDm, ResetClearsEverything) {
  SafeDm dm(cfg());
  for (int i = 0; i < 5; ++i) dm.on_cycle(i, active_frame(1, 0x13), idle_frame(1));
  dm.reset();
  EXPECT_EQ(dm.counters().nodiv_cycles, 0u);
  EXPECT_EQ(dm.counters().monitored_cycles, 0u);
  EXPECT_EQ(dm.instruction_diff(), 0);
}

TEST(SafeDm, StorageBitsMatchGeometry) {
  SafeDm dm(cfg());
  EXPECT_EQ(dm.storage_bits(), 2u * (4u * 4u * 65u + 7u * 2u * 33u));
}

}  // namespace
}  // namespace safedm::monitor
