// Property tests for the N-replica group monitor:
//
//   1. For N in {2, 3, 4}, incremental delivery — per-cycle and batched
//      at random chunk boundaries — matches the exhaustive
//      (incremental_compare = false) per-cycle oracle across the full
//      batched-equivalence sweep (72 scenarios: depths x ports x compare x
//      IS modes): verdict trail, group counters, every pairwise matrix
//      cell, and the nodiv/DS/IS histograms. Every replica count runs the
//      same datapath, the paper's pair included.
//
//   2. For N > 2, batched group delivery (on_group_cycles, chunked at
//      random boundaries) matches per-cycle on_group_cycle delivery
//      exactly: group counters, every pairwise matrix cell, per-pair
//      staggering, and snapshot bytes — including a monitor restored from
//      a mid-stream snapshot finishing the stream identically.
//
//   3. Verdict-policy lowering identities: quorum(1) == any_pair and
//      quorum(C(n,2)) == all_pairs produce byte-identical monitors, and
//      group nodiv is monotonically non-increasing in the quorum k.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "safedm/common/check.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/common/state.hpp"
#include "safedm/safedm/monitor.hpp"

namespace safedm::monitor {
namespace {

struct Scenario {
  unsigned depth;
  unsigned ports;
  CompareMode compare;
  IsMode is_mode;
  u64 seed;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "n" + std::to_string(s.depth) + "_m" + std::to_string(s.ports) +
         (s.compare == CompareMode::kCrc32 ? "_crc" : "_raw") +
         (s.is_mode == IsMode::kFlatList ? "_flat" : "_perstage") + "_s" +
         std::to_string(s.seed);
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> scenarios;
  u64 seed = 1;
  // 3 and 12 (the evicted ring slot is not the one written) come last so
  // earlier scenarios keep their seeds and names.
  for (unsigned depth : {4u, 8u, 64u, 128u, 3u, 12u})
    for (unsigned ports : {1u, 2u, 3u})
      for (CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32})
        for (IsMode is_mode : {IsMode::kPerStage, IsMode::kFlatList})
          scenarios.push_back(Scenario{depth, ports, compare, is_mode, seed++});
  return scenarios;
}

core::CoreTapFrame small_frame(Xoshiro256& rng) {
  core::CoreTapFrame f;
  for (unsigned s = 0; s < core::kPipelineStages; ++s)
    for (unsigned l = 0; l < core::kMaxIssueWidth; ++l)
      f.stage[s][l] = core::StageSlotTap{rng.chance(0.7), static_cast<u32>(rng.below(3))};
  for (unsigned p = 0; p < core::kMaxPorts; ++p)
    f.port[p] = core::PortTap{rng.chance(0.5), rng.below(2)};
  f.commits = static_cast<unsigned>(rng.below(3));
  return f;
}

/// Per-replica frame streams with a phase schedule that covers lockstep,
/// single-replica value divergence, and independent holds (mid-chunk
/// realignment on every pair).
struct GroupStreams {
  std::vector<std::vector<core::CoreTapFrame>> replica;  // [r][cycle]

  std::vector<const core::CoreTapFrame*> bases() const {
    std::vector<const core::CoreTapFrame*> p;
    for (const auto& lane : replica) p.push_back(lane.data());
    return p;
  }
};

GroupStreams scripted_group_streams(unsigned n, u64 seed, unsigned cycles) {
  Xoshiro256 rng(seed);
  GroupStreams s;
  s.replica.resize(n);
  for (auto& lane : s.replica) lane.reserve(cycles);
  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    const unsigned phase = (cycle / 400) % 4;
    const core::CoreTapFrame base = small_frame(rng);
    for (unsigned r = 0; r < n; ++r) {
      core::CoreTapFrame f = base;
      switch (phase) {
        case 0:
        case 3:
          f.hold = (cycle % 97) < 5;  // deterministic common hold
          break;
        case 1:
          f.hold = (cycle % 53) < 4;
          if (r != 0 && rng.chance(0.4)) f = small_frame(rng);  // diverge tail
          break;
        case 2:
          f.hold = rng.chance(0.3);  // independent: de-aligns every pair
          if (rng.chance(0.2)) f = small_frame(rng);
          break;
      }
      s.replica[r].push_back(f);
    }
  }
  return s;
}

std::vector<u8> monitor_bytes(const SafeDm& dm) {
  StateWriter w;
  dm.save_state(w);
  return std::move(w).take();
}

SafeDmConfig group_config(unsigned n) {
  SafeDmConfig config;
  config.num_replicas = n;
  config.data_fifo_depth = 4;
  config.num_ports = 3;
  config.start_enabled = true;
  return config;
}

void expect_same_matrix(const SafeDm& a, const SafeDm& b) {
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  for (unsigned p = 0; p < a.num_pairs(); ++p) {
    const PairCounters pa = a.pair_counters(p);
    const PairCounters pb = b.pair_counters(p);
    EXPECT_EQ(pa.nodiv_cycles, pb.nodiv_cycles) << "pair " << p;
    EXPECT_EQ(pa.ds_match_cycles, pb.ds_match_cycles) << "pair " << p;
    EXPECT_EQ(pa.is_match_cycles, pb.is_match_cycles) << "pair " << p;
    EXPECT_EQ(pa.zero_stag_cycles, pb.zero_stag_cycles) << "pair " << p;
    EXPECT_EQ(pa.distance_min, pb.distance_min) << "pair " << p;
    EXPECT_EQ(pa.distance_max, pb.distance_max) << "pair " << p;
  }
}

// ---- 1. incremental delivery == the exhaustive oracle ----------------------

std::vector<u8> histogram_bytes(const Histogram& h) {
  StateWriter w;
  h.save_state(w);
  return std::move(w).take();
}

void expect_matches_oracle(const SafeDm& oracle, const SafeDm& dm) {
  const auto& co = oracle.counters();
  const auto& cd = dm.counters();
  EXPECT_EQ(co.monitored_cycles, cd.monitored_cycles);
  EXPECT_EQ(co.nodiv_cycles, cd.nodiv_cycles);
  EXPECT_EQ(co.ds_match_cycles, cd.ds_match_cycles);
  EXPECT_EQ(co.is_match_cycles, cd.is_match_cycles);
  EXPECT_EQ(co.zero_stag_cycles, cd.zero_stag_cycles);
  EXPECT_EQ(co.interrupts, cd.interrupts);
  ASSERT_EQ(oracle.num_pairs(), dm.num_pairs());
  for (unsigned p = 0; p < oracle.num_pairs(); ++p) {
    const PairCounters& po = oracle.pair_counters(p);
    const PairCounters& pd = dm.pair_counters(p);
    EXPECT_EQ(po.nodiv_cycles, pd.nodiv_cycles) << "pair " << p;
    EXPECT_EQ(po.ds_match_cycles, pd.ds_match_cycles) << "pair " << p;
    EXPECT_EQ(po.is_match_cycles, pd.is_match_cycles) << "pair " << p;
    EXPECT_EQ(po.zero_stag_cycles, pd.zero_stag_cycles) << "pair " << p;
  }
  EXPECT_EQ(histogram_bytes(oracle.nodiv_history()), histogram_bytes(dm.nodiv_history()));
  EXPECT_EQ(histogram_bytes(oracle.ds_history()), histogram_bytes(dm.ds_history()));
  EXPECT_EQ(histogram_bytes(oracle.is_history()), histogram_bytes(dm.is_history()));
}

// Property 1. The suite, test and scenario names are kept so test IDs stay
// stable.
class GroupPairEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(GroupPairEquivalence, GroupHooksMatchLegacyPairwiseDelivery) {
  const Scenario& scenario = GetParam();
  for (const unsigned n : {2u, 3u, 4u}) {
    SCOPED_TRACE("replicas " + std::to_string(n));
    SafeDmConfig config;
    config.num_replicas = n;
    config.data_fifo_depth = scenario.depth;
    config.num_ports = scenario.ports;
    config.compare = scenario.compare;
    config.is_mode = scenario.is_mode;
    config.start_enabled = true;
    SafeDmConfig exhaustive = config;
    exhaustive.incremental_compare = false;

    constexpr unsigned kCycles = 2000;
    const GroupStreams s =
        scripted_group_streams(n, scenario.seed * 0x9E3779B97F4A7C15ULL + 7, kCycles);
    const std::vector<const core::CoreTapFrame*> bases = s.bases();

    SafeDm oracle(exhaustive);  // per-cycle, exhaustive compare
    SafeDm per_cycle(config);   // per-cycle, incremental compare
    SafeDm batched(config);     // random chunk sizes, incremental compare
    std::vector<bool> oracle_trail, per_cycle_trail, batched_trail;
    oracle.set_verdict_trail(&oracle_trail);
    per_cycle.set_verdict_trail(&per_cycle_trail);
    batched.set_verdict_trail(&batched_trail);
    std::vector<const core::CoreTapFrame*> frames(n);
    for (unsigned c = 0; c < kCycles; ++c) {
      for (unsigned r = 0; r < n; ++r) frames[r] = &s.replica[r][c];
      oracle.on_group_cycle(c, frames.data(), n);
      per_cycle.on_group_cycle(c, frames.data(), n);
    }

    Xoshiro256 chunk_rng(scenario.seed ^ 0x6B0);
    unsigned delivered = 0;
    while (delivered < kCycles) {
      const unsigned m =
          std::min(static_cast<unsigned>(chunk_rng.range(1, 80)), kCycles - delivered);
      for (unsigned r = 0; r < n; ++r) frames[r] = bases[r] + delivered;
      // The pair also takes its own hooks, which forward to the group path.
      if (n == 2 && chunk_rng.chance(0.5)) batched.on_cycles(delivered, frames[0], frames[1], m);
      else batched.on_group_cycles(delivered, frames.data(), n, m);
      delivered += m;
    }
    for (SafeDm* dm : {&oracle, &per_cycle, &batched}) {
      dm->set_verdict_trail(nullptr);
      dm->finalize();
    }

    EXPECT_EQ(oracle_trail, per_cycle_trail);
    EXPECT_EQ(oracle_trail, batched_trail);
    expect_matches_oracle(oracle, per_cycle);
    expect_matches_oracle(oracle, batched);
    EXPECT_EQ(monitor_bytes(per_cycle), monitor_bytes(batched));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupPairEquivalence, ::testing::ValuesIn(make_scenarios()),
                         scenario_name);

// ---- 2. N>2: batched group delivery == per-cycle group delivery ------------

struct GroupCase {
  unsigned replicas;
  CompareMode compare;
  bool track_distance;
  u64 seed;
};

std::string group_case_name(const ::testing::TestParamInfo<GroupCase>& info) {
  const GroupCase& c = info.param;
  return "r" + std::to_string(c.replicas) +
         (c.compare == CompareMode::kCrc32 ? "_crc" : "_raw") +
         (c.track_distance ? "_dist" : "") + "_s" + std::to_string(c.seed);
}

std::vector<GroupCase> make_group_cases() {
  std::vector<GroupCase> cases;
  u64 seed = 11;
  for (unsigned replicas : {3u, 4u, 5u})
    for (CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32})
      for (bool track : {false, true})
        cases.push_back(GroupCase{replicas, compare, track, seed++});
  return cases;
}

/// Per-cycle vs batched (random chunks, plus a monitor restored from a
/// mid-stream snapshot) delivery of one scripted stream under `config`.
void expect_batched_matches_per_cycle(const SafeDmConfig& config, u64 seed) {
  const unsigned n = config.num_replicas;
  constexpr unsigned kCycles = 2000;
  constexpr unsigned kSnapshotCycle = 900;
  const GroupStreams s = scripted_group_streams(n, seed * 0xD1B54A32D192ED03ULL, kCycles);
  const std::vector<const core::CoreTapFrame*> bases = s.bases();

  SafeDm ref(config);  // per-cycle group delivery
  SafeDm bat(config);  // batched, random chunk sizes
  std::vector<bool> ref_trail, bat_trail;
  ref.set_verdict_trail(&ref_trail);
  bat.set_verdict_trail(&bat_trail);
  for (unsigned c = 0; c < kCycles; ++c) {
    std::vector<const core::CoreTapFrame*> frames;
    for (unsigned r = 0; r < n; ++r) frames.push_back(&s.replica[r][c]);
    ref.on_group_cycle(c, frames.data(), n);
  }

  SafeDm restored(config);  // picks up from bat's mid-stream snapshot
  bool restored_active = false;
  Xoshiro256 chunk_rng(seed ^ 0x9A0B);
  unsigned delivered = 0;
  std::vector<const core::CoreTapFrame*> frames(n);
  while (delivered < kCycles) {
    unsigned m = static_cast<unsigned>(
        chunk_rng.chance(0.1) ? chunk_rng.range(65, 100) : chunk_rng.range(1, 32));
    if (delivered < kSnapshotCycle) m = std::min(m, kSnapshotCycle - delivered);
    m = std::min(m, kCycles - delivered);
    for (unsigned r = 0; r < n; ++r) frames[r] = bases[r] + delivered;
    bat.on_group_cycles(delivered, frames.data(), n, m);
    if (restored_active) restored.on_group_cycles(delivered, frames.data(), n, m);
    delivered += m;

    if (delivered == kSnapshotCycle && !restored_active) {
      const std::vector<u8> mid = monitor_bytes(bat);
      StateReader r(mid);
      restored.restore_state(r);
      restored_active = true;
    }
  }
  ref.set_verdict_trail(nullptr);
  bat.set_verdict_trail(nullptr);

  ASSERT_EQ(ref_trail.size(), bat_trail.size());
  for (std::size_t i = 0; i < ref_trail.size(); ++i)
    ASSERT_EQ(ref_trail[i], bat_trail[i]) << "cycle " << i;

  const auto& cr = ref.counters();
  const auto& cb = bat.counters();
  EXPECT_EQ(cr.monitored_cycles, cb.monitored_cycles);
  EXPECT_EQ(cr.nodiv_cycles, cb.nodiv_cycles);
  EXPECT_EQ(cr.ds_match_cycles, cb.ds_match_cycles);
  EXPECT_EQ(cr.is_match_cycles, cb.is_match_cycles);
  EXPECT_EQ(cr.zero_stag_cycles, cb.zero_stag_cycles);
  EXPECT_EQ(cr.distance_min, cb.distance_min);
  EXPECT_EQ(cr.distance_max, cb.distance_max);
  expect_same_matrix(ref, bat);
  EXPECT_EQ(ref.instruction_diff(), bat.instruction_diff());

  const std::vector<u8> want = monitor_bytes(ref);
  EXPECT_EQ(want, monitor_bytes(bat));
  EXPECT_EQ(want, monitor_bytes(restored));
}

class GroupBatchedEquivalence : public ::testing::TestWithParam<GroupCase> {};

TEST_P(GroupBatchedEquivalence, MatrixCountersAndStateMatchPerCycleDelivery) {
  const GroupCase& gcase = GetParam();
  SafeDmConfig config = group_config(gcase.replicas);
  config.compare = gcase.compare;
  config.track_distance = gcase.track_distance;
  expect_batched_matches_per_cycle(config, gcase.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupBatchedEquivalence,
                         ::testing::ValuesIn(make_group_cases()), group_case_name);

// Non-power-of-two depths on the matrix path: the evicted ring slot is not
// the one written, which the CRC-mode rolling registers must track.
TEST(GroupBatchedOddDepth, MatrixCountersAndStateMatchPerCycleDelivery) {
  u64 seed = 101;
  for (const unsigned depth : {3u, 12u}) {
    for (const unsigned replicas : {3u, 4u}) {
      for (const CompareMode compare : {CompareMode::kRaw, CompareMode::kCrc32}) {
        SafeDmConfig config = group_config(replicas);
        config.data_fifo_depth = depth;
        config.compare = compare;
        SCOPED_TRACE("depth " + std::to_string(depth) + " replicas " +
                     std::to_string(replicas) +
                     (compare == CompareMode::kCrc32 ? " crc" : " raw"));
        expect_batched_matches_per_cycle(config, seed++);
      }
    }
  }
}

// ---- 3. verdict-policy lowering identities ---------------------------------

void pump_group(SafeDm& dm, const GroupStreams& s, unsigned n, unsigned cycles) {
  const std::vector<const core::CoreTapFrame*> bases = s.bases();
  std::vector<const core::CoreTapFrame*> frames(n);
  for (unsigned at = 0; at < cycles; at += 37) {
    const unsigned m = std::min(37u, cycles - at);
    for (unsigned r = 0; r < n; ++r) frames[r] = bases[r] + at;
    dm.on_group_cycles(at, frames.data(), n, m);
  }
}

TEST(GroupVerdictPolicy, QuorumOneEqualsAnyPairExactly) {
  for (const unsigned n : {3u, 4u, 8u}) {
    constexpr unsigned kCycles = 1500;
    const GroupStreams s = scripted_group_streams(n, 0xA11 + n, kCycles);

    SafeDmConfig any = group_config(n);
    any.policy = VerdictPolicy::kAnyPair;
    SafeDmConfig quorum = group_config(n);
    quorum.policy = VerdictPolicy::kQuorum;
    quorum.quorum_k = 1;

    SafeDm dm_any(any), dm_quorum(quorum);
    pump_group(dm_any, s, n, kCycles);
    pump_group(dm_quorum, s, n, kCycles);
    EXPECT_EQ(dm_any.verdict_threshold(), dm_quorum.verdict_threshold()) << "n=" << n;
    EXPECT_EQ(monitor_bytes(dm_any), monitor_bytes(dm_quorum)) << "n=" << n;
  }
}

TEST(GroupVerdictPolicy, QuorumAllPairsEqualsAllPairsExactly) {
  for (const unsigned n : {3u, 4u, 8u}) {
    const unsigned n_pairs = n * (n - 1) / 2;
    constexpr unsigned kCycles = 1500;
    const GroupStreams s = scripted_group_streams(n, 0xA22 + n, kCycles);

    SafeDmConfig all = group_config(n);
    all.policy = VerdictPolicy::kAllPairs;
    SafeDmConfig quorum = group_config(n);
    quorum.policy = VerdictPolicy::kQuorum;
    quorum.quorum_k = n_pairs;

    SafeDm dm_all(all), dm_quorum(quorum);
    pump_group(dm_all, s, n, kCycles);
    pump_group(dm_quorum, s, n, kCycles);
    EXPECT_EQ(dm_all.verdict_threshold(), n_pairs) << "n=" << n;
    EXPECT_EQ(monitor_bytes(dm_all), monitor_bytes(dm_quorum)) << "n=" << n;
  }
}

TEST(GroupVerdictPolicy, GroupNodivMonotonicallyNonIncreasingInQuorumK) {
  const unsigned n = 4;
  const unsigned n_pairs = n * (n - 1) / 2;
  constexpr unsigned kCycles = 1500;
  const GroupStreams s = scripted_group_streams(n, 0xA33, kCycles);

  u64 previous = ~u64{0};
  for (unsigned k = 1; k <= n_pairs; ++k) {
    SafeDmConfig config = group_config(n);
    config.policy = VerdictPolicy::kQuorum;
    config.quorum_k = k;
    SafeDm dm(config);
    pump_group(dm, s, n, kCycles);
    EXPECT_LE(dm.counters().nodiv_cycles, previous) << "k=" << k;
    previous = dm.counters().nodiv_cycles;
  }
}

// Constructor contract: replica counts and quorum bounds are validated.
TEST(GroupVerdictPolicy, RejectsInvalidShapes) {
  SafeDmConfig config = group_config(1);
  EXPECT_THROW(SafeDm{config}, CheckError);
  config = group_config(9);
  EXPECT_THROW(SafeDm{config}, CheckError);
  config = group_config(3);
  config.policy = VerdictPolicy::kQuorum;
  config.quorum_k = 0;
  EXPECT_THROW(SafeDm{config}, CheckError);
  config.quorum_k = 4;  // C(3,2) == 3
  EXPECT_THROW(SafeDm{config}, CheckError);
  config.quorum_k = 3;
  EXPECT_NO_THROW(SafeDm{config});
}

}  // namespace
}  // namespace safedm::monitor
