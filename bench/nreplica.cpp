// N1 — N-replica redundancy groups: the pairwise diversity matrix, the
// verdict-policy detection trade-off, and the group datapath's batched
// delivery speedup. Companion to the group topology introduced with the
// redundancy-group refactor (DESIGN.md "Redundancy groups").
//
// Three sections, all landing in BENCH_nreplica.json:
//
//   matrix    Real MPSoC runs of one workload on N=3 homogeneous vs N=3
//             heterogeneous + decorrelated groups (plus an N=4 spot
//             check): per-pair nodiv/DS/IS/zero-stagger counters and
//             distance statistics — the full C(n,2) diversity matrix the
//             monitor maintains. The heterogeneous group's *minimum*
//             pairwise distance (the weakest link) is the headline: DME-
//             style decorrelation must lift it above the homogeneous
//             control's.
//
//   policies  The same heterogeneous run under any_pair / quorum(k) /
//             all_pairs verdict policies: group nodiv cycles per policy,
//             i.e. how much detection coverage each policy trades away.
//             quorum(1) must equal any_pair and quorum(C(n,2)) must equal
//             all_pairs exactly (the lowering is a shared threshold).
//
//   perf      Synthetic-trace throughput of the group datapath, batched
//             (on_group_cycles) vs per-cycle (on_group_cycle) delivery
//             for n in {2, 3, 4}, plus n = 4 under CRC compare. The
//             machine-independent ratios live
//             under "speedups" and are gated against
//             bench/baselines/BENCH_nreplica.json by tools/bench_diff.
//
// Usage: bench_nreplica [--cycles=N] [--reps=N] [--scale=N] [--json=PATH]
//                       [--check]
//   --check exits nonzero if a policy-equivalence identity breaks, the
//   batched group path diverges from the per-cycle path, the batched path
//   loses to per-cycle delivery, or heterogeneity fails to lift the
//   minimum pairwise distance (the nreplica-smoke CTest gate).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "json_writer.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

using namespace safedm;

namespace {

// ---- section 1+2: diversity matrix on real MPSoC runs ----------------------

struct PairCell {
  unsigned a = 0, b = 0;
  monitor::PairCounters counters;
};

struct MatrixRun {
  std::string name;
  unsigned replicas = 0;
  u64 cycles = 0;
  bool completed = false;
  monitor::SafeDmCounters group;
  std::vector<PairCell> pairs;

  /// The weakest link of the matrix: the smallest per-pair minimum
  /// distance (equals group.distance_min by construction; recomputed from
  /// the cells so the bench cross-checks the matrix against the group
  /// aggregate).
  u64 min_pair_distance() const {
    u64 min = ~u64{0};
    for (const PairCell& p : pairs)
      if (p.counters.distance_min < min) min = p.counters.distance_min;
    return min;
  }
};

/// One redundant run of `program` on a single group with the given
/// topology and verdict policy, mirroring scenario::run_redundant but
/// keeping the SafeDm instance so the pairwise matrix can be read out.
MatrixRun run_group(const std::string& name, const soc::GroupSpec& group,
                    const assembler::Program& program, monitor::VerdictPolicy policy,
                    unsigned quorum_k, u64 max_cycles) {
  const unsigned n = group.size();
  soc::SocConfig soc_config;
  soc_config.groups = {group};
  soc_config.observer_batch = 32;  // SafeDM is a pure sink: batching is safe
  soc::MpSoc soc(soc_config);

  monitor::SafeDmConfig dm_config;
  dm_config.num_replicas = n;
  dm_config.policy = policy;
  dm_config.quorum_k = quorum_k;
  dm_config.start_enabled = true;
  dm_config.track_distance = true;
  monitor::SafeDm dm(dm_config);
  soc.add_observer(&dm);

  soc.load_redundant(program);
  for (unsigned r = 0; r < n; ++r) dm.set_prelude_ignore(r, soc.prelude_commits(r));

  MatrixRun run;
  run.name = name;
  run.replicas = n;
  run.cycles = soc.run(max_cycles);
  dm.finalize();
  run.completed = soc.all_halted();
  run.group = dm.counters();
  for (unsigned p = 0; p < dm.num_pairs(); ++p) {
    const auto [a, b] = dm.pair_replicas(p);
    run.pairs.push_back(PairCell{a, b, dm.pair_counters(p)});
  }
  return run;
}

/// The heterogeneous + decorrelated group: every replica beyond the first
/// gets DME-style decorrelation (text/data/stack offsets plus a register-
/// allocation shuffle) and a structural difference (store-buffer depth,
/// cache geometry, or EX latency) — the knobs the scenario DSL's
/// "group.replica" section exposes.
soc::GroupSpec heterogeneous_group(unsigned n) {
  soc::GroupSpec group = soc::GroupSpec::homogeneous(n);
  const core::CoreConfig base{};
  for (unsigned r = 1; r < n; ++r) {
    soc::ReplicaSpec& rep = group.replicas[r];
    rep.text_offset = 0x400ull * r;
    rep.data_offset = 0x100ull * r;
    rep.stack_offset = 0x40ull * r;
    rep.reg_shuffle_seed = 0x5AFEu + r;
    core::CoreConfig cc = base;
    switch (r % 3) {
      case 1: cc.store_buffer.entries = 4; cc.mul_latency = 5; break;
      case 2: cc.l1d.size_bytes = 8 * 1024; cc.div_latency = 20; break;
      case 0: cc.predictor.bht_entries = 16; break;
    }
    rep.core = cc;
  }
  return group;
}

// ---- section 3: group datapath throughput ----------------------------------

core::CoreTapFrame random_frame(Xoshiro256& rng) {
  core::CoreTapFrame f;
  for (unsigned s = 0; s < core::kPipelineStages; ++s)
    for (unsigned l = 0; l < core::kMaxIssueWidth; ++l)
      f.stage[s][l] = core::StageSlotTap{rng.chance(0.9), static_cast<u32>(rng.next())};
  for (unsigned p = 0; p < core::kMaxPorts; ++p)
    f.port[p] = core::PortTap{rng.chance(0.8), rng.next()};
  f.commits = static_cast<unsigned>(rng.below(3));
  return f;
}

/// Matched synthetic stream for an N-replica group: every replica sees the
/// same frame each cycle (the no-early-exit worst case for all C(n,2)
/// comparators), stored as N contiguous per-replica arrays the way MpSoc's
/// group ring buffers hand them to on_group_cycles.
struct GroupTrace {
  std::vector<std::vector<core::CoreTapFrame>> replica;  // [r][cycle]

  std::size_t length() const { return replica.empty() ? 0 : replica[0].size(); }
};

GroupTrace make_group_trace(unsigned n, std::size_t length, u64 seed) {
  Xoshiro256 rng(seed);
  GroupTrace trace;
  trace.replica.resize(n);
  for (auto& lane : trace.replica) lane.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    core::CoreTapFrame f = random_frame(rng);
    f.hold = rng.chance(0.15);
    for (auto& lane : trace.replica) lane.push_back(f);
  }
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

monitor::SafeDmConfig perf_config(unsigned n, monitor::CompareMode compare) {
  monitor::SafeDmConfig config;
  config.num_replicas = n;
  config.num_ports = 3;
  config.data_fifo_depth = 4;
  config.compare = compare;
  config.start_enabled = true;
  config.arm_on_first_commit = false;
  return config;
}

struct PerfResult {
  double cycles_per_sec = 0;
  u64 nodiv = 0;  // consumed so the compiler cannot elide the work
};

PerfResult pump_percycle(unsigned n, monitor::CompareMode compare, u64 cycles,
                         const GroupTrace& trace) {
  const auto start = std::chrono::steady_clock::now();
  monitor::SafeDm dm(perf_config(n, compare));
  const std::size_t len = trace.length();
  const core::CoreTapFrame* frames[soc::kMaxGroupReplicas];
  for (u64 c = 0, i = 0; c < cycles; ++c) {
    for (unsigned r = 0; r < n; ++r) frames[r] = &trace.replica[r][i];
    if (++i == len) i = 0;
    dm.on_group_cycle(c, frames, n);
  }
  const double elapsed = seconds_since(start);
  return PerfResult{elapsed > 0 ? static_cast<double>(cycles) / elapsed : 0,
                    dm.counters().nodiv_cycles};
}

PerfResult pump_batched(unsigned n, monitor::CompareMode compare, u64 cycles,
                        const GroupTrace& trace) {
  const auto start = std::chrono::steady_clock::now();
  monitor::SafeDm dm(perf_config(n, compare));
  const u64 len = trace.length();
  const core::CoreTapFrame* frames[soc::kMaxGroupReplicas];
  for (unsigned r = 0; r < n; ++r) frames[r] = trace.replica[r].data();
  for (u64 c = 0; c < cycles;) {
    const unsigned m = static_cast<unsigned>(len < cycles - c ? len : cycles - c);
    dm.on_group_cycles(c, frames, n, m);
    c += m;
  }
  const double elapsed = seconds_since(start);
  return PerfResult{elapsed > 0 ? static_cast<double>(cycles) / elapsed : 0,
                    dm.counters().nodiv_cycles};
}

struct PerfMode {
  std::string name;  // JSON key: "n<replicas>", suffixed "_crc" for CRC compare
  unsigned n = 0;
  monitor::CompareMode compare = monitor::CompareMode::kRaw;
  bench::Measurement percycle;
  bench::Measurement batched;
  u64 nodiv_percycle = 0;
  u64 nodiv_batched = 0;

  double speedup() const {
    const double base = percycle.best();
    return base > 0 ? batched.best() / base : 0;
  }
};

void emit_matrix(bench::JsonWriter& json, const MatrixRun& run) {
  json.key(run.name).begin_object();
  json.prop("replicas", run.replicas);
  json.prop("cycles", run.cycles);
  json.prop("completed", run.completed);
  json.key("group").begin_object();
  json.prop("monitored", run.group.monitored_cycles)
      .prop("nodiv", run.group.nodiv_cycles)
      .prop("ds_match", run.group.ds_match_cycles)
      .prop("is_match", run.group.is_match_cycles)
      .prop("zero_stag", run.group.zero_stag_cycles)
      .prop("distance_min", run.group.distance_min)
      .prop("distance_max", run.group.distance_max)
      .prop("mean_distance", run.group.mean_distance(), 2);
  json.end_object();
  json.key("pairs").begin_array();
  for (const PairCell& p : run.pairs) {
    json.begin_object();
    json.prop("a", p.a)
        .prop("b", p.b)
        .prop("nodiv", p.counters.nodiv_cycles)
        .prop("ds_match", p.counters.ds_match_cycles)
        .prop("is_match", p.counters.is_match_cycles)
        .prop("zero_stag", p.counters.zero_stag_cycles)
        .prop("distance_min", p.counters.distance_min)
        .prop("distance_max", p.counters.distance_max);
    json.end_object();
  }
  json.end_array();
  json.prop("min_pair_distance", run.min_pair_distance());
  json.end_object();
}

void print_matrix(const MatrixRun& run) {
  std::printf("%s (N=%u, %llu cycles, monitored %llu)\n", run.name.c_str(), run.replicas,
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(run.group.monitored_cycles));
  std::printf("  %-8s %12s %12s %12s %12s %10s %10s\n", "pair", "nodiv", "ds_match",
              "is_match", "zero_stag", "dist_min", "dist_max");
  for (const PairCell& p : run.pairs)
    std::printf("  (%u,%u)    %12llu %12llu %12llu %12llu %10llu %10llu\n", p.a, p.b,
                static_cast<unsigned long long>(p.counters.nodiv_cycles),
                static_cast<unsigned long long>(p.counters.ds_match_cycles),
                static_cast<unsigned long long>(p.counters.is_match_cycles),
                static_cast<unsigned long long>(p.counters.zero_stag_cycles),
                static_cast<unsigned long long>(p.counters.distance_min),
                static_cast<unsigned long long>(p.counters.distance_max));
  std::printf("  group: nodiv %llu, zero_stag %llu, distance min %llu / mean %.1f\n\n",
              static_cast<unsigned long long>(run.group.nodiv_cycles),
              static_cast<unsigned long long>(run.group.zero_stag_cycles),
              static_cast<unsigned long long>(run.group.distance_min),
              run.group.mean_distance());
}

}  // namespace

int main(int argc, char** argv) {
  constexpr char kUsage[] =
      "usage: bench_nreplica [--cycles=N] [--reps=N] [--scale=N] [--json=PATH] [--check]\n";
  u64 cycles = 1'000'000;
  unsigned reps = 5;
  unsigned scale = 1;
  std::string json_path = "BENCH_nreplica.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cycles=", 9) == 0)
      cycles = bench::parse_u64("--cycles", argv[i] + 9, kUsage, 1);
    else if (std::strncmp(argv[i], "--reps=", 7) == 0)
      reps = bench::parse_u32("--reps", argv[i] + 7, kUsage, 1, 1000);
    else if (std::strncmp(argv[i], "--scale=", 8) == 0)
      scale = bench::parse_u32("--scale", argv[i] + 8, kUsage, 1, 1024);
    else if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strcmp(argv[i], "--check") == 0) check = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n%s", argv[i], kUsage);
      return 2;
    }
  }

  const char* workload = "bitcount";
  const assembler::Program program = workloads::build(workload, scale);
  constexpr u64 kMaxCycles = 20'000'000;
  const unsigned n3_pairs = 3;  // C(3,2)

  // ---- matrix: homogeneous control vs heterogeneous + decorrelated --------
  std::printf("N-replica diversity matrix (workload %s, scale %u)\n\n", workload, scale);
  const MatrixRun homo = run_group("n3_homogeneous", soc::GroupSpec::homogeneous(3), program,
                                   monitor::VerdictPolicy::kAnyPair, 1, kMaxCycles);
  const MatrixRun hetero = run_group("n3_heterogeneous", heterogeneous_group(3), program,
                                     monitor::VerdictPolicy::kAnyPair, 1, kMaxCycles);
  const MatrixRun hetero4 = run_group("n4_heterogeneous", heterogeneous_group(4), program,
                                      monitor::VerdictPolicy::kAnyPair, 1, kMaxCycles);
  print_matrix(homo);
  print_matrix(hetero);
  print_matrix(hetero4);

  // ---- policies: detection coverage per verdict policy ---------------------
  // On the homogeneous group: its matrix is non-degenerate (some pairs
  // match while others do not), so the policies actually separate. The
  // fully decorrelated group reports 0 nodiv under every policy.
  const soc::GroupSpec policy_group = soc::GroupSpec::homogeneous(3);
  const MatrixRun quorum1 = run_group("quorum1", policy_group, program,
                                      monitor::VerdictPolicy::kQuorum, 1, kMaxCycles);
  const MatrixRun quorum2 = run_group("quorum2", policy_group, program,
                                      monitor::VerdictPolicy::kQuorum, 2, kMaxCycles);
  const MatrixRun quorum3 = run_group("quorum3", policy_group, program,
                                      monitor::VerdictPolicy::kQuorum, n3_pairs, kMaxCycles);
  const MatrixRun all3 = run_group("all_pairs", policy_group, program,
                                   monitor::VerdictPolicy::kAllPairs, 1, kMaxCycles);
  std::printf("verdict policies (N=3 homogeneous): group nodiv per policy\n");
  std::printf("  any_pair %llu | quorum(1) %llu | quorum(2) %llu | quorum(3) %llu | "
              "all_pairs %llu\n\n",
              static_cast<unsigned long long>(homo.group.nodiv_cycles),
              static_cast<unsigned long long>(quorum1.group.nodiv_cycles),
              static_cast<unsigned long long>(quorum2.group.nodiv_cycles),
              static_cast<unsigned long long>(quorum3.group.nodiv_cycles),
              static_cast<unsigned long long>(all3.group.nodiv_cycles));

  // ---- perf: batched vs per-cycle group delivery ---------------------------
  std::vector<PerfMode> perf;
  for (const unsigned n : {2u, 3u, 4u}) {
    PerfMode mode;
    mode.name = "n" + std::to_string(n);
    mode.n = n;
    perf.push_back(std::move(mode));
  }
  {
    PerfMode mode;  // the group4_crc end-to-end workload's compare mode
    mode.name = "n4_crc";
    mode.n = 4;
    mode.compare = monitor::CompareMode::kCrc32;
    perf.push_back(std::move(mode));
  }
  // Warm-up so lazy page faults / frequency scaling don't skew rep 0.
  {
    const GroupTrace warm = make_group_trace(2, 64, 0x5AFE1000);
    pump_batched(2, monitor::CompareMode::kRaw, std::min<u64>(cycles / 4 + 1, 200'000), warm);
  }
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (PerfMode& mode : perf) {
      const GroupTrace trace = make_group_trace(mode.n, 64, 0x5AFE1000 + mode.n);
      const PerfResult pc = pump_percycle(mode.n, mode.compare, cycles, trace);
      const PerfResult ba = pump_batched(mode.n, mode.compare, cycles, trace);
      mode.percycle.add(pc.cycles_per_sec);
      mode.batched.add(ba.cycles_per_sec);
      mode.nodiv_percycle = pc.nodiv;
      mode.nodiv_batched = ba.nodiv;
    }
  }
  std::printf("group datapath throughput (%llu cycles x %u reps, m=3 n=4, matched frames)\n",
              static_cast<unsigned long long>(cycles), reps);
  std::printf("  %-7s %16s %16s %10s\n", "mode", "per-cycle c/s", "batched c/s", "speedup");
  for (const PerfMode& mode : perf)
    std::printf("  %-7s %16.0f %16.0f %9.2fx\n", mode.name.c_str(), mode.percycle.best(),
                mode.batched.best(), mode.speedup());

  // ---- JSON ----------------------------------------------------------------
  bench::JsonWriter json;
  json.begin_object();
  json.prop("schema", "safedm.bench.nreplica/v1");
  json.prop("workload", workload);
  json.prop("scale", scale);
  json.key("matrix").begin_object();
  emit_matrix(json, homo);
  emit_matrix(json, hetero);
  emit_matrix(json, hetero4);
  json.end_object();
  json.key("policies").begin_object();
  json.prop("any_pair", homo.group.nodiv_cycles)
      .prop("quorum_1", quorum1.group.nodiv_cycles)
      .prop("quorum_2", quorum2.group.nodiv_cycles)
      .prop("quorum_3", quorum3.group.nodiv_cycles)
      .prop("all_pairs", all3.group.nodiv_cycles);
  json.end_object();
  json.prop("cycles", cycles);
  json.prop("reps", reps);
  json.key("perf").begin_object();
  for (const PerfMode& mode : perf) {
    json.key(mode.name).begin_object();
    json.prop("percycle_cycles_per_sec", mode.percycle.best(), 1)
        .prop("percycle_median", mode.percycle.median(), 1)
        .prop("percycle_stddev", mode.percycle.stddev(), 1)
        .prop("batched_cycles_per_sec", mode.batched.best(), 1)
        .prop("batched_median", mode.batched.median(), 1)
        .prop("batched_stddev", mode.batched.stddev(), 1)
        .prop("nodiv", mode.nodiv_batched);
    json.end_object();
  }
  json.end_object();
  json.key("speedups").begin_object();
  for (const PerfMode& mode : perf)
    json.prop("group_batched_vs_percycle_" + mode.name, mode.speedup(), 3);
  json.end_object();
  json.end_object();
  if (json.write_file(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }

  if (check) {
    // Policy lowering identities: quorum(1) == any_pair, quorum(C(n,2)) ==
    // all_pairs — bit-exact, not approximate (same threshold by
    // construction, same simulation otherwise).
    if (quorum1.group.nodiv_cycles != homo.group.nodiv_cycles ||
        quorum1.group.zero_stag_cycles != homo.group.zero_stag_cycles) {
      std::fprintf(stderr, "NREPLICA-SMOKE FAIL: quorum(1) != any_pair\n");
      return 1;
    }
    if (quorum3.group.nodiv_cycles != all3.group.nodiv_cycles ||
        quorum3.group.zero_stag_cycles != all3.group.zero_stag_cycles) {
      std::fprintf(stderr, "NREPLICA-SMOKE FAIL: quorum(C(n,2)) != all_pairs\n");
      return 1;
    }
    // The matrix must agree with the group aggregate on the weakest link.
    for (const MatrixRun* run : {&homo, &hetero, &hetero4}) {
      if (run->min_pair_distance() != run->group.distance_min) {
        std::fprintf(stderr, "NREPLICA-SMOKE FAIL: %s pair matrix min distance %llu != "
                             "group distance_min %llu\n",
                     run->name.c_str(),
                     static_cast<unsigned long long>(run->min_pair_distance()),
                     static_cast<unsigned long long>(run->group.distance_min));
        return 1;
      }
    }
    // Heterogeneity + decorrelation must lift the weakest link strictly
    // above the homogeneous control (the PR's acceptance shape).
    if (hetero.min_pair_distance() <= homo.min_pair_distance()) {
      std::fprintf(stderr, "NREPLICA-SMOKE FAIL: heterogeneous min pair distance %llu not "
                           "above homogeneous control %llu\n",
                   static_cast<unsigned long long>(hetero.min_pair_distance()),
                   static_cast<unsigned long long>(homo.min_pair_distance()));
      return 1;
    }
    // Batched delivery must be verdict-exact vs per-cycle and keep an
    // edge (>= 1.0 leaves slack for host noise; the trajectory is gated
    // by tools/bench_diff against the committed baseline).
    for (const PerfMode& mode : perf) {
      if (mode.nodiv_batched != mode.nodiv_percycle) {
        std::fprintf(stderr, "NREPLICA-SMOKE FAIL: %s batched nodiv %llu != per-cycle %llu\n",
                     mode.name.c_str(), static_cast<unsigned long long>(mode.nodiv_batched),
                     static_cast<unsigned long long>(mode.nodiv_percycle));
        return 1;
      }
      if (mode.speedup() < 1.0) {
        std::fprintf(stderr, "NREPLICA-SMOKE FAIL: %s batched path slower than per-cycle "
                             "(%.2fx)\n",
                     mode.name.c_str(), mode.speedup());
        return 1;
      }
    }
    std::printf("nreplica-smoke OK: policy identities exact, batched path verdict-exact "
                "(n2 %.2fx, n3 %.2fx, n4 %.2fx, n4_crc %.2fx), hetero min distance %llu > "
                "homo %llu\n",
                perf[0].speedup(), perf[1].speedup(), perf[2].speedup(), perf[3].speedup(),
                static_cast<unsigned long long>(hetero.min_pair_distance()),
                static_cast<unsigned long long>(homo.min_pair_distance()));
  }
  return 0;
}
