// Child side of safedm-e2e: one rep of one workload in this process.
//
// SoC workloads run every program pass on a fresh MpSoc + SafeDm rig, the
// way scenario::run_redundant does, and check each replica's result
// checksum against the golden ISS. A traced rep runs each pass twice —
// once through MpSoc::run and once through an outside-in copy of
// MpSoc::step that times every layer call — and requires both runs to
// produce identical simulated counters. The campaign workload times one
// full run_engine campaign.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "e2e.hpp"
#include "safedm/assembler/regs.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/hash.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/common/state.hpp"
#include "safedm/faultsim/campaign.hpp"
#include "safedm/faultsim/shard.hpp"
#include "safedm/isa/iss.hpp"
#include "safedm/mem/phys_mem.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/scenario/json.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

constexpr u64 kMaxCycles = 50'000'000;
/// The observer ring of run_redundant and the fault-campaign rig.
constexpr unsigned kObserverBatch = 32;
/// Checkpoints the snapshot probe drops per program.
constexpr u64 kCheckpointsPerProgram = 8;

const std::vector<std::string> kCampaignPrograms{"bitcount", "cubic", "md5", "quicksort"};

struct ProgramRef {
  std::string name;
  unsigned scale = 1;
};

/// One SoC workload: the rig, the programs, and the passes a rep makes.
struct SocWorkload {
  soc::SocConfig soc;
  monitor::SafeDmConfig dm;
  std::vector<ProgramRef> programs;
  unsigned passes = 1;
  /// Seed-derived stagger and arbiter bias per pass. The campaign's rig
  /// has neither (fault runs start in sync with bias 0).
  bool vary_platform = true;
};

/// Replicas 1..3 decorrelated (text/data/stack offsets, register shuffle)
/// and structurally different, as bench/nreplica's heterogeneous quad.
soc::GroupSpec heterogeneous_quad() {
  soc::GroupSpec group = soc::GroupSpec::homogeneous(4);
  for (unsigned r = 1; r < 4; ++r) {
    soc::ReplicaSpec& rep = group.replicas[r];
    // Apart by more than the largest image plus a 100-nop prelude, and
    // not a multiple of the L1I size, so each replica maps other sets.
    rep.text_offset = 0x8400ull * r;
    rep.data_offset = 0x100ull * r;
    rep.stack_offset = 0x40ull * r;
    rep.reg_shuffle_seed = 0x5AFEu + r;
    core::CoreConfig cc{};
    switch (r % 3) {
      case 1: cc.store_buffer.entries = 4; cc.mul_latency = 5; break;
      case 2: cc.l1d.size_bytes = 8 * 1024; cc.div_latency = 20; break;
      default: cc.predictor.bht_entries = 16; break;
    }
    rep.core = cc;
  }
  return group;
}

SocWorkload soc_workload(const std::string& name, bool quick) {
  SocWorkload w;
  w.soc.observer_batch = kObserverBatch;
  const auto table1 = [&](std::size_t limit) {
    for (const workloads::WorkloadInfo& info : workloads::registry())
      if (w.programs.size() < limit) w.programs.push_back({info.name, 1});
  };
  if (name == "pair_table1") {
    table1(SIZE_MAX);
    w.passes = quick ? 1 : 8;
  } else if (name == "pair_membound") {
    // Data segments larger than the 16 KiB L1D, plus epic for
    // store-buffer-full stalls. fft's size doubles per scale step; at 5
    // its 16 KiB of samples alone fill the L1D and it stays under half
    // of a pass.
    const unsigned s = quick ? 1 : 8;
    w.programs = {{"fft", quick ? 1u : 5u}, {"iir", s},           {"st", s},
                  {"countnegative", s},     {"complex_updates", s}, {"epic", s}};
    w.passes = quick ? 1 : 8;
  } else if (name == "group4_crc") {
    w.soc.groups = {heterogeneous_quad()};
    w.dm.num_replicas = 4;
    w.dm.compare = monitor::CompareMode::kCrc32;
    w.dm.policy = monitor::VerdictPolicy::kAnyPair;
    table1(quick ? 6 : SIZE_MAX);
  } else if (name == "campaign") {
    // The traced layer split of the campaign: its programs on its rig.
    for (const std::string& p : kCampaignPrograms)
      if (!quick || w.programs.size() < 2) w.programs.push_back({p, 1});
    w.passes = quick ? 1 : 8;
    w.vary_platform = false;
  } else {
    SAFEDM_CHECK_MSG(false, "unknown workload '" << name << "'");
  }
  return w;
}

faultsim::EngineConfig campaign_config(u64 seed, bool quick) {
  faultsim::EngineConfig config;
  config.workloads = quick ? std::vector<std::string>{"bitcount", "cubic"} : kCampaignPrograms;
  config.samples_per_class = quick ? 1 : 6;
  config.registers = {6, 9, 18};
  config.bits = {2, 17, 40};
  config.single_fault = true;
  config.threads = 2;
  config.seed = seed;
  config.engine = faultsim::InjectionEngine::kCheckpoint;
  return config;
}

u64 hash_text(u64 seed, const std::string& text, u64 salt) {
  Fnv1a64 h;
  h.add(seed);
  for (const char ch : text) h.add(static_cast<u8>(ch));
  h.add(salt);
  return h.value();
}

struct Platform {
  unsigned stagger_nops = 0;
  unsigned arbiter_bias = 0;
};

/// Run-to-run platform variation of one pass, from hash(seed, program, pass).
Platform pass_platform(const SocWorkload& w, u64 seed, const std::string& program,
                       unsigned pass) {
  if (!w.vary_platform) return {};
  static constexpr unsigned kStaggers[] = {0, 10, 100};
  const u64 h = hash_text(seed, program, pass);
  return {kStaggers[h % 3], static_cast<unsigned>((h >> 8) & 1)};
}

/// Golden result checksum from the functional ISS.
u64 iss_golden(const assembler::Program& program) {
  constexpr u64 kText = 0x1'0000;
  constexpr u64 kData = 0x40'0000;
  mem::PhysMem mem(0, 64ull << 20);
  for (std::size_t i = 0; i < program.text.size(); ++i)
    mem.store(kText + i * 4, program.text[i], 4);
  mem.write_block(kData, program.data);
  isa::Iss iss(mem, kText);
  iss.state().set_x(assembler::A0, kData);
  iss.state().set_x(assembler::SP,
                    align_down(kData + align_up(program.data_segment_bytes(), 16) +
                                   program.stack_bytes,
                               16));
  iss.run(kMaxCycles * 2);
  SAFEDM_CHECK_MSG(iss.state().halt == isa::HaltReason::kEcall,
                   "golden ISS run of '" << program.name << "' did not exit cleanly");
  return mem.load(kData + workloads::kResultOffset, 8);
}

struct Prepared {
  assembler::Program program;
  u64 golden = 0;
};

std::vector<Prepared> prepare(const std::vector<ProgramRef>& refs) {
  std::vector<Prepared> out;
  for (const ProgramRef& ref : refs) {
    Prepared p{workloads::build(ref.name, ref.scale), 0};
    p.golden = iss_golden(p.program);
    out.push_back(std::move(p));
  }
  return out;
}

/// Simulated counts of one or more passes. Everything here is a pure
/// function of the simulated inputs, so reps of one seed must agree.
struct SimCounts {
  u64 cycles = 0;
  u64 core_cycles = 0;  // cycles x replicas (the IPC denominator)
  u64 committed = 0;
  u64 mispredicts = 0;
  u64 l1d_stall = 0;
  u64 l1i_stall = 0;
  u64 sb_full_stall = 0;
  u64 raw_stall = 0;
  u64 l1d_misses = 0;
  u64 l1i_misses = 0;
  u64 sb_coalesced = 0;
  u64 grants = 0;
  u64 bus_busy = 0;
  u64 bus_wait = 0;
  u64 monitored = 0;
  u64 nodiv = 0;
  u64 zero_stag = 0;
  u64 fast_updates = 0;
  u64 comparator_updates = 0;

  bool operator==(const SimCounts&) const = default;

  void add(const SimCounts& o) {
    cycles += o.cycles;
    core_cycles += o.core_cycles;
    committed += o.committed;
    mispredicts += o.mispredicts;
    l1d_stall += o.l1d_stall;
    l1i_stall += o.l1i_stall;
    sb_full_stall += o.sb_full_stall;
    raw_stall += o.raw_stall;
    l1d_misses += o.l1d_misses;
    l1i_misses += o.l1i_misses;
    sb_coalesced += o.sb_coalesced;
    grants += o.grants;
    bus_busy += o.bus_busy;
    bus_wait += o.bus_wait;
    monitored += o.monitored;
    nodiv += o.nodiv;
    zero_stag += o.zero_stag;
    fast_updates += o.fast_updates;
    comparator_updates += o.comparator_updates;
  }

  void emit(Values& v) const {
    const auto ratio = [](u64 a, u64 b) {
      return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    v["soc.sim_cycles"] = static_cast<double>(cycles);
    v["core.committed"] = static_cast<double>(committed);
    v["core.ipc"] = ratio(committed, core_cycles);
    v["core.mispredicts"] = static_cast<double>(mispredicts);
    v["core.l1d_miss_stall_cycles"] = static_cast<double>(l1d_stall);
    v["core.l1i_miss_stall_cycles"] = static_cast<double>(l1i_stall);
    v["core.sb_full_stall_cycles"] = static_cast<double>(sb_full_stall);
    v["core.raw_hazard_stall_cycles"] = static_cast<double>(raw_stall);
    v["mem.l1d_misses"] = static_cast<double>(l1d_misses);
    v["mem.l1i_misses"] = static_cast<double>(l1i_misses);
    v["mem.sb_coalesced"] = static_cast<double>(sb_coalesced);
    v["bus.grants"] = static_cast<double>(grants);
    v["bus.busy_frac"] = ratio(bus_busy, cycles);
    v["bus.wait_cycles"] = static_cast<double>(bus_wait);
    v["safedm.monitored_cycles"] = static_cast<double>(monitored);
    v["safedm.nodiv_cycles"] = static_cast<double>(nodiv);
    v["safedm.zero_stag_cycles"] = static_cast<double>(zero_stag);
    v["safedm.fast_path_frac"] = ratio(fast_updates, comparator_updates);
  }
};

SimCounts collect(soc::MpSoc& soc, const monitor::SafeDm& dm, u64 cycles) {
  SimCounts c;
  c.cycles = cycles;
  c.core_cycles = cycles * soc.num_cores();
  for (unsigned i = 0; i < soc.num_cores(); ++i) {
    const core::Core& core = soc.core(i);
    c.committed += core.stats().committed;
    c.mispredicts += core.stats().mispredicts;
    c.l1d_stall += core.stats().l1d_miss_stall_cycles;
    c.l1i_stall += core.stats().l1i_miss_stall_cycles;
    c.sb_full_stall += core.stats().sb_full_stall_cycles;
    c.raw_stall += core.stats().raw_hazard_stall_cycles;
    c.l1d_misses += core.l1d_stats().misses;
    c.l1i_misses += core.l1i_stats().misses;
    c.sb_coalesced += core.sb_stats().coalesced;
  }
  const bus::AhbStats& bus = soc.ahb().stats();
  c.grants = bus.grants;
  c.bus_busy = bus.busy_cycles;
  for (const u64 w : bus.wait_cycles) c.bus_wait += w;
  c.monitored = dm.counters().monitored_cycles;
  c.nodiv = dm.counters().nodiv_cycles;
  c.zero_stag = dm.counters().zero_stag_cycles;
  for (unsigned p = 0; p < dm.num_pairs(); ++p) {
    const monitor::DiversityComparator::Stats& s = dm.pair_stats(p);
    c.fast_updates += s.fast_updates;
    c.comparator_updates += s.fast_updates + s.hold_reuses + s.realign_scans;
  }
  return c;
}

/// Host time per layer, accumulated by the outside-in stepping loop.
struct LayerTimes {
  Clock::duration core{};
  Clock::duration bus{};
  Clock::duration safedm{};
  Clock::duration wall{};   // whole passes: rig construction to finalize
  Clock::duration clock{};  // one empty interval per cycle: the cost of a read
  u64 safedm_calls = 0;

  void add(const LayerTimes& o) {
    core += o.core;
    bus += o.bus;
    safedm += o.safedm;
    wall += o.wall;
    clock += o.clock;
    safedm_calls += o.safedm_calls;
  }
};

/// MpSoc::step and its batched observer delivery, reproduced from outside
/// through public calls so each layer can be timed: every replica's
/// Core::step into the observer ring, then AhbBus::step, then SafeDm on a
/// full ring (and once more for the tail, as MpSoc::run flushes). Every
/// interval also holds about one clock read; an empty interval per cycle
/// measures that cost in place so it can be taken out.
u64 step_outside_in(soc::MpSoc& soc, monitor::SafeDm& dm, LayerTimes& t) {
  const unsigned n = soc.num_cores();
  std::vector<std::array<core::CoreTapFrame, kObserverBatch>> ring(n);
  std::array<const core::CoreTapFrame*, soc::kMaxGroupReplicas> lanes{};
  for (unsigned r = 0; r < n; ++r) lanes[r] = ring[r].data();
  unsigned pending = 0;
  u64 first = 1;
  u64 cycle = 0;
  const auto deliver = [&] {
    if (pending == 0) return;
    const Clock::time_point t0 = Clock::now();
    if (n == 2) dm.on_cycles(first, lanes[0], lanes[1], pending);
    else dm.on_group_cycles(first, lanes.data(), n, pending);
    t.safedm += Clock::now() - t0;
    ++t.safedm_calls;
    pending = 0;
  };
  while (cycle < kMaxCycles && !soc.all_halted()) {
    ++cycle;
    if (pending == 0) first = cycle;
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < n; ++i) soc.core(i).step(ring[i][pending]);
    const Clock::time_point t1 = Clock::now();
    soc.ahb().step();
    const Clock::time_point t2 = Clock::now();
    const Clock::time_point t3 = Clock::now();
    t.core += t1 - t0;
    t.bus += t2 - t1;
    t.clock += t3 - t2;
    if (++pending == kObserverBatch) deliver();
  }
  deliver();
  return cycle;
}

/// A fresh rig for one pass, loaded the way run_redundant loads it.
struct Rig {
  Rig(const SocWorkload& w, const assembler::Program& program, Platform platform,
      bool attach_monitor)
      : soc([&] {
          soc::SocConfig config = w.soc;
          config.arbiter_bias = platform.arbiter_bias;
          return config;
        }()),
        dm([&] {
          monitor::SafeDmConfig config = w.dm;
          config.start_enabled = true;
          return config;
        }()) {
    if (attach_monitor) soc.add_observer(&dm);
    soc.load_redundant(program, platform.stagger_nops, 1);
    for (unsigned r = 0; r < soc.group_size(0); ++r)
      dm.set_prelude_ignore(r, soc.prelude_commits(soc.group_core(0, r)));
  }

  /// Every replica exited cleanly with the golden checksum.
  bool results_ok(u64 golden, bool corrupt) {
    if (!soc.all_halted()) return false;
    for (unsigned i = 0; i < soc.num_cores(); ++i) {
      u64 result = soc.memory().load(soc.data_base(i) + workloads::kResultOffset, 8);
      if (corrupt && i == 0) result ^= 1;
      if (soc.core(i).halt_reason() != isa::HaltReason::kEcall || result != golden)
        return false;
    }
    return true;
  }

  soc::MpSoc soc;
  monitor::SafeDm dm;
};

struct PassOutcome {
  SimCounts counts;
  bool ok = false;
};

PassOutcome run_pass(const SocWorkload& w, const Prepared& p, Platform platform, bool corrupt,
                     LayerTimes* traced) {
  const Clock::time_point start = Clock::now();
  Rig rig(w, p.program, platform, traced == nullptr);
  const u64 cycles = traced ? step_outside_in(rig.soc, rig.dm, *traced) : rig.soc.run(kMaxCycles);
  rig.dm.finalize();
  PassOutcome out{collect(rig.soc, rig.dm, cycles), rig.results_ok(p.golden, corrupt)};
  if (traced) traced->wall += Clock::now() - start;
  return out;
}

/// Coarse spans of a traced rep (run -> pass -> program), kept in memory
/// and written as Chrome trace-event JSON when the rep ends.
struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0;
  double dur_us = 0;
  LayerTimes layers;
};

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "safedm-e2e: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"core_us\": %.3f, "
                  "\"bus_us\": %.3f, \"safedm_us\": %.3f}}%s\n",
                  s.name.c_str(), s.start_us, s.dur_us, i, s.parent,
                  seconds(s.layers.core) * 1e6, seconds(s.layers.bus) * 1e6,
                  seconds(s.layers.safedm) * 1e6, i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(k, v.size() - 1)];
}

/// Save/restore cost of the rig state (MpSoc + SafeDm), at evenly spaced
/// checkpoints of one pass of each program. The last checkpoint is
/// replayed to the end and must reproduce the golden result.
struct SnapshotProbe {
  std::vector<double> save_us;
  std::vector<double> restore_us;
  std::vector<double> bytes;
  u64 failed = 0;
};

void probe_snapshots(const SocWorkload& w, const Prepared& p, Platform platform, u64 cycles,
                     SnapshotProbe& out) {
  Rig rig(w, p.program, platform, true);
  const u64 interval = std::max<u64>(1, cycles / (kCheckpointsPerProgram + 1));
  std::vector<std::vector<u8>> checkpoints;
  while (true) {
    rig.soc.run(interval);
    if (rig.soc.all_halted()) break;
    const Clock::time_point t0 = Clock::now();
    StateWriter writer;
    rig.soc.save_state(writer);
    rig.dm.save_state(writer);
    std::vector<u8> bytes = writer.take();
    out.save_us.push_back(seconds(Clock::now() - t0) * 1e6);
    out.bytes.push_back(static_cast<double>(bytes.size()));
    checkpoints.push_back(std::move(bytes));
  }
  for (const std::vector<u8>& cp : checkpoints) {
    const Clock::time_point t0 = Clock::now();
    StateReader reader(cp);
    rig.soc.restore_state(reader);
    rig.dm.restore_state(reader);
    out.restore_us.push_back(seconds(Clock::now() - t0) * 1e6);
  }
  rig.soc.run(kMaxCycles);
  if (!rig.results_ok(p.golden, false)) ++out.failed;
}

/// The fault-injection layer, timed call by call: reference runs, the
/// same number of injections the campaign makes (forked from the
/// reference checkpoints), run_engine on 1 and 2 threads, and a 2-shard
/// fleet merged back into the 1-thread report's exact bytes.
void probe_faultsim(const faultsim::EngineConfig& config, const std::string& dir,
                    RepResult& rep) {
  struct Plan {
    Prepared prepared;
    faultsim::ReferenceTrace trace;
  };
  std::vector<Plan> plans;
  Clock::duration reference{};
  for (const std::string& name : config.workloads) {
    Plan plan{prepare({{name, config.scale}})[0], {}};
    const Clock::time_point t0 = Clock::now();
    plan.trace = faultsim::record_reference(plan.prepared.program, config.dm,
                                            faultsim::CheckpointPolicy{});
    reference += Clock::now() - t0;
    if (plan.trace.golden_checksum != plan.prepared.golden) ++rep.failed;
    plans.push_back(std::move(plan));
  }

  std::vector<double> inject_ms;
  for (const Plan& plan : plans) {
    const faultsim::ReferenceTrace& trace = plan.trace;
    std::vector<u64> pools[2];
    for (u64 c = 100; c < trace.nodiv.size(); ++c) pools[trace.nodiv[c] ? 1 : 0].push_back(c + 1);
    Xoshiro256 rng(hash_text(config.seed, plan.prepared.program.name, 0xE2E));
    const u64 budget = trace.cycles * 4 + 100'000;
    for (std::vector<u64>& pool : pools) {
      const std::size_t take = std::min<std::size_t>(config.samples_per_class, pool.size());
      for (std::size_t i = 0; i < take; ++i) {
        std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
        for (const u8 reg : config.registers) {
          for (const unsigned bit : config.bits) {
            const faultsim::Injection injection{pool[i], reg, bit};
            Clock::time_point t0 = Clock::now();
            faultsim::inject_identical_fault_timed(plan.prepared.program, injection,
                                                   trace.golden_checksum, budget, &trace);
            inject_ms.push_back(seconds(Clock::now() - t0) * 1e3);
            if (!config.single_fault) continue;
            t0 = Clock::now();
            faultsim::inject_single_fault_timed(plan.prepared.program, injection,
                                                static_cast<unsigned>(rng.next() & 1),
                                                trace.golden_checksum, budget, &trace);
            inject_ms.push_back(seconds(Clock::now() - t0) * 1e3);
          }
        }
      }
    }
  }

  // 1 and 2 threads back to back, so host speed drifts little between
  // the two sides of the efficiency ratio; the reports must be identical.
  double engine_inj_per_s[2] = {0, 0};
  std::string reports[2];
  Clock::time_point t0;
  for (unsigned threads = 1; threads <= 2; ++threads) {
    faultsim::EngineConfig engine = config;
    engine.threads = threads;
    t0 = Clock::now();
    const faultsim::EngineReport report = faultsim::run_engine(engine);
    engine_inj_per_s[threads - 1] =
        static_cast<double>(report.injections) / seconds(Clock::now() - t0);
    reports[threads - 1] = faultsim::report_to_json(report);
  }
  if (reports[0] != reports[1]) ++rep.failed;

  std::vector<std::string> logs;
  t0 = Clock::now();
  for (u32 i = 0; i < 2; ++i) {
    faultsim::ShardRunConfig shard;
    shard.engine = config;
    shard.engine.shard = {i, 2};
    shard.log_path = (std::filesystem::path(dir) / ("campaign_shard" + std::to_string(i) + ".log"))
                         .string();
    std::filesystem::remove(shard.log_path);
    faultsim::run_shard(shard);
    logs.push_back(shard.log_path);
  }
  const faultsim::EngineReport merged = faultsim::merge_shard_logs(logs);
  const double merge_s = seconds(Clock::now() - t0);
  for (const std::string& log : logs) std::filesystem::remove(log);
  if (faultsim::report_to_json(merged) != reports[0]) ++rep.failed;

  // Tail: the highest percentile with at least ten samples beyond it.
  double tail_q = 0.5;
  for (const double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(inject_ms.size()) * (1 - q) >= 10) {
      tail_q = q;
      break;
    }
  }
  rep.values["faultsim.reference_ms"] = seconds(reference) * 1e3;
  rep.values["faultsim.inject_ms_p50"] = median(inject_ms);
  rep.values["faultsim.inject_ms_tail"] = percentile(inject_ms, tail_q);
  rep.values["faultsim.inject_tail_pct"] = tail_q * 100;
  rep.values["faultsim.inject_n"] = static_cast<double>(inject_ms.size());
  rep.values["faultsim.engine_1t_injections_per_s"] = engine_inj_per_s[0];
  rep.values["faultsim.parallel_efficiency"] = engine_inj_per_s[1] / (2 * engine_inj_per_s[0]);
  rep.values["faultsim.merge_ms"] = merge_s * 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void run_campaign_rep(const RepOptions& options, RepResult& rep) {
  const faultsim::EngineConfig config = campaign_config(options.seed, options.quick);
  rep.ready_s = now_s();
  if (options.setup_only) return;
  const Clock::time_point t0 = Clock::now();
  const faultsim::EngineReport report = faultsim::run_engine(config);
  rep.chunks.push_back(
      {"campaign", static_cast<double>(report.injections), seconds(Clock::now() - t0)});
  rep.ops = 1;
  const std::string json = faultsim::report_to_json(report);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash_text(0, json, 0)));
  rep.digest = digest;
  u64 ccf[2] = {0, 0};
  for (const faultsim::WorkloadReport& w : report.workloads) {
    for (int cls = 0; cls < 2; ++cls) ccf[cls] += w.identical[cls].count(faultsim::Outcome::kCcf);
    // One faulty replica can never make both agree on a wrong result.
    if (w.single.count(faultsim::Outcome::kCcf) != 0) rep.failed = 1;
  }
  rep.values["faultsim.injections"] = static_cast<double>(report.injections);
  rep.values["faultsim.ccf_diverse"] = static_cast<double>(ccf[0]);
  rep.values["faultsim.ccf_nodiv"] = static_cast<double>(ccf[1]);
}

void run_soc_rep(const RepOptions& options, RepResult& rep) {
  const SocWorkload w = soc_workload(options.workload, options.quick);
  const std::vector<Prepared> programs = prepare(w.programs);
  rep.ready_s = now_s();
  if (options.setup_only) return;

  SimCounts total;
  LayerTimes layers;
  Clock::duration untraced_wall{};
  std::vector<Span> spans;
  const Clock::time_point origin = Clock::now();
  const auto us_since_origin = [&](Clock::time_point t) { return seconds(t - origin) * 1e6; };
  spans.push_back({options.workload, -1, 0, 0, {}});
  int pass_index = 0;
  std::vector<u64> pass0_cycles;
  for (unsigned pass = 0; pass < w.passes; ++pass) {
    const int pass_span = static_cast<int>(spans.size());
    spans.push_back({"pass " + std::to_string(pass), 0, us_since_origin(Clock::now()), 0, {}});
    for (const Prepared& p : programs) {
      const Platform platform = pass_platform(w, options.seed, p.program.name, pass);
      const bool corrupt = pass_index++ == options.fault_pass;
      const Clock::time_point t0 = Clock::now();
      const PassOutcome plain = run_pass(w, p, platform, corrupt, nullptr);
      const Clock::duration pass_wall = Clock::now() - t0;
      untraced_wall += pass_wall;
      if (!options.traced)
        rep.chunks.push_back(
            {p.program.name, static_cast<double>(plain.counts.cycles), seconds(pass_wall)});
      if (pass == 0) pass0_cycles.push_back(plain.counts.cycles);
      bool ok = plain.ok;
      SimCounts counts = plain.counts;
      if (options.traced) {
        LayerTimes t;
        const Clock::time_point start = Clock::now();
        const PassOutcome traced = run_pass(w, p, platform, corrupt, &t);
        spans.push_back({p.program.name, pass_span, us_since_origin(start),
                         seconds(t.wall) * 1e6, t});
        spans[pass_span].layers.add(t);
        layers.add(t);
        // A mismatch means the outside-in loop drifted from MpSoc::step.
        ok = ok && traced.ok && traced.counts == plain.counts;
        counts = traced.counts;
      }
      total.add(counts);
      ++rep.ops;
      if (!ok) ++rep.failed;
    }
    spans[pass_span].dur_us = us_since_origin(Clock::now()) - spans[pass_span].start_us;
  }
  spans[0].dur_us = us_since_origin(Clock::now());
  spans[0].layers = layers;
  total.emit(rep.values);
  if (!options.traced) return;

  // Report layer and wall times net of the clock reads: four per cycle
  // and two per delivery, each interval holding about one.
  const double cycles = static_cast<double>(total.cycles);
  const double read_ns = seconds(layers.clock) * 1e9 / cycles;
  const double calls = static_cast<double>(layers.safedm_calls);
  const auto net_ns = [&](Clock::duration d, double reads) {
    return std::max(0.0, seconds(d) * 1e9 - reads * read_ns);
  };
  const double wall_ns = net_ns(layers.wall, 4 * cycles + 2 * calls);
  const double core_ns = net_ns(layers.core, cycles);
  const double bus_ns = net_ns(layers.bus, cycles);
  const double safedm_ns = net_ns(layers.safedm, calls);
  const double soc_ns = std::max(0.0, wall_ns - core_ns - bus_ns - safedm_ns);
  rep.values["core.step_ns_per_cycle"] = core_ns / cycles;
  rep.values["core.share"] = core_ns / wall_ns;
  rep.values["bus.step_ns_per_cycle"] = bus_ns / cycles;
  rep.values["bus.share"] = bus_ns / wall_ns;
  rep.values["safedm.observe_ns_per_cycle"] = safedm_ns / cycles;
  rep.values["safedm.share"] = safedm_ns / wall_ns;
  rep.values["soc.loop_ns_per_cycle"] = soc_ns / cycles;
  rep.values["soc.share"] = soc_ns / wall_ns;
  rep.values["safedm.calls_per_kcycle"] = calls * 1e3 / cycles;
  rep.values["trace.clock_read_ns"] = read_ns;
  rep.values["trace.overhead_frac"] = seconds(layers.wall) / seconds(untraced_wall) - 1;

  // Snapshot cost on pass 0 of every program, outside the layer split.
  SnapshotProbe snap;
  for (std::size_t i = 0; i < programs.size(); ++i)
    probe_snapshots(w, programs[i], pass_platform(w, options.seed, programs[i].program.name, 0),
                    pass0_cycles[i], snap);
  rep.failed += snap.failed;
  rep.values["snapshot.save_us_p50"] = median(snap.save_us);
  rep.values["snapshot.restore_us_p50"] = median(snap.restore_us);
  rep.values["snapshot.bytes"] = median(snap.bytes);

  if (options.probes) {
    const Clock::time_point start = Clock::now();
    probe_faultsim(campaign_config(options.seed, options.quick), options.trace_dir, rep);
    spans.push_back({"faultsim probes", -1, us_since_origin(start),
                     seconds(Clock::now() - start) * 1e6, {}});
  }
  if (!options.trace_dir.empty())
    write_trace((std::filesystem::path(options.trace_dir) /
                 ("trace_" + options.workload + ".json"))
                    .string(),
                spans);
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() { return seconds(Clock::now().time_since_epoch()); }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"pair_table1", "pair_membound", "group4_crc",
                                               "campaign"};
  return kNames;
}

RepResult run_rep(const RepOptions& options) {
  RepResult rep;
  rep.workload = options.workload;
  rep.traced = options.traced;
  // Traced campaign reps split the campaign rig's simulation by layer;
  // untraced ones time the campaign itself.
  if (options.workload == "campaign" && !options.traced)
    run_campaign_rep(options, rep);
  else
    run_soc_rep(options, rep);
  rep.peak_rss_mb = peak_rss_mb();
  return rep;
}

std::string rep_to_json(const RepResult& rep) {
  std::ostringstream os;
  os << "{\"workload\": \"" << rep.workload << "\", \"traced\": " << (rep.traced ? "true" : "false")
     << ", \"ready_s\": " << format_double(rep.ready_s) << ", \"chunks\": [";
  for (std::size_t i = 0; i < rep.chunks.size(); ++i) {
    const Chunk& c = rep.chunks[i];
    os << (i ? ", " : "") << "[\"" << c.item << "\", " << format_double(c.work) << ", "
       << format_double(c.seconds) << "]";
  }
  os << "], \"peak_rss_mb\": " << format_double(rep.peak_rss_mb) << ", \"ops\": " << rep.ops
     << ", \"failed\": " << rep.failed << ", \"digest\": \"" << rep.digest
     << "\", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : rep.values) {
    os << (first ? "" : ", ") << '"' << name << "\": " << format_double(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

RepResult rep_from_json(const std::string& line) {
  const scenario::JsonValue doc = scenario::parse_json(line);
  const auto number = [&](const char* key) {
    const scenario::JsonValue* v = doc.find(key);
    SAFEDM_CHECK_MSG(v && v->is_number(), "rep result lacks number '" << key << "'");
    return v->number;
  };
  const auto text = [&](const char* key) {
    const scenario::JsonValue* v = doc.find(key);
    SAFEDM_CHECK_MSG(v && v->is_string(), "rep result lacks string '" << key << "'");
    return v->text;
  };
  RepResult rep;
  rep.workload = text("workload");
  const scenario::JsonValue* traced = doc.find("traced");
  rep.traced = traced && traced->is_bool() && traced->boolean;
  rep.ready_s = number("ready_s");
  const scenario::JsonValue* chunks = doc.find("chunks");
  SAFEDM_CHECK_MSG(chunks && chunks->is_array(), "rep result lacks 'chunks'");
  for (const scenario::JsonValue& c : chunks->items) {
    SAFEDM_CHECK_MSG(c.is_array() && c.items.size() == 3 && c.items[0].is_string() &&
                         c.items[1].is_number() && c.items[2].is_number(),
                     "rep chunk is not [item, work, seconds]");
    rep.chunks.push_back({c.items[0].text, c.items[1].number, c.items[2].number});
  }
  rep.peak_rss_mb = number("peak_rss_mb");
  rep.ops = static_cast<u64>(number("ops"));
  rep.failed = static_cast<u64>(number("failed"));
  rep.digest = text("digest");
  const scenario::JsonValue* values = doc.find("values");
  SAFEDM_CHECK_MSG(values && values->is_object(), "rep result lacks 'values'");
  for (const auto& [name, value] : values->members) {
    SAFEDM_CHECK_MSG(value.is_number(), "rep value '" << name << "' is not a number");
    rep.values[name] = value.number;
  }
  return rep;
}

}  // namespace safedm::e2e
