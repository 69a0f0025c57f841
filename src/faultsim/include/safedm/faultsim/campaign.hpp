// Parallel, deterministic fault-injection campaign engine.
//
// The one campaign API over the faultsim.hpp injection primitives. The
// full injection space (workload × injection cycle × register × bit, for
// both the identical-CCF and the single-fault model) is enumerated up
// front into a flat site list, fanned out over a ThreadPool, and
// aggregated *by site index* afterwards — so the report is bit-identical
// regardless of thread count or completion order. Every
// random decision (cycle sampling, single-fault target core) derives from
// `hash(seed, workload, site)`, never from shared-RNG draw order.
//
// Per injection the engine records the 5-way `Outcome` plus the detection
// latency (cycles from injection to the first result divergence, trap, or
// watchdog expiry), aggregated into `safedm::Histogram`s per verdict
// class. Per-workload CCF rates carry Wilson 95% confidence intervals so
// the "no-diversity cycles are where redundancy stops protecting" claim
// (paper Section III-B) is tested with error bars, not bare counts.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "safedm/common/histogram.hpp"
#include "safedm/faultsim/faultsim.hpp"

namespace safedm {
class StateReader;
class StateWriter;
class ThreadPool;
}  // namespace safedm

namespace safedm::faultsim {

/// How an injection run reaches its injection cycle.
enum class InjectionEngine : u8 {
  kReplay,      // simulate from cycle zero every time (historical engine)
  kCheckpoint,  // fork from the nearest reference-run checkpoint
};

/// Deterministic campaign partition (the fleet layer, ROADMAP item 3).
/// Shard `index` of `count` owns exactly the sites whose per-site seed
/// hash is ≡ index (mod count). The assignment depends only on the
/// campaign seed and the site coordinates — never on thread count,
/// engine, or enumeration batching — so the same site lands on the same
/// shard on every machine, and the union over shards is the full space.
struct ShardSpec {
  u32 index = 0;  // 0-based
  u32 count = 1;  // 1 = the whole campaign (no sharding)
};

struct EngineConfig {
  std::vector<std::string> workloads{"bitcount", "cubic", "md5", "quicksort"};
  unsigned scale = 1;               // workload input scale (see workloads.hpp)
  unsigned samples_per_class = 12;  // injection cycles sampled per verdict class
  std::vector<u8> registers{6, 9, 18};    // t1, s1, s2: live in most workloads
  std::vector<unsigned> bits{2, 17, 40};  // low / mid / high bit of the register
  u64 seed = 1;
  unsigned threads = 0;             // worker count; 0 = hardware concurrency
  bool single_fault = true;         // also run the single-fault control model
  monitor::SafeDmConfig dm{};
  // Like `threads`, the engine choice is a pure performance knob: reports
  // are bit-identical across engines and intervals, and neither is echoed
  // into the JSON.
  InjectionEngine engine = InjectionEngine::kCheckpoint;
  u64 checkpoint_interval = 0;      // cycles between checkpoints; 0 = auto
  // With count > 1, run_engine aggregates only this shard's slice of the
  // site space (reference runs and pools stay campaign-global). The JSON
  // then covers the slice; the canonical full report comes from merging
  // all shard logs (see shard.hpp / tools/merge).
  ShardSpec shard{};
};

/// Wilson score interval for a binomial proportion (default z: 95%).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval wilson_interval(u64 successes, u64 trials, double z = 1.959964);

/// Outcome counts + detection-latency histogram for one injection class.
struct ClassAggregate {
  u64 counts[5] = {};  // indexed by Outcome
  Histogram latency = Histogram::exponential(24);  // detectable outcomes only

  u64 total() const;
  u64 count(Outcome outcome) const { return counts[static_cast<int>(outcome)]; }
  double ccf_rate() const;
  Interval ccf_interval() const { return wilson_interval(count(Outcome::kCcf), total()); }
  void add(const InjectionResult& result);

  /// Fold another aggregate (a shard partial) into this one. Outcome
  /// counts add; the latency histogram folds with the saturating
  /// `Histogram::merge`, so folding partials in any order or grouping
  /// matches adding every injection to one aggregate byte-for-byte.
  void merge(const ClassAggregate& other);

  /// Shard-log serialization ("CAGG" section): outcome counts + latency
  /// histogram, the per-class payload of a streamed partial record.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);
};

struct WorkloadReport {
  std::string name;
  u64 reference_cycles = 0;
  u64 diverse_pool = 0;  // candidate injection cycles SafeDM called diverse
  u64 nodiv_pool = 0;    // ... and lacking diversity
  // Identical-double-fault model, split by SafeDM's verdict at the
  // injection cycle: [0] = diverse, [1] = no-diversity.
  ClassAggregate identical[2];
  // Single-fault control model (all sites, verdict-independent).
  ClassAggregate single;
  u64 injections = 0;
};

struct EngineReport {
  EngineConfig config;
  std::vector<WorkloadReport> workloads;
  u64 injections = 0;
};

/// Deterministic per-site seed: identical for a given (campaign seed,
/// workload name, site coordinates) no matter which thread runs the site.
u64 injection_seed(u64 seed, std::string_view workload, u64 cycle, u8 reg, unsigned bit,
                   bool single_fault);

/// Run the full campaign. Invalid registers/bits are dropped (with a
/// warning) before enumeration; unknown workload names throw CheckError.
EngineReport run_engine(const EngineConfig& config);

/// JSON report (`schema: safedm.bench.faultsim/v1`). The thread count is
/// deliberately NOT echoed so reports from different `--threads` values
/// are byte-comparable.
void write_report_json(const EngineReport& report, std::ostream& os);
std::string report_to_json(const EngineReport& report);

}  // namespace safedm::faultsim
