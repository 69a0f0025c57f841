// safedm-e2e: end-to-end benchmark of the SoC + SafeDM simulator and the
// fault-campaign engine (see README.md next to this file).
//
// A run is split across processes: the parent (runner.cpp) spawns one
// child per rep, closed loop, and aggregates; each child (rep.cpp) builds
// its inputs, times one rep of one workload, checks its outputs, and
// prints one JSON line. Host timers only ever feed the metrics, never any
// simulated state.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "safedm/common/bits.hpp"

namespace safedm::e2e {

/// The benchmark's workloads, in the order a suite round runs them.
const std::vector<std::string>& workload_names();

enum class MetricKind : u8 {
  kEndToEnd,  // measured on untraced reps; medians + quartiles over reps
  kLayer,     // measured on traced reps only
  kExact,     // simulated counts: identical across reps of one seed
};

struct MetricDef {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark can report. BENCHMARK.json selects which
/// ones the one-workload result line carries; its units must match these.
const std::vector<MetricDef>& metric_catalog();
const MetricDef* find_metric(const std::string& name);

/// Metric name -> value; std::map keeps JSON output in a fixed order.
using Values = std::map<std::string, double>;

/// One timed unit of an untraced rep: a program pass (work = simulated
/// cycles) or a whole campaign (work = injections).
struct Chunk {
  std::string item;  // program name, or "campaign"
  double work = 0;
  double seconds = 0;
};

/// What one rep process reports to its parent.
struct RepResult {
  std::string workload;
  bool traced = false;
  double ready_s = 0;         // now_s() at the first timed operation
  std::vector<Chunk> chunks;  // untraced reps only
  double peak_rss_mb = 0;
  u64 ops = 0;             // program passes, 1 per campaign rep, 0 if setup only
  u64 failed = 0;
  std::string digest;      // campaign report bytes hash ("" for SoC workloads)
  Values values;           // exact counts and (traced) layer metrics
};

struct RepOptions {
  std::string workload;
  u64 seed = 1;
  bool traced = false;
  bool quick = false;       // smoke-test sizes
  bool probes = false;      // traced campaign: also run the faultsim probes
  bool setup_only = false;  // stop at the first timed operation (setup_s samples)
  int fault_pass = -1;      // test hook: corrupt this pass's result checksum
  std::string trace_dir;    // where traced reps write trace_<workload>.json
};

/// Child side: run one rep in this process (rep.cpp).
RepResult run_rep(const RepOptions& options);
std::string rep_to_json(const RepResult& rep);
RepResult rep_from_json(const std::string& line);

/// Seconds on the monotonic clock shared by every process on the host.
double now_s();

// ---- parent side (runner.cpp) ----------------------------------------------

struct SpecMetric {
  std::string name;
  std::string unit;
  bool higher_is_better = true;
  double bound = 0;  // end-to-end only
};

/// The metric selection and bounds declared in BENCHMARK.json.
struct Spec {
  std::vector<SpecMetric> end_to_end;
  std::vector<SpecMetric> per_layer;
};
Spec load_spec(const std::string& path);

struct RunnerOptions {
  std::string self_exe;    // this binary, re-executed for each rep
  std::string spec_path;   // BENCHMARK.json
  std::string trace_dir;   // build/e2e
  u64 seed = 1;
  bool quick = false;
  int fault_pass = -1;
};

/// One-workload mode: reps for `seconds`; the last stdout line is the
/// result JSON object. Returns the process exit code.
int run_workload(const RunnerOptions& options, const std::string& workload, double seconds,
                 bool trace);

/// Suite mode: `rounds` interleaved rounds of every workload plus one
/// traced rep each; prints the table and writes the results JSON.
int run_suite(const RunnerOptions& options, unsigned rounds, const std::string& out_path);

/// `--compare A.json B.json`: per workload x metric verdicts.
int run_compare(const std::string& spec_path, const std::string& a_path,
                const std::string& b_path);

/// Self-test: quick suite, metric/unit coverage, and the fault hook.
int run_selftest(const RunnerOptions& options);

// ---- statistics (runner.cpp) -----------------------------------------------

double median(std::vector<double> values);
/// First and third quartiles, as Python's statistics.quantiles(n=4)
/// (exclusive method) computes them; a single value is its own quartiles.
std::pair<double, double> quartiles(std::vector<double> values);

/// Work per host second over `chunks`: the total work over the time it
/// takes at each item's fastest seconds per unit of work. Contention from
/// other tenants of the host only ever slows a chunk, so the fastest one
/// tracks the program while the median tracks the neighbours.
double throughput(const std::vector<Chunk>& chunks);

}  // namespace safedm::e2e
