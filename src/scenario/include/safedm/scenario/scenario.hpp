// The `safedm.scenario/v1` declarative scenario schema (ROADMAP item 1,
// loadbench-style): one JSON file composes everything the per-experiment
// C++ bench drivers used to hard-wire — workload selection, address-space
// decorrelation, SafeDE staggering enforcement, SafeDM monitor geometry,
// a fault-injection campaign spec (reusing `src/faultsim` configs), an
// inline fuzz-repro replay, and *expected-verdict assertions* over the
// results. Adding an evaluation scenario is a data PR, not a C++ PR.
//
// Parsing is strict: unknown keys, wrong types, and out-of-range values
// are each a single `file:line:`-prefixed diagnostic (ScenarioError), so
// a typo'd scenario fails loudly in CI instead of silently asserting
// nothing. The reference documentation, with a worked Table-1 example,
// lives in EXPERIMENTS.md ("Scenario DSL").
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "safedm/faultsim/campaign.hpp"
#include "safedm/safede/safede.hpp"
#include "safedm/safedm/config.hpp"
#include "safedm/scenario/json.hpp"

namespace safedm::scenario {

inline constexpr const char* kSchemaId = "safedm.scenario/v1";

/// Schema violation: `what()` is the full `file:line: message` diagnostic.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(std::string file, unsigned line, const std::string& message)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " + message),
        file_(std::move(file)),
        line_(line) {}

  const std::string& file() const { return file_; }
  unsigned line() const { return line_; }

 private:
  std::string file_;
  unsigned line_;
};

/// `"monitor"` — SafeDM geometry and reporting (paper Section III-B).
struct MonitorSpec {
  unsigned ports = 4;   // m: monitored register-file ports, 1..6
  unsigned depth = 8;   // n: data-FIFO depth in cycles, 1..1024
  monitor::IsMode is_mode = monitor::IsMode::kPerStage;       // "per_stage" | "flat"
  monitor::CompareMode compare = monitor::CompareMode::kRaw;  // "raw" | "crc32"
  monitor::ReportMode report = monitor::ReportMode::kPollOnly;
  // "poll" | "interrupt_first" | "interrupt_threshold"
  u32 interrupt_threshold = 1;
  bool track_distance = false;

  monitor::SafeDmConfig to_config() const;
};

/// `"soc"` — platform geometry, notably the address-space decorrelation
/// sources the paper calls natural diversity (Section V-C / ablation A3).
struct SocSpec {
  bool shared_data = false;   // true = ablation: the pair shares one data segment
  u64 data_base1 = 0;         // core 1's data segment base; 0 = platform default
  u64 text_stride = 0;        // per-pair code segment spacing; 0 = platform default
  unsigned observer_batch = 0;  // monitor delivery batch; 0 = runner default
};

/// One entry of `"group.replica"`: a replica's decorrelation transforms
/// plus optional structural-heterogeneity overrides. Absent keys keep the
/// platform-default (homogeneous, non-decorrelated) replica.
struct GroupReplicaSpec {
  u64 text_offset = 0;       // image placement inside the group text window
  u64 data_offset = 0;       // added to the replica's data segment base
  u64 stack_offset = 0;      // added to the computed stack top
  u32 reg_shuffle_seed = 0;  // register-allocation shuffle; 0 = identity

  // Structural overrides (each replaces one knob of the platform core):
  std::optional<unsigned> store_buffer_entries;
  std::optional<unsigned> l1i_kb;
  std::optional<unsigned> l1d_kb;
  std::optional<unsigned> bht_entries;
  std::optional<unsigned> btb_entries;
  std::optional<unsigned> mul_latency;
  std::optional<unsigned> div_latency;

  bool structural() const {
    return store_buffer_entries || l1i_kb || l1d_kb || bht_entries || btb_entries ||
           mul_latency || div_latency;
  }
};

/// `"group"` — N-replica redundancy-group topology and the monitor's
/// verdict policy. Absent means the paper's homogeneous 2-replica pair.
struct GroupSection {
  unsigned replicas = 2;  // 2..8
  monitor::VerdictPolicy policy = monitor::VerdictPolicy::kAnyPair;
  // "any_pair" | "all_pairs" | "quorum"
  unsigned quorum_k = 1;  // for "quorum": matched pairs needed, 1..C(n,2)
  std::vector<GroupReplicaSpec> replica;  // at most `replicas` entries;
                                          // missing tail entries are default
};

/// `"run.safede"` — SafeDE-style staggering enforcement (presence enables it).
struct SafeDeSpec {
  unsigned head_core = 0;    // 0 | 1
  i64 min_staggering = 100;  // committed-instruction distance to enforce

  safede::SafeDeConfig to_config() const;
};

/// `"run"` — one redundant execution of a registry workload.
struct RunSection {
  std::string workload;      // required; must name a registry benchmark
  unsigned scale = 1;        // workload input scale, 1..1024
  unsigned stagger_nops = 0;     // nop prelude on the delayed core
  unsigned delayed_core = 1;     // which core gets the prelude, 0 | 1
  u64 max_cycles = 20'000'000;   // watchdog budget
  bool sweep = true;         // max over platform variants (bench/table1 style)
  std::optional<SafeDeSpec> safede;
};

/// `"faults"` — fault-injection campaign over the run's workload,
/// lowered onto `faultsim::EngineConfig` (paper Section III-B premise).
struct FaultSection {
  unsigned samples_per_class = 4;         // injection cycles per verdict class
  std::vector<u8> registers{6, 9, 18};    // each 1..31 (x0 is not injectable)
  std::vector<unsigned> bits{2, 17, 40};  // each 0..63
  u64 seed = 1;
  bool single_fault = true;               // also run the single-fault control
  faultsim::InjectionEngine engine = faultsim::InjectionEngine::kCheckpoint;
  faultsim::ShardSpec shard{};            // "shard": {"index": i, "count": n}
};

/// `"fuzz"` — replay one inline `safedm-fuzz/v1` program through the full
/// differential oracle stack (how minimized repros from `tests/corpus/`
/// become scenarios; see TESTING.md "Scenario corpus").
struct FuzzSection {
  std::string program;       // the serialized program, lines joined by \n
  u64 max_cycles = 2'000'000;
};

/// Inclusive bound over a counter; absent sides are unchecked.
struct Bound {
  std::optional<u64> min;
  std::optional<u64> max;

  bool trivial() const { return !min && !max; }
};

/// `"expect"` — the assertions that make a scenario a test.
struct ExpectSection {
  std::optional<bool> completed;       // default: a run must halt in budget
  // "counters": SafeDM counter bounds after the run.
  Bound zero_stag;
  Bound nodiv;
  Bound ds_match;
  Bound is_match;
  Bound monitored;
  // Diversity-magnitude bounds (require "monitor.track_distance": true).
  // distance_min is the run's smallest per-cycle group distance — for an
  // N-replica group, the minimum *pairwise* distance, i.e. the weakest
  // link of the diversity matrix.
  Bound distance_min;
  Bound distance_max;
  std::optional<bool> nodiv_le_zero_stag;  // the paper's shape invariant
  // "faults": CCF-classification assertions over the campaign report.
  std::optional<u64> single_fault_ccf_max;   // usually 0: redundancy holds
  std::optional<bool> nodiv_ccf_ge_diverse;  // Section III-B ordering claim
  std::optional<double> ccf_rate_max;        // over all identical-fault sites
  std::optional<bool> latency_sane;          // detection-latency histogram sanity
};

struct Scenario {
  std::string file;  // source path, used in diagnostics and reports
  std::string name;
  std::string description;
  MonitorSpec monitor;
  SocSpec soc;
  std::optional<GroupSection> group;
  std::optional<RunSection> run;
  std::optional<FaultSection> faults;  // requires `run` (its workload)
  std::optional<FuzzSection> fuzz;
  ExpectSection expect;
  /// For a scenario made from one of a file's "cells": that cell's own
  /// leaf keys outside `expect`, as (dotted path, value text) in source
  /// order. Empty for a single-scenario file.
  std::vector<std::pair<std::string, std::string>> cell_keys;
};

/// Lower a parsed JSON document into a validated Scenario. `file` is only
/// used to prefix diagnostics. Throws ScenarioError on the first
/// violation (one diagnostic per invocation, lint-style).
Scenario parse_scenario(const JsonValue& root, const std::string& file);

/// Lower a whole file. Without "cells" that is the one scenario
/// parse_scenario makes. With "cells" (a non-empty array of partial
/// scenario objects) it is one scenario per cell: the document minus
/// "cells", with the cell deep-merged over it (objects merge member by
/// member, arrays and scalars replace), lowered by parse_scenario and
/// named `<name>[<i>]`. A cell may not set "schema", "name" or "cells".
/// Merged values keep their source lines, so a bad value in a cell is
/// reported at the cell's line.
std::vector<Scenario> parse_scenarios(const JsonValue& root, const std::string& file);

/// Read + parse + validate one scenario file (see parse_scenarios). JSON
/// syntax errors are reported through the same ScenarioError channel as
/// schema errors.
std::vector<Scenario> load_scenario_file(const std::string& path);

}  // namespace safedm::scenario
