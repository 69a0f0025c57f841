// Parent side of safedm-e2e: spawns one child process per rep (closed
// loop, one rep in flight), aggregates their results, checks them, and
// renders the one-workload result line, the suite table and results JSON, and the
// --compare verdicts.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "e2e.hpp"
#include "safedm/scenario/json.hpp"

extern char** environ;

namespace safedm::e2e {
namespace {

constexpr unsigned kMinUntracedReps = 3;
/// Setup-only launches after each untraced rep: more setup_s samples at
/// the cost of one setup each.
constexpr unsigned kExtraSetups = 4;

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

scenario::JsonValue parse_file(const std::string& path) {
  try {
    return scenario::parse_json(read_file(path));
  } catch (const scenario::JsonParseError& e) {
    throw std::runtime_error(path + ":" + std::to_string(e.line) + ":" +
                             std::to_string(e.column) + ": " + e.message);
  }
}

const scenario::JsonValue& member(const scenario::JsonValue& v, const char* key,
                                  const std::string& where) {
  const scenario::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error(where + ": missing '" + key + "'");
  return *m;
}

/// One child rep: its parsed result plus when the parent launched it.
struct Launched {
  RepResult rep;
  double launch_s = 0;
  double end_s = 0;
};

/// Run this binary with `args`, wait for it, and return its exit code
/// (-1 when it could not start or did not exit normally) and stdout.
std::pair<int, std::string> run_child(const std::string& exe, std::vector<std::string> args) {
  args.insert(args.begin(), exe);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (rc == 0) {
    char buf[4096];
    while (true) {
      const ssize_t got = read(fds[0], buf, sizeof buf);
      if (got > 0) output.append(buf, static_cast<std::size_t>(got));
      else if (got == 0 || errno != EINTR) break;
    }
  }
  close(fds[0]);
  if (rc != 0) return {-1, ""};
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

std::string last_line(const std::string& text) {
  const std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  const std::size_t begin = text.rfind('\n', end);
  const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
  return text.substr(from, end + 1 - from);
}

/// Run one rep in a fresh process. A child that crashes, exits non-zero
/// or prints no result yields nullopt.
std::optional<Launched> spawn_rep(const RunnerOptions& ro, const RepOptions& o) {
  std::vector<std::string> args{"rep", "--workload", o.workload, "--seed", std::to_string(o.seed)};
  if (o.traced) args.push_back("--traced");
  if (o.quick) args.push_back("--quick");
  if (o.probes) args.push_back("--probes");
  if (o.setup_only) args.push_back("--setup-only");
  if (o.fault_pass >= 0) {
    args.push_back("--fault-pass");
    args.push_back(std::to_string(o.fault_pass));
  }
  if (!o.trace_dir.empty()) {
    args.push_back("--trace-dir");
    args.push_back(o.trace_dir);
  }
  Launched out;
  out.launch_s = now_s();
  const auto [code, output] = run_child(ro.self_exe, args);
  out.end_s = now_s();
  const std::string line = last_line(output);
  if (code != 0 || line.empty()) {
    std::fprintf(stderr, "safedm-e2e: %s rep failed (exit %d)\n", o.workload.c_str(), code);
    return std::nullopt;
  }
  out.rep = rep_from_json(line);
  return out;
}

/// Samples of every metric over a set of reps of one workload.
struct Aggregate {
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, std::vector<double>> samples;  // end-to-end and layer
  std::vector<Chunk> chunks;                           // of every untraced rep
  Values exact;
  std::string digest;  // campaign report hash; only untraced campaign reps have one

  /// Fold one rep in. Simulated counts and the campaign digest must match
  /// the earlier reps'; a rep that drifts counts all its ops as failed.
  void add(const Launched& l) {
    const RepResult& r = l.rep;
    if (!r.traced) samples["setup_s"].push_back(r.ready_s - l.launch_s);
    if (r.ops == 0) return;  // a setup-only launch
    attempted += r.ops;
    bool same = true;
    for (const auto& [name, value] : r.values) {
      const MetricDef* def = find_metric(name);
      if (def == nullptr) throw std::runtime_error("rep reported unknown metric " + name);
      // Layer metrics come from traced reps only; untraced ones are timed
      // without the per-call clocks.
      if (def->kind == MetricKind::kExact) {
        const auto it = exact.try_emplace(name, value).first;
        same = same && it->second == value;
      } else if (r.traced) {
        samples[name].push_back(value);
      }
    }
    if (!r.digest.empty()) {
      if (digest.empty()) digest = r.digest;
      same = same && r.digest == digest;
    }
    failed += same ? r.failed : r.ops;
    if (!r.traced) {
      samples["throughput_per_s"].push_back(throughput(r.chunks));
      samples["peak_rss_mb"].push_back(r.peak_rss_mb);
      chunks.insert(chunks.end(), r.chunks.begin(), r.chunks.end());
    }
  }

  /// A failed launch: one attempted op that failed.
  void add_crash() {
    ++attempted;
    ++failed;
  }

  /// The run's value of a metric. Throughput pools the chunks of every
  /// rep; its per-rep samples only give the quartiles.
  std::optional<double> value(const std::string& name) const {
    if (const auto it = exact.find(name); it != exact.end()) return it->second;
    if (name == "throughput_per_s" && !chunks.empty()) return throughput(chunks);
    if (const auto it = samples.find(name); it != samples.end() && !it->second.empty())
      return median(it->second);
    return std::nullopt;
  }
};

void print_result_line(const Aggregate& agg, const std::vector<SpecMetric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (agg.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << agg.attempted << ", \"failed\": " << agg.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const std::optional<double> v = agg.value(metrics[i].name);
    if (!v) throw std::runtime_error("no value for metric " + metrics[i].name);
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << fmt(*v)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

RepOptions rep_options(const RunnerOptions& ro, const std::string& workload, bool traced) {
  RepOptions o;
  o.workload = workload;
  o.seed = ro.seed;
  o.traced = traced;
  o.quick = ro.quick;
  o.fault_pass = ro.fault_pass;
  o.trace_dir = ro.trace_dir;
  return o;
}

/// One rep folded into `agg` (a failed launch counts as a failed op);
/// untraced reps are followed by setup-only launches. Returns the rep's
/// wall time, or nullopt when it failed.
std::optional<double> run_one(const RunnerOptions& ro, const RepOptions& o, Aggregate& agg) {
  const std::optional<Launched> l = spawn_rep(ro, o);
  if (!l) {
    agg.add_crash();
    return std::nullopt;
  }
  agg.add(*l);
  if (!o.traced) {
    RepOptions setup = o;
    setup.setup_only = true;
    for (unsigned i = 0; i < kExtraSetups; ++i)
      if (const std::optional<Launched> s = spawn_rep(ro, setup)) agg.add(*s);
  }
  return l->end_s - l->launch_s;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd: return "end_to_end";
    case MetricKind::kLayer: return "layer";
    case MetricKind::kExact: return "exact";
  }
  return "?";
}

/// Suite results of one workload, in catalog order.
struct WorkloadResult {
  std::string name;
  Aggregate agg;
};

void write_results(const std::string& path, u64 seed, unsigned rounds, bool quick,
                   const std::vector<WorkloadResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"schema\": \"safedm.bench.e2e/v1\", \"seed\": " << seed << ", \"rounds\": " << rounds
      << ", \"quick\": " << (quick ? "true" : "false") << ", \"workloads\": [\n";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    out << "  {\"name\": \"" << r.name << "\", \"attempted\": " << r.agg.attempted
        << ", \"failed\": " << r.agg.failed << ", \"metrics\": [\n";
    bool first = true;
    for (const MetricDef& def : metric_catalog()) {
      const std::optional<double> v = r.agg.value(def.name);
      if (!v) continue;
      out << (first ? "" : ",\n") << "    {\"name\": \"" << def.name << "\", \"unit\": \""
          << def.unit << "\", \"kind\": \"" << kind_name(def.kind) << "\"";
      first = false;
      if (def.kind == MetricKind::kExact) {
        out << ", \"value\": " << fmt(*v) << "}";
        continue;
      }
      const std::vector<double>& s = r.agg.samples.at(def.name);
      const auto [q1, q3] = quartiles(s);
      out << ", \"median\": " << fmt(*v) << ", \"q1\": " << fmt(q1) << ", \"q3\": " << fmt(q3)
          << ", \"n\": " << s.size() << ", \"samples\": [";
      for (std::size_t i = 0; i < s.size(); ++i) out << (i ? ", " : "") << fmt(s[i]);
      out << "]}";
    }
    out << "\n  ]}" << (w + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]}\n";
}

void print_table(const std::vector<WorkloadResult>& results) {
  std::printf("\n%-14s %-34s %-10s %14s %14s %14s %4s\n", "workload", "metric", "unit", "median",
              "q1", "q3", "n");
  for (const WorkloadResult& r : results) {
    for (const MetricDef& def : metric_catalog()) {
      const std::optional<double> v = r.agg.value(def.name);
      if (!v) continue;
      if (def.kind == MetricKind::kExact) {
        std::printf("%-14s %-34s %-10s %14.6g %14s %14s %4s\n", r.name.c_str(), def.name,
                    def.unit, *v, "exact", "", "");
        continue;
      }
      const std::vector<double>& s = r.agg.samples.at(def.name);
      const auto [q1, q3] = quartiles(s);
      std::printf("%-14s %-34s %-10s %14.6g %14.6g %14.6g %4zu\n", r.name.c_str(), def.name,
                  def.unit, *v, q1, q3, s.size());
    }
  }
  std::printf("\nwhere the host time goes (traced rep, share of traced wall time)\n");
  for (const WorkloadResult& r : results) {
    std::vector<std::pair<double, std::string>> shares;
    for (const char* layer : {"core", "bus", "safedm", "soc"})
      if (const auto v = r.agg.value(std::string(layer) + ".share")) shares.push_back({*v, layer});
    std::sort(shares.rbegin(), shares.rend());
    std::printf("  %-14s", r.name.c_str());
    for (const auto& [share, layer] : shares) std::printf("  %s %.3f", layer.c_str(), share);
    if (const auto v = r.agg.value("trace.overhead_frac"))
      std::printf("   (trace overhead %+.3f)", *v);
    std::printf("\n");
  }
}

std::string spec_kind_error(const SpecMetric& m, bool end_to_end) {
  const MetricDef* def = find_metric(m.name);
  if (def == nullptr) return "unknown metric " + m.name;
  if (m.unit != def->unit) return m.name + ": unit " + m.unit + " != " + def->unit;
  const bool is_e2e = def->kind == MetricKind::kEndToEnd;
  if (is_e2e != end_to_end) return m.name + ": listed in the wrong section";
  return "";
}

}  // namespace

const std::vector<MetricDef>& metric_catalog() {
  using K = MetricKind;
  static const std::vector<MetricDef> kCatalog{
      // end to end (untraced reps)
      {"throughput_per_s", "1/s", K::kEndToEnd},
      {"setup_s", "s", K::kEndToEnd},
      {"peak_rss_mb", "MB", K::kEndToEnd},
      {"ops_failed_frac", "ratio", K::kEndToEnd},
      // per layer (traced reps)
      {"core.step_ns_per_cycle", "ns", K::kLayer},
      {"core.share", "ratio", K::kLayer},
      {"bus.step_ns_per_cycle", "ns", K::kLayer},
      {"bus.share", "ratio", K::kLayer},
      {"safedm.observe_ns_per_cycle", "ns", K::kLayer},
      {"safedm.share", "ratio", K::kLayer},
      {"soc.loop_ns_per_cycle", "ns", K::kLayer},
      {"soc.share", "ratio", K::kLayer},
      {"safedm.calls_per_kcycle", "1/kcycle", K::kLayer},
      {"safedm.fast_path_frac", "ratio", K::kLayer},
      {"trace.overhead_frac", "ratio", K::kLayer},
      {"trace.clock_read_ns", "ns", K::kLayer},
      {"snapshot.save_us_p50", "us", K::kLayer},
      {"snapshot.restore_us_p50", "us", K::kLayer},
      {"snapshot.bytes", "B", K::kLayer},
      {"faultsim.reference_ms", "ms", K::kLayer},
      {"faultsim.inject_ms_p50", "ms", K::kLayer},
      {"faultsim.inject_ms_tail", "ms", K::kLayer},
      {"faultsim.inject_tail_pct", "%", K::kLayer},
      {"faultsim.inject_n", "count", K::kLayer},
      {"faultsim.engine_1t_injections_per_s", "1/s", K::kLayer},
      {"faultsim.parallel_efficiency", "ratio", K::kLayer},
      {"faultsim.merge_ms", "ms", K::kLayer},
      // exact simulated counts
      {"soc.sim_cycles", "cycles", K::kExact},
      {"core.committed", "count", K::kExact},
      {"core.ipc", "inst/cycle", K::kExact},
      {"core.mispredicts", "count", K::kExact},
      {"core.l1d_miss_stall_cycles", "cycles", K::kExact},
      {"core.l1i_miss_stall_cycles", "cycles", K::kExact},
      {"core.sb_full_stall_cycles", "cycles", K::kExact},
      {"core.raw_hazard_stall_cycles", "cycles", K::kExact},
      {"mem.l1d_misses", "count", K::kExact},
      {"mem.l1i_misses", "count", K::kExact},
      {"mem.sb_coalesced", "count", K::kExact},
      {"bus.grants", "count", K::kExact},
      {"bus.busy_frac", "ratio", K::kExact},
      {"bus.wait_cycles", "cycles", K::kExact},
      {"safedm.monitored_cycles", "cycles", K::kExact},
      {"safedm.nodiv_cycles", "cycles", K::kExact},
      {"safedm.zero_stag_cycles", "cycles", K::kExact},
      {"faultsim.injections", "count", K::kExact},
      {"faultsim.ccf_nodiv", "count", K::kExact},
      {"faultsim.ccf_diverse", "count", K::kExact},
  };
  return kCatalog;
}

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& def : metric_catalog())
    if (name == def.name) return &def;
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4;
  }
  return {q[0], q[1]};
}

double throughput(const std::vector<Chunk>& chunks) {
  struct Item {
    double work = 0;
    double fastest = 0;  // seconds per unit of work
  };
  std::map<std::string, Item> items;
  for (const Chunk& c : chunks) {
    Item& item = items[c.item];
    const double rate = c.seconds / c.work;
    item.fastest = item.work == 0 ? rate : std::min(item.fastest, rate);
    item.work += c.work;
  }
  double work = 0;
  double seconds = 0;
  for (const auto& [name, item] : items) {
    work += item.work;
    seconds += item.work * item.fastest;
  }
  return seconds > 0 ? work / seconds : 0;
}

Spec load_spec(const std::string& path) {
  const scenario::JsonValue doc = parse_file(path);
  Spec spec;
  const auto section = [&](const char* key, bool end_to_end, std::vector<SpecMetric>& out) {
    const scenario::JsonValue& list = member(doc, key, path);
    if (!list.is_array()) throw std::runtime_error(path + ": '" + key + "' is not an array");
    for (const scenario::JsonValue& item : list.items) {
      SpecMetric m;
      m.name = member(item, "name", path).text;
      m.unit = member(item, "unit", path).text;
      m.higher_is_better = member(item, "better", path).text == "higher";
      if (end_to_end) m.bound = member(item, "bound", path).number;
      const std::string error = spec_kind_error(m, end_to_end);
      if (!error.empty()) throw std::runtime_error(path + ": " + error);
      out.push_back(m);
    }
  };
  section("end_to_end", true, spec.end_to_end);
  section("per_layer", false, spec.per_layer);
  return spec;
}

int run_workload(const RunnerOptions& ro, const std::string& workload, double seconds,
                 bool trace) {
  const Spec spec = load_spec(ro.spec_path);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end())
    throw std::runtime_error("unknown workload '" + workload + "'");
  const double deadline = now_s() + seconds;
  const unsigned min_reps = trace ? 1 : kMinUntracedReps;
  Aggregate agg;
  unsigned launched = 0;
  unsigned succeeded = 0;
  // Closed loop: the next rep starts when the previous one has ended, and
  // no rep starts that would be expected to end past the deadline.
  while (true) {
    const std::optional<double> took = run_one(ro, rep_options(ro, workload, trace), agg);
    ++launched;
    if (took) ++succeeded;
    if (launched >= 2 * min_reps + 2 && succeeded == 0) break;
    if (succeeded >= min_reps && now_s() + took.value_or(0) > deadline) break;
  }
  if (succeeded == 0) {
    std::fprintf(stderr, "safedm-e2e: every %s rep failed\n", workload.c_str());
    return 1;
  }
  print_result_line(agg, trace ? spec.per_layer : spec.end_to_end);
  return agg.failed == 0 ? 0 : 1;
}

int run_suite(const RunnerOptions& ro, unsigned rounds, const std::string& out_path) {
  load_spec(ro.spec_path);  // fail early on a malformed BENCHMARK.json
  std::vector<WorkloadResult> results;
  for (const std::string& name : workload_names()) results.push_back({name, {}});
  const double start = now_s();
  // Interleave workloads within each round, so a burst of host noise is
  // spread over all of them instead of landing on one.
  for (unsigned round = 0; round < rounds; ++round) {
    for (WorkloadResult& r : results) {
      const bool ok = run_one(ro, rep_options(ro, r.name, false), r.agg).has_value();
      std::fprintf(stderr, "round %u/%u %-14s %s\n", round + 1, rounds, r.name.c_str(),
                   ok ? "ok" : "FAILED");
    }
  }
  for (WorkloadResult& r : results) {
    RepOptions o = rep_options(ro, r.name, true);
    o.probes = r.name == "campaign";
    const bool ok = run_one(ro, o, r.agg).has_value();
    std::fprintf(stderr, "traced   %-14s %s\n", r.name.c_str(), ok ? "ok" : "FAILED");
  }
  u64 failed = 0;
  for (WorkloadResult& r : results) {
    r.agg.samples["ops_failed_frac"].push_back(
        r.agg.attempted ? static_cast<double>(r.agg.failed) / static_cast<double>(r.agg.attempted)
                        : 1.0);
    failed += r.agg.failed;
  }
  print_table(results);
  write_results(out_path, ro.seed, rounds, ro.quick, results);
  std::printf("\nwrote %s (%.0f s)\nops_failed: %llu -> %s\n", out_path.c_str(), now_s() - start,
              static_cast<unsigned long long>(failed), failed == 0 ? "OK" : "FAILED");
  return failed == 0 ? 0 : 1;
}

namespace {

/// One metric of one workload from a results file.
struct ResultMetric {
  std::string unit;
  std::string kind;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::vector<double> samples;
};

using ResultFile = std::vector<std::pair<std::string, std::map<std::string, ResultMetric>>>;

ResultFile load_results(const std::string& path) {
  const scenario::JsonValue doc = parse_file(path);
  ResultFile out;
  for (const scenario::JsonValue& w : member(doc, "workloads", path).items) {
    std::map<std::string, ResultMetric> metrics;
    for (const scenario::JsonValue& m : member(w, "metrics", path).items) {
      ResultMetric r;
      r.unit = member(m, "unit", path).text;
      r.kind = member(m, "kind", path).text;
      if (r.kind == "exact") {
        r.median = r.q1 = r.q3 = member(m, "value", path).number;
      } else {
        r.median = member(m, "median", path).number;
        r.q1 = member(m, "q1", path).number;
        r.q3 = member(m, "q3", path).number;
        for (const scenario::JsonValue& s : member(m, "samples", path).items)
          r.samples.push_back(s.number);
      }
      metrics[member(m, "name", path).text] = r;
    }
    out.emplace_back(member(w, "name", path).text, std::move(metrics));
  }
  return out;
}

double spread(const ResultMetric& m) {
  return m.median != 0 ? (m.q3 - m.q1) / std::fabs(m.median) : 0;
}

}  // namespace

int run_compare(const std::string& spec_path, const std::string& a_path,
                const std::string& b_path) {
  const Spec spec = load_spec(spec_path);
  const ResultFile a = load_results(a_path);
  const ResultFile b = load_results(b_path);
  unsigned fails = 0;
  unsigned unresolved = 0;
  std::printf("%-14s %-34s %-10s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric", "unit",
              "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "bound", "verdict");
  for (const auto& [workload, am] : a) {
    const auto bw = std::find_if(b.begin(), b.end(),
                                 [&](const auto& entry) { return entry.first == workload; });
    if (bw == b.end()) {
      std::printf("%-14s missing from %s -> FAIL\n", workload.c_str(), b_path.c_str());
      ++fails;
      continue;
    }
    for (const auto& [name, ma] : am) {
      const auto it = bw->second.find(name);
      if (it == bw->second.end()) continue;
      const ResultMetric& mb = it->second;
      const double delta = ma.median != 0 ? (mb.median - ma.median) / std::fabs(ma.median) : 0;
      std::string verdict = "info";
      std::string bound_text = "-";
      if (ma.kind == "exact") {
        verdict = ma.median == mb.median ? "PASS" : "FAIL";
        bound_text = "exact";
      } else if (ma.kind == "end_to_end") {
        const auto sm = std::find_if(spec.end_to_end.begin(), spec.end_to_end.end(),
                                     [&](const SpecMetric& m) { return m.name == name; });
        if (sm == spec.end_to_end.end()) {
          // Not a bounded metric (ops_failed_frac): it must read zero.
          verdict = ma.median == 0 && mb.median == 0 ? "PASS" : "FAIL";
          bound_text = "=0";
        } else {
          char buf[16];
          std::snprintf(buf, sizeof buf, "%.2f", sm->bound);
          bound_text = buf;
          const double worse = sm->higher_is_better ? -delta : delta;
          const auto better_everywhere = [&] {
            for (const double x : mb.samples)
              for (const double y : ma.samples)
                if (sm->higher_is_better ? x <= y : x >= y) return false;
            return !mb.samples.empty();
          };
          if (std::max(spread(ma), spread(mb)) > sm->bound && !better_everywhere())
            verdict = "UNRESOLVED";
          else
            verdict = worse > sm->bound ? "FAIL" : "PASS";
        }
      }
      if (verdict == "FAIL") ++fails;
      if (verdict == "UNRESOLVED") ++unresolved;
      char qa[64], qb[64];
      std::snprintf(qa, sizeof qa, "[%.6g, %.6g]", ma.q1, ma.q3);
      std::snprintf(qb, sizeof qb, "[%.6g, %.6g]", mb.q1, mb.q3);
      std::printf("%-14s %-34s %-10s %12.6g %25s %12.6g %25s %+7.3f %6s  %s\n", workload.c_str(),
                  name.c_str(), ma.unit.c_str(), ma.median, qa, mb.median, qb, delta,
                  bound_text.c_str(), verdict.c_str());
    }
  }
  std::printf("\n%u failed, %u unresolved -> %s\n", fails, unresolved, fails ? "FAIL" : "PASS");
  return fails ? 1 : 0;
}

int run_selftest(const RunnerOptions& ro) {
  unsigned failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures;
  };
  const Spec spec = load_spec(ro.spec_path);  // throws on unit/kind disagreement
  check(true, "BENCHMARK.json metrics exist in the catalog with matching units");
  const std::string seed = std::to_string(ro.seed);

  // One-workload mode: every workload, both trace settings, carries exactly
  // the BENCHMARK.json metrics with their units and reports no failed op.
  for (const std::string& w : workload_names()) {
    for (const char* trace : {"0", "1"}) {
      const auto [code, out] =
          run_child(ro.self_exe, {"--workload", w, "--seed", seed, "--seconds", "1", "--trace",
                                  trace, "--quick", "--spec", ro.spec_path, "--trace-dir",
                                  ro.trace_dir});
      const std::vector<SpecMetric>& want =
          std::string(trace) == "1" ? spec.per_layer : spec.end_to_end;
      bool ok = code == 0;
      std::string why = "exit " + std::to_string(code);
      try {
        const scenario::JsonValue doc = scenario::parse_json(last_line(out));
        const scenario::JsonValue& metrics = member(doc, "metrics", "result line");
        ok = ok && member(doc, "correct", "result line").boolean &&
             member(doc, "failed", "result line").number == 0 &&
             member(doc, "attempted", "result line").number >= 1 &&
             metrics.members.size() == want.size() && doc.members.size() == 4;
        for (const SpecMetric& m : want) {
          const scenario::JsonValue* v = metrics.find(m.name);
          const bool has = v && v->find("value") && v->find("value")->is_number() &&
                           v->find("unit") && v->find("unit")->text == m.unit;
          if (!has) why += ", missing " + m.name;
          ok = ok && has;
        }
      } catch (...) {
        ok = false;
        why += ", unparsable result line";
      }
      check(ok, "--workload " + w + " --trace " + trace + " (" + why + ")");
    }
  }

  // The fault hook corrupts one pass's checksum in every rep: one failed
  // op per rep, and the run exits non-zero.
  {
    const auto [code, out] =
        run_child(ro.self_exe, {"--workload", "pair_table1", "--seed", seed, "--seconds", "1",
                                "--trace", "0", "--quick", "--fault-pass", "3", "--spec",
                                ro.spec_path, "--trace-dir", ro.trace_dir});
    bool ok = code == 1;
    try {
      const scenario::JsonValue doc = scenario::parse_json(last_line(out));
      constexpr u64 kPassesPerQuickRep = 29;  // the Table-I programs, one pass
      const u64 reps =
          static_cast<u64>(member(doc, "attempted", "result line").number) / kPassesPerQuickRep;
      ok = ok && !member(doc, "correct", "result line").boolean &&
           static_cast<u64>(member(doc, "failed", "result line").number) == reps;
    } catch (...) {
      ok = false;
    }
    check(ok, "fault hook: one corrupted pass per rep counts as one failed op");
  }

  // One quick suite round (traced reps must reproduce the untraced
  // counters), and its results compared with themselves.
  const std::string results =
      (std::filesystem::path(ro.trace_dir) / "selftest_results.json").string();
  check(run_child(ro.self_exe, {"--rounds", "1", "--quick", "--seed", seed, "--spec",
                                ro.spec_path, "--trace-dir", ro.trace_dir, "--out", results})
                .first == 0,
        "quick suite round: every pass correct, traced counts == untraced");
  check(run_child(ro.self_exe, {"--compare", results, results, "--spec", ro.spec_path}).first == 0,
        "--compare of a results file with itself passes");
  std::printf("%u failure(s)\n", failures);
  return failures ? 1 : 0;
}

}  // namespace safedm::e2e
