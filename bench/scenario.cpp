// E11 — JSON scenario runner: execute `safedm.scenario/v1` files (ROADMAP
// item 1) through the shared redundant-run harness, the fault-injection
// campaign engine, and the differential fuzz oracle, and gate on their
// `expect` assertions. The checked-in corpus lives in scenarios/ and runs
// in CI as the `scenario_smoke` test.
//
// Usage: bench_scenario [options] <path>...
//   <path>             a scenario .json file, or a directory executed as a
//                      corpus (every *.json inside, sorted, recursively);
//                      a file with "cells" runs each cell as a scenario and
//                      then prints one table row per cell
//   --check-only       parse + validate only; skip the simulations
//   --json=PATH        report path (default BENCH_scenario.json)
//   --export-fuzz=DIR  wrap every .fuzz input under DIR into a replayable
//                      scenario file (see TESTING.md "Scenario corpus")
//   --out=DIR          destination for --export-fuzz (default scenarios/fuzz)
//   --selftest DIR EXPECTED
//                      validator golden test (mirrors safedm-lint): run the
//                      schema over every fixture under DIR and diff the
//                      diagnostics against EXPECTED line-for-line
//   --update-golden    with --selftest: rewrite EXPECTED from the current
//                      diagnostics instead of diffing (review the diff!)
//
// Exit status: 0 all scenarios pass, 1 any assertion or validation
// failure, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "json_writer.hpp"
#include "safedm/fuzz/oracle.hpp"
#include "safedm/scenario/runner.hpp"

using namespace safedm;
namespace fs = std::filesystem;

namespace {

constexpr char kUsage[] =
    "usage: bench_scenario [--check-only] [--json=PATH] <path>...\n"
    "       bench_scenario --export-fuzz=DIR [--out=DIR]\n"
    "       bench_scenario --selftest DIR EXPECTED [--update-golden]\n";

/// Every *.json under `path` (itself, if it is a file), sorted so corpus
/// order — and therefore report order — is deterministic.
std::vector<fs::path> collect_scenarios(const fs::path& path) {
  std::vector<fs::path> files;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::recursive_directory_iterator(path))
      if (entry.is_regular_file() && entry.path().extension() == ".json")
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  return files;
}

/// The message part of a ScenarioError (what() minus its "file:line: "
/// prefix), for diagnostics that should carry a different path prefix.
std::string error_message(const scenario::ScenarioError& error) {
  const std::string what = error.what();
  const std::size_t prefix =
      error.file().size() + 1 + std::to_string(error.line()).size() + 2;
  return prefix <= what.size() ? what.substr(prefix) : what;
}

// ---- --selftest: validator golden diff (lint-style) ------------------------

/// Validate every fixture under `dir` and compare the emitted diagnostics
/// against the golden file: one `relpath:line: message` line per invalid
/// fixture, one `relpath: OK` line per valid one. Both directions of the
/// diff are errors, so a schema change that silences a diagnostic fails as
/// loudly as a new false positive. Golden lines starting with '#' are
/// comments.
int run_selftest(const fs::path& dir, const fs::path& expected_path, bool update_golden) {
  std::vector<std::string> produced;
  for (const fs::path& file : collect_scenarios(dir)) {
    const std::string rel = fs::relative(file, dir).generic_string();
    try {
      (void)scenario::load_scenario_file(file.string());
      produced.push_back(rel + ": OK");
    } catch (const scenario::ScenarioError& error) {
      produced.push_back(rel + ":" + std::to_string(error.line()) + ": " +
                         error_message(error));
    }
  }

  if (update_golden) {
    std::ofstream out(expected_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", expected_path.string().c_str());
      return 2;
    }
    out << "# Golden diagnostics for `bench_scenario --selftest` (the scenario_selftest\n"
           "# ctest). One line per fixture: `file:line: message` for an invalid\n"
           "# scenario, `file: OK` for a valid one. The diff runs in both directions —\n"
           "# a schema change that silences a diagnostic fails the same as a new false\n"
           "# positive. Regenerate with:\n"
           "#   build/bench/bench_scenario --selftest tests/scenario/fixtures \\\n"
           "#     tests/scenario/fixtures/expected.txt --update-golden\n";
    for (const std::string& line : produced) out << line << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", expected_path.string().c_str());
      return 2;
    }
    std::printf("scenario selftest: golden updated (%zu lines)\n", produced.size());
    return 0;
  }

  std::ifstream golden(expected_path);
  if (!golden) {
    std::fprintf(stderr, "cannot open %s\n", expected_path.string().c_str());
    return 2;
  }
  std::set<std::string> expected;
  for (std::string line; std::getline(golden, line);) {
    if (line.empty() || line[0] == '#') continue;
    expected.insert(line);
  }

  int failures = 0;
  for (const std::string& line : produced) {
    if (expected.erase(line) == 0) {
      std::printf("UNEXPECTED: %s\n", line.c_str());
      ++failures;
    }
  }
  for (const std::string& line : expected) {
    std::printf("MISSING: %s\n", line.c_str());
    ++failures;
  }
  if (failures == 0)
    std::printf("scenario selftest OK: %zu fixtures matched\n", produced.size());
  return failures == 0 ? 0 : 1;
}

// ---- --export-fuzz: corpus entry -> scenario file --------------------------

/// Wrap one serialized safedm-fuzz/v1 program into a scenario document.
/// The exported file is immediately re-validated through the normal
/// loader, so an export that would not replay fails here, not in CI.
int export_one(const fs::path& fuzz_file, const fs::path& out_dir) {
  std::ifstream in(fuzz_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", fuzz_file.string().c_str());
    return 1;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  while (!lines.empty() && lines.back().empty()) lines.pop_back();

  const std::string stem = fuzz_file.stem().string();
  bench::JsonWriter json;
  json.begin_object();
  json.prop("schema", scenario::kSchemaId);
  json.prop("name", "fuzz-" + stem);
  json.prop("description",
            "auto-exported fuzz repro: replays " + fuzz_file.filename().string() +
                " through the differential oracle stack");
  json.key("fuzz").begin_object();
  json.key("program").begin_array();
  for (const std::string& line : lines) json.value(line);
  json.end_array();
  json.end_object();
  json.end_object();

  const fs::path out_path = out_dir / ("fuzz_" + stem + ".json");
  if (!json.write_file(out_path.string())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.string().c_str());
    return 1;
  }
  try {
    (void)scenario::load_scenario_file(out_path.string());
  } catch (const scenario::ScenarioError& error) {
    std::fprintf(stderr, "exported scenario does not validate: %s\n", error.what());
    return 1;
  }
  std::printf("exported %s\n", out_path.string().c_str());
  return 0;
}

int run_export(const fs::path& corpus_dir, const fs::path& out_dir) {
  std::vector<fs::path> inputs;
  if (!fs::is_directory(corpus_dir)) {
    std::fprintf(stderr, "--export-fuzz: %s is not a directory\n",
                 corpus_dir.string().c_str());
    return 2;
  }
  for (const auto& entry : fs::directory_iterator(corpus_dir))
    if (entry.is_regular_file() && entry.path().extension() == ".fuzz")
      inputs.push_back(entry.path());
  std::sort(inputs.begin(), inputs.end());
  if (inputs.empty()) {
    std::fprintf(stderr, "--export-fuzz: no .fuzz inputs under %s\n",
                 corpus_dir.string().c_str());
    return 2;
  }
  fs::create_directories(out_dir);
  int failures = 0;
  for (const fs::path& input : inputs) failures += export_one(input, out_dir);
  return failures == 0 ? 0 : 1;
}

// ---- scenario execution ----------------------------------------------------

/// The one table printer: a row per cell, the cell's own keys first (the
/// union over the file's cells, in first-seen order), then the observed
/// run counters, with distance columns when the cells track distance.
void print_cell_table(const fs::path& file, const std::vector<scenario::Scenario>& cells,
                      const std::vector<scenario::ScenarioResult>& results) {
  std::vector<std::string> keys;
  for (const scenario::Scenario& cell : cells)
    for (const auto& [key, value] : cell.cell_keys)
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  bool distance = false;
  for (const scenario::Scenario& cell : cells) distance |= cell.monitor.track_distance;

  std::vector<std::string> header = keys;
  for (const char* counter : {"cycles", "zero_stag", "nodiv", "ds_match", "is_match",
                              "committed0"})
    header.emplace_back(counter);
  if (distance)
    for (const char* counter : {"distance_min", "distance_mean", "distance_max"})
      header.emplace_back(counter);

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<std::string> row;
    for (const std::string& key : keys) {
      std::string text = "-";
      for (const auto& [k, value] : cells[i].cell_keys)
        if (k == key) text = value;
      row.push_back(text);
    }
    const scenario::RunOutcome& out = results[i].outcome;
    const auto num = [&](u64 v) { return results[i].ran_redundant ? std::to_string(v) : "-"; };
    for (const u64 v : {out.cycles, out.zero_stag, out.nodiv, out.ds_match, out.is_match,
                        out.committed0})
      row.push_back(num(v));
    if (distance) {
      const bool tracked = results[i].ran_redundant && cells[i].monitor.track_distance;
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.1f",
                    out.monitored_cycles ? static_cast<double>(out.distance_sum) /
                                               static_cast<double>(out.monitored_cycles)
                                         : 0.0);
      row.push_back(tracked ? std::to_string(out.distance_min) : "-");
      row.push_back(tracked ? mean : "-");
      row.push_back(tracked ? std::to_string(out.distance_max) : "-");
    }
    rows.push_back(std::move(row));
  }

  std::vector<std::size_t> width(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    width[c] = header[c].size();
    for (const auto& row : rows) width[c] = std::max(width[c], row[c].size());
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      std::printf(c < keys.size() ? "%-*s " : " %*s", static_cast<int>(width[c]),
                  row[c].c_str());
    std::printf("\n");
  };
  std::printf("TABLE %s\n", file.string().c_str());
  print_row(header);
  for (const auto& row : rows) print_row(row);
}

void emit_result(bench::JsonWriter& json, const scenario::ScenarioResult& result) {
  json.begin_object();
  json.prop("name", result.name);
  json.prop("file", result.file);
  json.prop("passed", result.passed());
  if (result.ran_redundant) {
    const scenario::RunOutcome& out = result.outcome;
    json.key("run").begin_object();
    json.prop("completed", out.completed);
    json.prop("cycles", out.cycles);
    json.prop("monitored_cycles", out.monitored_cycles);
    json.prop("zero_stag", out.zero_stag);
    json.prop("nodiv", out.nodiv);
    json.prop("ds_match", out.ds_match);
    json.prop("is_match", out.is_match);
    json.prop("committed0", out.committed0);
    json.prop("committed1", out.committed1);
    if (out.distance_min != ~u64{0}) {  // set only by a run that tracked distance
      json.prop("distance_min", out.distance_min);
      json.prop("distance_max", out.distance_max);
      json.prop("distance_sum", out.distance_sum);
    }
    json.end_object();
  }
  if (result.ran_faults) {
    json.key("faults").begin_object();
    json.prop("injections", result.fault_report.injections);
    json.end_object();
  }
  if (result.ran_fuzz) {
    json.key("fuzz").begin_object();
    json.prop("verdict", fuzz::verdict_name(result.fuzz_verdict));
    if (!result.fuzz_detail.empty()) json.prop("detail", result.fuzz_detail);
    json.end_object();
  }
  json.key("checks").begin_array();
  for (const scenario::CheckResult& check : result.checks) {
    json.begin_object();
    json.prop("name", check.name);
    json.prop("pass", check.pass);
    if (!check.detail.empty()) json.prop("detail", check.detail);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_scenario.json";
  std::string export_dir, out_dir = "scenarios/fuzz";
  std::string selftest_dir, selftest_golden;
  bool check_only = false;
  bool selftest = false;
  bool update_golden = false;
  std::vector<fs::path> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check-only") == 0) {
      check_only = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--export-fuzz=", 14) == 0) {
      export_dir = arg + 14;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_dir = arg + 6;
    } else if (std::strcmp(arg, "--update-golden") == 0) {
      update_golden = true;
    } else if (std::strcmp(arg, "--selftest") == 0) {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--selftest needs a fixtures dir and a golden file\n%s", kUsage);
        return 2;
      }
      selftest = true;
      selftest_dir = argv[++i];
      selftest_golden = argv[++i];
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n%s", arg, kUsage);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }

  if (selftest) return run_selftest(selftest_dir, selftest_golden, update_golden);
  if (!export_dir.empty()) return run_export(export_dir, out_dir);
  if (paths.empty()) {
    std::fprintf(stderr, "no scenario paths given\n%s", kUsage);
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& path : paths) {
    if (!fs::exists(path)) {
      std::fprintf(stderr, "no such file or directory: %s\n", path.string().c_str());
      return 2;
    }
    for (fs::path& file : collect_scenarios(path)) files.push_back(std::move(file));
  }
  if (files.empty()) {
    std::fprintf(stderr, "no *.json scenarios found\n");
    return 2;
  }

  unsigned failed = 0;
  std::size_t total = 0;
  std::vector<scenario::ScenarioResult> results;
  for (const fs::path& file : files) {
    std::vector<scenario::Scenario> scns;
    try {
      scns = scenario::load_scenario_file(file.string());
    } catch (const scenario::ScenarioError& error) {
      std::fprintf(stderr, "%s\n", error.what());
      ++failed;
      ++total;
      continue;
    }
    total += scns.size();
    if (check_only) {
      for (const scenario::Scenario& scn : scns)
        std::printf("OK %s (%s)\n", scn.name.c_str(), file.string().c_str());
      continue;
    }
    // A file's cells are independent runs; they share the simulation pool
    // (nested sweeps run inline) and report in cell order.
    std::vector<scenario::ScenarioResult> file_results(scns.size());
    scenario::shared_pool().parallel_for(scns.size(), [&](std::size_t i) {
      file_results[i] = scenario::run_scenario(scns[i]);
    });
    for (const scenario::ScenarioResult& result : file_results) {
      std::printf("SCENARIO %s (%s)\n", result.name.c_str(), file.string().c_str());
      for (const scenario::CheckResult& check : result.checks)
        std::printf("  %s %s%s%s\n", check.pass ? "PASS" : "FAIL", check.name.c_str(),
                    check.detail.empty() ? "" : ": ", check.detail.c_str());
      if (!result.passed()) ++failed;
    }
    if (std::any_of(scns.begin(), scns.end(),
                    [](const scenario::Scenario& scn) { return !scn.cell_keys.empty(); }))
      print_cell_table(file, scns, file_results);
    std::fflush(stdout);
    for (scenario::ScenarioResult& result : file_results) results.push_back(std::move(result));
  }

  if (!check_only) {
    bench::JsonWriter json;
    json.begin_object();
    json.prop("schema", "safedm.bench.scenario/v1");
    json.prop("total", results.size());
    json.prop("failed", failed);
    json.key("scenarios").begin_array();
    for (const scenario::ScenarioResult& result : results) emit_result(json, result);
    json.end_array();
    json.end_object();
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (failed != 0) {
    std::fprintf(stderr, "%u of %zu scenarios failed\n", failed, total);
    return 1;
  }
  std::printf("all %zu scenarios passed\n", total);
  return 0;
}
