// safedm.scenario/v1 schema validation: the negative paths each raise
// exactly one ScenarioError whose what() is a single `file:line: message`
// diagnostic pointing at the offending value, and the positive path
// lowers every section onto the right engine configs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "safedm/scenario/scenario.hpp"

namespace safedm::scenario {
namespace {

Scenario parse(const std::string& text) {
  return parse_scenario(parse_json(text), "test.json");
}

/// The negative-path contract: one ScenarioError, whose message is one
/// line, prefixed `test.json:<line>:`, containing `needle`.
void expect_diag(const std::string& text, unsigned line, const std::string& needle) {
  try {
    (void)parse_scenarios(parse_json(text), "test.json");
    FAIL() << "accepted: " << text;
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.line(), line) << what;
    EXPECT_EQ(what.rfind("test.json:" + std::to_string(line) + ": ", 0), 0u) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << "multi-line diagnostic: " << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

constexpr char kMinimal[] = R"({
  "schema": "safedm.scenario/v1",
  "name": "minimal",
  "run": { "workload": "bitcount" }
})";

TEST(Schema, AcceptsMinimalScenario) {
  const Scenario s = parse(kMinimal);
  EXPECT_EQ(s.name, "minimal");
  ASSERT_TRUE(s.run.has_value());
  EXPECT_EQ(s.run->workload, "bitcount");
  EXPECT_TRUE(s.run->sweep);
  EXPECT_FALSE(s.faults);
  EXPECT_FALSE(s.fuzz);
}

TEST(Schema, LowersMonitorSpec) {
  const Scenario s = parse(R"({
    "schema": "safedm.scenario/v1",
    "name": "mon",
    "monitor": { "ports": 2, "depth": 32, "is_mode": "flat", "compare": "crc32",
                 "report": "interrupt_threshold", "interrupt_threshold": 5,
                 "track_distance": true },
    "run": { "workload": "cubic", "scale": 2, "stagger_nops": 100 }
  })");
  const monitor::SafeDmConfig dm = s.monitor.to_config();
  EXPECT_EQ(dm.num_ports, 2u);
  EXPECT_EQ(dm.data_fifo_depth, 32u);
  EXPECT_EQ(dm.is_mode, monitor::IsMode::kFlatList);
  EXPECT_EQ(dm.compare, monitor::CompareMode::kCrc32);
  EXPECT_EQ(dm.report, monitor::ReportMode::kInterruptThreshold);
  EXPECT_EQ(dm.interrupt_threshold, 5u);
  EXPECT_TRUE(dm.track_distance);
}

TEST(Schema, LowersSafeDeSpec) {
  const Scenario s = parse(R"({
    "schema": "safedm.scenario/v1",
    "name": "de",
    "run": { "workload": "bitcount",
             "safede": { "head_core": 1, "min_staggering": 250 } }
  })");
  ASSERT_TRUE(s.run->safede.has_value());
  const safede::SafeDeConfig de = s.run->safede->to_config();
  EXPECT_EQ(de.head_core, 1u);
  EXPECT_EQ(de.min_staggering, 250);
  EXPECT_TRUE(de.enabled);
}

TEST(Schema, BareNumberBoundMeansExactlyEqual) {
  const Scenario s = parse(R"({
    "schema": "safedm.scenario/v1",
    "name": "b",
    "run": { "workload": "bitcount" },
    "expect": { "counters": { "zero_stag": 110, "nodiv": { "min": 1, "max": 20 } } }
  })");
  EXPECT_EQ(s.expect.zero_stag.min, 110u);
  EXPECT_EQ(s.expect.zero_stag.max, 110u);
  EXPECT_EQ(s.expect.nodiv.min, 1u);
  EXPECT_EQ(s.expect.nodiv.max, 20u);
}

// ---- negative paths --------------------------------------------------------

TEST(Schema, RejectsUnknownTopLevelKey) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "runs": 3
})", 5, "unknown key \"runs\"");
}

TEST(Schema, RejectsUnknownKeyInSection) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount",
           "stagger": 100 }
})", 5, "unknown key \"stagger\" in \"run\"");
}

TEST(Schema, RejectsWrongType) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount", "scale": "big" }
})", 4, "\"run.scale\" must be an integer, got string");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": 7 }
})", 4, "\"run.workload\" must be a string, got number");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": "bitcount"
})", 4, "\"run\" must be an object, got string");
}

TEST(Schema, RejectsNonIntegerNumbers) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount", "scale": 1.5 }
})", 4, "non-negative integer");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount", "max_cycles": 1e6 }
})", 4, "non-negative integer");
}

TEST(Schema, RejectsOutOfRangePortsAndDepth) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "monitor": { "ports": 7 },
  "run": { "workload": "bitcount" }
})", 4, "\"monitor.ports\" must be in [1, 6], got 7");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "monitor": { "depth": 0 },
  "run": { "workload": "bitcount" }
})", 4, "\"monitor.depth\" must be in [1, 1024], got 0");
}

TEST(Schema, RejectsMissingWorkload) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "scale": 2 }
})", 4, "missing required key \"workload\"");
}

TEST(Schema, RejectsUnknownWorkload) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "doom" }
})", 4, "\"doom\" is not a registry benchmark");
}

TEST(Schema, RejectsOutOfRangeFaultRegisters) {
  // The same x0/wrap hazard the CLI fix covers: register 32+ and bit 64+
  // must die in validation, never wrap into a campaign config.
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "faults": { "registers": [6, 256] }
})", 5, "\"faults.registers\" entry must be in [1, 31], got 256");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "faults": { "bits": [64] }
})", 5, "\"faults.bits\" entry must be in [0, 63], got 64");
}

TEST(Schema, RejectsFaultsWithoutRun) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "fuzz": { "program": ["safedm-fuzz/v1", "gen_seed 1", "data_seed 1",
                        "data_words 16", "block 1 0 0"] },
  "faults": { "seed": 1 }
})", 6, "\"faults\" requires a \"run\" section");
}

TEST(Schema, RejectsBadSchemaIdAndName) {
  expect_diag(R"({
  "schema": "safedm.scenario/v2",
  "name": "x",
  "run": { "workload": "bitcount" }
})", 2, "unsupported schema");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "bad name!",
  "run": { "workload": "bitcount" }
})", 3, "\"name\" must be 1-128 chars");
}

TEST(Schema, RejectsEmptyAndInvertedBounds) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "expect": { "counters": { "nodiv": {} } }
})", 5, "empty bound");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "expect": { "counters": { "nodiv": { "min": 5, "max": 1 } } }
})", 5, "min exceeds max");
}

TEST(Schema, RejectsInvalidFuzzProgram) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "fuzz": { "program": ["not-a-fuzz-program"] }
})", 4, "not a valid safedm-fuzz/v1 program");
}

TEST(Schema, RejectsFaultsWithSettingsTheRigIgnores) {
  // The campaign rig is the default platform with synchronized starts, so
  // each of these would silently pin a campaign the scenario did not ask
  // for.
  const auto with = [](const std::string& soc, const std::string& run) {
    return R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "soc": { )" + soc + R"( },
  "run": { "workload": "bitcount")" + run + R"( },
  "faults": { "seed": 1 }
})";
  };
  expect_diag(with(R"("shared_data": false)", ""), 4, "drop \"soc.shared_data\"");
  expect_diag(with(R"("data_base1": 8192)", ""), 4, "drop \"soc.data_base1\"");
  expect_diag(with(R"("text_stride": 8192)", ""), 4, "drop \"soc.text_stride\"");
  expect_diag(with("", R"(, "stagger_nops": 100)"), 5, "drop \"run.stagger_nops\"");
  expect_diag(with("", R"(, "safede": {})"), 5, "drop \"run.safede\"");
  // What the rig does honour stays accepted: a zero stagger, the batch.
  const Scenario ok = parse(with(R"("observer_batch": 8)", R"(, "stagger_nops": 0)"));
  EXPECT_TRUE(ok.faults.has_value());
}

// ---- "cells": one file, many scenarios --------------------------------------

std::vector<Scenario> parse_cells(const std::string& text) {
  return parse_scenarios(parse_json(text), "test.json");
}

TEST(Cells, FileWithoutCellsIsOneScenario) {
  const std::vector<Scenario> scenarios = parse_cells(kMinimal);
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].name, "minimal");
  EXPECT_TRUE(scenarios[0].cell_keys.empty());
}

TEST(Cells, NestedObjectsMergeMemberByMember) {
  const std::vector<Scenario> cells = parse_cells(R"({
    "schema": "safedm.scenario/v1",
    "name": "t",
    "monitor": { "ports": 2, "depth": 16 },
    "run": { "workload": "bitcount", "stagger_nops": 100, "sweep": false },
    "expect": { "completed": true, "counters": { "nodiv_le_zero_stag": true } },
    "cells": [
      { "monitor": { "depth": 4 }, "expect": { "counters": { "nodiv": 3 } } },
      { "run": { "workload": "cubic" } }
    ]
  })");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].name, "t[0]");
  EXPECT_EQ(cells[1].name, "t[1]");
  // Cell 0 overrides one monitor member and keeps the other.
  EXPECT_EQ(cells[0].monitor.ports, 2u);
  EXPECT_EQ(cells[0].monitor.depth, 4u);
  EXPECT_EQ(cells[0].run->workload, "bitcount");
  EXPECT_EQ(cells[0].expect.nodiv.min, 3u);
  EXPECT_EQ(cells[0].expect.completed, true);
  EXPECT_EQ(cells[0].expect.nodiv_le_zero_stag, true);
  // Cell 1 overrides the workload and keeps the rest of "run".
  EXPECT_EQ(cells[1].monitor.depth, 16u);
  EXPECT_EQ(cells[1].run->workload, "cubic");
  EXPECT_EQ(cells[1].run->stagger_nops, 100u);
  EXPECT_FALSE(cells[1].run->sweep);
  EXPECT_TRUE(cells[1].expect.nodiv.trivial());
  // The table keys are the cell's own leaves, without its pins.
  using Keys = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(cells[0].cell_keys, (Keys{{"monitor.depth", "4"}}));
  EXPECT_EQ(cells[1].cell_keys, (Keys{{"run.workload", "cubic"}}));
}

TEST(Cells, ArraysReplaceInsteadOfMerging) {
  const std::vector<Scenario> cells = parse_cells(R"({
    "schema": "safedm.scenario/v1",
    "name": "t",
    "run": { "workload": "bitcount" },
    "faults": { "registers": [6, 9, 18], "bits": [2, 17] },
    "cells": [ { "faults": { "registers": [5] } }, {} ]
  })");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].faults->registers, (std::vector<u8>{5}));
  EXPECT_EQ(cells[0].faults->bits, (std::vector<unsigned>{2, 17}));
  EXPECT_EQ(cells[1].faults->registers, (std::vector<u8>{6, 9, 18}));
}

TEST(Cells, ErrorInsideACellReportsTheCellsLine) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "cells": [
    { "run": { "stagger_nops": 100 } },
    { "run": { "stagger_nops": "many" } }
  ]
})", 7, "\"run.stagger_nops\" must be an integer, got string");
  // A cell missing what the base lacks points at the cell, not the file.
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "cells": [
    { "run": { "workload": "bitcount" } },
    { "run": { "scale": 2 } }
  ]
})", 6, "\"run\" is missing required key \"workload\"");
}

TEST(Cells, RejectsFileLevelKeysInsideACell) {
  for (const char* key : {"schema", "name", "cells"}) {
    expect_diag(std::string(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "cells": [
    { ")") + key + R"(": "y" }
  ]
})", 6, std::string("\"cells[0]\" may not set \"") + key + "\"");
  }
}

TEST(Cells, RejectsEmptyOrMalformedCells) {
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "cells": []
})", 5, "\"cells\" must be a non-empty array of objects");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "cells": { "run": {} }
})", 5, "\"cells\" must be a non-empty array of objects");
  expect_diag(R"({
  "schema": "safedm.scenario/v1",
  "name": "x",
  "run": { "workload": "bitcount" },
  "cells": [
    7
  ]
})", 6, "\"cells[0]\" must be an object, got number");
}

TEST(Schema, ReportsJsonSyntaxErrorsThroughSameChannel) {
  try {
    (void)load_scenario_file("/nonexistent/scenario.json");
    FAIL();
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot read file"), std::string::npos);
  }
}

}  // namespace
}  // namespace safedm::scenario
