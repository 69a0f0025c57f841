// Schema lowering/validation for `safedm.scenario/v1` (see scenario.hpp).
//
// Every accessor below reports through Ctx::fail, which throws a
// ScenarioError carrying the offending value's source line — the contract
// the negative-path tests pin is "one violation, one `file:line:`
// diagnostic".
#include <algorithm>
#include <fstream>
#include <sstream>

#include "safedm/common/check.hpp"
#include "safedm/faultsim/shard.hpp"
#include "safedm/fuzz/generator.hpp"
#include "safedm/scenario/scenario.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::scenario {

monitor::SafeDmConfig MonitorSpec::to_config() const {
  monitor::SafeDmConfig config;
  config.num_ports = ports;
  config.data_fifo_depth = depth;
  config.is_mode = is_mode;
  config.compare = compare;
  config.report = report;
  config.interrupt_threshold = interrupt_threshold;
  config.track_distance = track_distance;
  return config;
}

safede::SafeDeConfig SafeDeSpec::to_config() const {
  safede::SafeDeConfig config;
  config.head_core = head_core;
  config.min_staggering = min_staggering;
  config.enabled = true;
  return config;
}

namespace {

struct Ctx {
  const std::string& file;

  [[noreturn]] void fail(const JsonValue& at, const std::string& message) const {
    throw ScenarioError(file, at.line, message);
  }

  const JsonValue& object(const JsonValue& v, const char* what) const {
    if (!v.is_object())
      fail(v, std::string(what) + " must be an object, got " + kind_name(v.kind));
    return v;
  }

  /// Reject members outside `allowed` — a typo'd key must not silently
  /// become an assertion that never runs.
  void check_keys(const JsonValue& obj, const char* what,
                  std::initializer_list<std::string_view> allowed) const {
    for (const auto& [key, value] : obj.members) {
      bool known = false;
      for (std::string_view a : allowed) known = known || key == a;
      if (!known) fail(value, "unknown key \"" + key + "\" in " + what);
    }
  }

  bool get_bool(const JsonValue& v, const char* what) const {
    if (!v.is_bool())
      fail(v, std::string(what) + " must be a bool, got " + kind_name(v.kind));
    return v.boolean;
  }

  std::string get_string(const JsonValue& v, const char* what) const {
    if (!v.is_string())
      fail(v, std::string(what) + " must be a string, got " + kind_name(v.kind));
    return v.text;
  }

  u64 get_u64(const JsonValue& v, const char* what, u64 lo, u64 hi) const {
    if (!v.is_number())
      fail(v, std::string(what) + " must be an integer, got " + kind_name(v.kind));
    // The raw literal decides integerness: 1e3 and 2.0 are rejected even
    // though they hold integral doubles, because exact u64 round-trip is
    // part of the contract (cycle counts exceed 2^53).
    if (v.text.find_first_of(".eE-") != std::string::npos)
      fail(v, std::string(what) + " must be a non-negative integer, got " + v.text);
    u64 value = 0;
    for (const char c : v.text) {
      const u64 digit = static_cast<u64>(c - '0');
      if (value > (~u64{0} - digit) / 10) fail(v, std::string(what) + " overflows u64");
      value = value * 10 + digit;
    }
    if (value < lo || value > hi)
      fail(v, std::string(what) + " must be in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "], got " + v.text);
    return value;
  }

  unsigned get_unsigned(const JsonValue& v, const char* what, u64 lo, u64 hi) const {
    return static_cast<unsigned>(get_u64(v, what, lo, hi));
  }

  double get_fraction(const JsonValue& v, const char* what) const {
    if (!v.is_number())
      fail(v, std::string(what) + " must be a number, got " + kind_name(v.kind));
    if (v.number < 0.0 || v.number > 1.0)
      fail(v, std::string(what) + " must be in [0, 1], got " + v.text);
    return v.number;
  }
};

bool known_workload(const std::string& name) {
  for (const auto& info : workloads::registry())
    if (info.name == name) return true;
  for (const auto& info : workloads::registry_extended())
    if (info.name == name) return true;
  return false;
}

MonitorSpec parse_monitor(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"monitor\"");
  ctx.check_keys(v, "\"monitor\"",
                 {"ports", "depth", "is_mode", "compare", "report", "interrupt_threshold",
                  "track_distance"});
  MonitorSpec spec;
  if (const JsonValue* f = v.find("ports"))
    spec.ports = ctx.get_unsigned(*f, "\"monitor.ports\"", 1, 6);
  if (const JsonValue* f = v.find("depth"))
    spec.depth = ctx.get_unsigned(*f, "\"monitor.depth\"", 1, 1024);
  if (const JsonValue* f = v.find("is_mode")) {
    const std::string mode = ctx.get_string(*f, "\"monitor.is_mode\"");
    if (mode == "per_stage") spec.is_mode = monitor::IsMode::kPerStage;
    else if (mode == "flat") spec.is_mode = monitor::IsMode::kFlatList;
    else ctx.fail(*f, "\"monitor.is_mode\" must be \"per_stage\" or \"flat\", got \"" + mode + "\"");
  }
  if (const JsonValue* f = v.find("compare")) {
    const std::string mode = ctx.get_string(*f, "\"monitor.compare\"");
    if (mode == "raw") spec.compare = monitor::CompareMode::kRaw;
    else if (mode == "crc32") spec.compare = monitor::CompareMode::kCrc32;
    else ctx.fail(*f, "\"monitor.compare\" must be \"raw\" or \"crc32\", got \"" + mode + "\"");
  }
  if (const JsonValue* f = v.find("report")) {
    const std::string mode = ctx.get_string(*f, "\"monitor.report\"");
    if (mode == "poll") spec.report = monitor::ReportMode::kPollOnly;
    else if (mode == "interrupt_first") spec.report = monitor::ReportMode::kInterruptFirst;
    else if (mode == "interrupt_threshold")
      spec.report = monitor::ReportMode::kInterruptThreshold;
    else
      ctx.fail(*f, "\"monitor.report\" must be \"poll\", \"interrupt_first\", or "
                   "\"interrupt_threshold\", got \"" + mode + "\"");
  }
  if (const JsonValue* f = v.find("interrupt_threshold"))
    spec.interrupt_threshold =
        static_cast<u32>(ctx.get_u64(*f, "\"monitor.interrupt_threshold\"", 1, ~u32{0}));
  if (const JsonValue* f = v.find("track_distance"))
    spec.track_distance = ctx.get_bool(*f, "\"monitor.track_distance\"");
  return spec;
}

SocSpec parse_soc(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"soc\"");
  ctx.check_keys(v, "\"soc\"", {"shared_data", "data_base1", "text_stride", "observer_batch"});
  SocSpec spec;
  if (const JsonValue* f = v.find("shared_data"))
    spec.shared_data = ctx.get_bool(*f, "\"soc.shared_data\"");
  if (const JsonValue* f = v.find("data_base1")) {
    spec.data_base1 = ctx.get_u64(*f, "\"soc.data_base1\"", 0x1000, 0x4000'0000);
    if (spec.data_base1 % 0x1000 != 0)
      ctx.fail(*f, "\"soc.data_base1\" must be 4 KiB aligned");
  }
  if (const JsonValue* f = v.find("text_stride")) {
    spec.text_stride = ctx.get_u64(*f, "\"soc.text_stride\"", 0x1000, 0x4000'0000);
    if (spec.text_stride % 0x1000 != 0)
      ctx.fail(*f, "\"soc.text_stride\" must be 4 KiB aligned");
  }
  if (const JsonValue* f = v.find("observer_batch"))
    spec.observer_batch = ctx.get_unsigned(*f, "\"soc.observer_batch\"", 1, 65536);
  return spec;
}

GroupReplicaSpec parse_group_replica(const Ctx& ctx, const JsonValue& v, unsigned index,
                                     const SocSpec& soc) {
  const std::string tag = "\"group.replica[" + std::to_string(index) + "]";
  ctx.object(v, (tag + "\"").c_str());
  ctx.check_keys(v, (tag + "\"").c_str(),
                 {"text_offset", "data_offset", "stack_offset", "reg_shuffle_seed",
                  "store_buffer_entries", "l1i_kb", "l1d_kb", "bht_entries", "btb_entries",
                  "mul_latency", "div_latency"});
  GroupReplicaSpec spec;
  // Decorrelation offsets must fit the layout the SoC will actually build;
  // validating here turns a CheckError at construction into a file:line
  // diagnostic at the offending value.
  const soc::SocConfig defaults;
  const u64 text_stride = soc.text_stride != 0 ? soc.text_stride : defaults.text_stride;
  const u64 data_base1 = soc.data_base1 != 0 ? soc.data_base1 : defaults.data_base1;
  const u64 data_stride = data_base1 - defaults.data_base0;
  if (const JsonValue* f = v.find("text_offset")) {
    spec.text_offset = ctx.get_u64(*f, (tag + ".text_offset\"").c_str(), 0, ~u64{0});
    if (spec.text_offset % 4 != 0)
      ctx.fail(*f, tag + ".text_offset\" must be 4-byte aligned");
    if (spec.text_offset >= text_stride)
      ctx.fail(*f, tag + ".text_offset\" " + std::to_string(spec.text_offset) +
                       " overflows the text stride " + std::to_string(text_stride));
  }
  if (const JsonValue* f = v.find("data_offset")) {
    spec.data_offset = ctx.get_u64(*f, (tag + ".data_offset\"").c_str(), 0, ~u64{0});
    if (spec.data_offset % 16 != 0)
      ctx.fail(*f, tag + ".data_offset\" must be 16-byte aligned");
    if (spec.data_offset >= data_stride)
      ctx.fail(*f, tag + ".data_offset\" " + std::to_string(spec.data_offset) +
                       " overflows the data stride " + std::to_string(data_stride));
  }
  if (const JsonValue* f = v.find("stack_offset")) {
    spec.stack_offset = ctx.get_u64(*f, (tag + ".stack_offset\"").c_str(), 0, 65536);
    if (spec.stack_offset % 16 != 0)
      ctx.fail(*f, tag + ".stack_offset\" must be 16-byte aligned");
  }
  if (const JsonValue* f = v.find("reg_shuffle_seed"))
    spec.reg_shuffle_seed =
        static_cast<u32>(ctx.get_u64(*f, (tag + ".reg_shuffle_seed\"").c_str(), 0, ~u32{0}));
  const auto pow2 = [&](const JsonValue& f, unsigned value, const std::string& what) {
    if ((value & (value - 1)) != 0) ctx.fail(f, what + " must be a power of two");
  };
  if (const JsonValue* f = v.find("store_buffer_entries"))
    spec.store_buffer_entries =
        ctx.get_unsigned(*f, (tag + ".store_buffer_entries\"").c_str(), 1, 64);
  if (const JsonValue* f = v.find("l1i_kb")) {
    spec.l1i_kb = ctx.get_unsigned(*f, (tag + ".l1i_kb\"").c_str(), 1, 256);
    pow2(*f, *spec.l1i_kb, tag + ".l1i_kb\"");
  }
  if (const JsonValue* f = v.find("l1d_kb")) {
    spec.l1d_kb = ctx.get_unsigned(*f, (tag + ".l1d_kb\"").c_str(), 1, 256);
    pow2(*f, *spec.l1d_kb, tag + ".l1d_kb\"");
  }
  if (const JsonValue* f = v.find("bht_entries")) {
    spec.bht_entries = ctx.get_unsigned(*f, (tag + ".bht_entries\"").c_str(), 1, 65536);
    pow2(*f, *spec.bht_entries, tag + ".bht_entries\"");
  }
  if (const JsonValue* f = v.find("btb_entries")) {
    spec.btb_entries = ctx.get_unsigned(*f, (tag + ".btb_entries\"").c_str(), 1, 4096);
    pow2(*f, *spec.btb_entries, tag + ".btb_entries\"");
  }
  if (const JsonValue* f = v.find("mul_latency"))
    spec.mul_latency = ctx.get_unsigned(*f, (tag + ".mul_latency\"").c_str(), 1, 200);
  if (const JsonValue* f = v.find("div_latency"))
    spec.div_latency = ctx.get_unsigned(*f, (tag + ".div_latency\"").c_str(), 1, 200);
  return spec;
}

GroupSection parse_group(const Ctx& ctx, const JsonValue& v, const SocSpec& soc) {
  ctx.object(v, "\"group\"");
  ctx.check_keys(v, "\"group\"", {"replicas", "policy", "quorum_k", "replica"});
  GroupSection group;
  if (const JsonValue* f = v.find("replicas"))
    group.replicas = ctx.get_unsigned(*f, "\"group.replicas\"", 2, 8);
  const unsigned n_pairs = group.replicas * (group.replicas - 1) / 2;
  if (const JsonValue* f = v.find("policy")) {
    const std::string policy = ctx.get_string(*f, "\"group.policy\"");
    if (policy == "any_pair") group.policy = monitor::VerdictPolicy::kAnyPair;
    else if (policy == "all_pairs") group.policy = monitor::VerdictPolicy::kAllPairs;
    else if (policy == "quorum") group.policy = monitor::VerdictPolicy::kQuorum;
    else
      ctx.fail(*f, "\"group.policy\" must be \"any_pair\", \"all_pairs\", or \"quorum\", "
                   "got \"" + policy + "\"");
  }
  if (const JsonValue* f = v.find("quorum_k")) {
    if (group.policy != monitor::VerdictPolicy::kQuorum)
      ctx.fail(*f, "\"group.quorum_k\" requires \"group.policy\": \"quorum\"");
    group.quorum_k = ctx.get_unsigned(*f, "\"group.quorum_k\"", 1, n_pairs);
  }
  if (const JsonValue* f = v.find("replica")) {
    if (!f->is_array())
      ctx.fail(*f, "\"group.replica\" must be an array of replica objects");
    if (f->items.size() > group.replicas)
      ctx.fail(*f, "\"group.replica\" has " + std::to_string(f->items.size()) +
                       " entries for " + std::to_string(group.replicas) + " replicas");
    for (unsigned i = 0; i < f->items.size(); ++i)
      group.replica.push_back(parse_group_replica(ctx, f->items[i], i, soc));
  }
  return group;
}

RunSection parse_run(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"run\"");
  ctx.check_keys(v, "\"run\"", {"workload", "scale", "stagger_nops", "delayed_core",
                                "max_cycles", "sweep", "safede"});
  RunSection run;
  const JsonValue* wl = v.find("workload");
  if (wl == nullptr) ctx.fail(v, "\"run\" is missing required key \"workload\"");
  run.workload = ctx.get_string(*wl, "\"run.workload\"");
  if (!known_workload(run.workload))
    ctx.fail(*wl, "\"run.workload\": \"" + run.workload + "\" is not a registry benchmark");
  if (const JsonValue* f = v.find("scale"))
    run.scale = ctx.get_unsigned(*f, "\"run.scale\"", 1, 1024);
  if (const JsonValue* f = v.find("stagger_nops"))
    run.stagger_nops = ctx.get_unsigned(*f, "\"run.stagger_nops\"", 0, 1'000'000);
  if (const JsonValue* f = v.find("delayed_core"))
    // Upper bound is the group size; the cross-check against the actual
    // replica count happens in parse_scenario once both sections exist.
    run.delayed_core = ctx.get_unsigned(*f, "\"run.delayed_core\"", 0, 7);
  if (const JsonValue* f = v.find("max_cycles"))
    run.max_cycles = ctx.get_u64(*f, "\"run.max_cycles\"", 1, ~u64{0});
  if (const JsonValue* f = v.find("sweep")) run.sweep = ctx.get_bool(*f, "\"run.sweep\"");
  if (const JsonValue* f = v.find("safede")) {
    ctx.object(*f, "\"run.safede\"");
    ctx.check_keys(*f, "\"run.safede\"", {"head_core", "min_staggering"});
    SafeDeSpec de;
    if (const JsonValue* g = f->find("head_core"))
      de.head_core = ctx.get_unsigned(*g, "\"run.safede.head_core\"", 0, 1);
    if (const JsonValue* g = f->find("min_staggering"))
      de.min_staggering =
          static_cast<i64>(ctx.get_u64(*g, "\"run.safede.min_staggering\"", 0, 1'000'000'000));
    run.safede = de;
  }
  return run;
}

FaultSection parse_faults(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"faults\"");
  ctx.check_keys(v, "\"faults\"",
                 {"samples_per_class", "registers", "bits", "seed", "single_fault", "engine",
                  "shard"});
  FaultSection faults;
  if (const JsonValue* f = v.find("samples_per_class"))
    faults.samples_per_class = ctx.get_unsigned(*f, "\"faults.samples_per_class\"", 1, 100'000);
  if (const JsonValue* f = v.find("registers")) {
    if (!f->is_array() || f->items.empty())
      ctx.fail(*f, "\"faults.registers\" must be a non-empty array of integers");
    faults.registers.clear();
    for (const JsonValue& item : f->items)
      // x0 is hardwired zero (not injectable) and the register file has 32
      // entries — the same bounds the faultsim injectors enforce.
      faults.registers.push_back(
          static_cast<u8>(ctx.get_u64(item, "\"faults.registers\" entry", 1, 31)));
  }
  if (const JsonValue* f = v.find("bits")) {
    if (!f->is_array() || f->items.empty())
      ctx.fail(*f, "\"faults.bits\" must be a non-empty array of integers");
    faults.bits.clear();
    for (const JsonValue& item : f->items)
      faults.bits.push_back(ctx.get_unsigned(item, "\"faults.bits\" entry", 0, 63));
  }
  if (const JsonValue* f = v.find("seed"))
    faults.seed = ctx.get_u64(*f, "\"faults.seed\"", 0, ~u64{0});
  if (const JsonValue* f = v.find("single_fault"))
    faults.single_fault = ctx.get_bool(*f, "\"faults.single_fault\"");
  if (const JsonValue* f = v.find("engine")) {
    const std::string engine = ctx.get_string(*f, "\"faults.engine\"");
    if (engine == "replay") faults.engine = faultsim::InjectionEngine::kReplay;
    else if (engine == "checkpoint") faults.engine = faultsim::InjectionEngine::kCheckpoint;
    else ctx.fail(*f, "\"faults.engine\" must be \"replay\" or \"checkpoint\", got \"" +
                      engine + "\"");
  }
  if (const JsonValue* f = v.find("shard")) {
    ctx.object(*f, "\"faults.shard\"");
    ctx.check_keys(*f, "\"faults.shard\"", {"index", "count"});
    // Parse the count first so the index bound can name it.
    if (const JsonValue* g = f->find("count"))
      faults.shard.count =
          ctx.get_unsigned(*g, "\"faults.shard.count\"", 1, faultsim::kMaxShards);
    if (const JsonValue* g = f->find("index"))
      faults.shard.index =
          ctx.get_unsigned(*g, "\"faults.shard.index\"", 0, faults.shard.count - 1);
  }
  return faults;
}

FuzzSection parse_fuzz(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"fuzz\"");
  ctx.check_keys(v, "\"fuzz\"", {"program", "max_cycles"});
  FuzzSection fuzz;
  const JsonValue* prog = v.find("program");
  if (prog == nullptr) ctx.fail(v, "\"fuzz\" is missing required key \"program\"");
  if (!prog->is_array() || prog->items.empty())
    ctx.fail(*prog, "\"fuzz.program\" must be a non-empty array of source lines");
  for (const JsonValue& item : prog->items) {
    fuzz.program += ctx.get_string(item, "\"fuzz.program\" entry");
    fuzz.program += '\n';
  }
  if (const JsonValue* f = v.find("max_cycles"))
    fuzz.max_cycles = ctx.get_u64(*f, "\"fuzz.max_cycles\"", 1, ~u64{0});
  // Validate the program text now: a scenario that cannot even lower its
  // repro should fail at parse time with a pointer at the program block.
  try {
    (void)fuzz::deserialize(fuzz.program);
  } catch (const CheckError& e) {
    ctx.fail(*prog, std::string("\"fuzz.program\" is not a valid safedm-fuzz/v1 program: ") +
                        e.what());
  }
  return fuzz;
}

Bound parse_bound(const Ctx& ctx, const JsonValue& v, const char* what) {
  Bound bound;
  if (v.is_number()) {  // shorthand: a bare integer means exactly-equal
    bound.min = bound.max = ctx.get_u64(v, what, 0, ~u64{0});
    return bound;
  }
  ctx.object(v, what);
  ctx.check_keys(v, what, {"min", "max"});
  if (const JsonValue* f = v.find("min"))
    bound.min = ctx.get_u64(*f, (std::string(what) + ".min").c_str(), 0, ~u64{0});
  if (const JsonValue* f = v.find("max"))
    bound.max = ctx.get_u64(*f, (std::string(what) + ".max").c_str(), 0, ~u64{0});
  if (bound.min && bound.max && *bound.min > *bound.max)
    ctx.fail(v, std::string(what) + ": min exceeds max");
  if (bound.trivial()) ctx.fail(v, std::string(what) + ": empty bound (give min and/or max)");
  return bound;
}

ExpectSection parse_expect(const Ctx& ctx, const JsonValue& v) {
  ctx.object(v, "\"expect\"");
  ctx.check_keys(v, "\"expect\"", {"completed", "counters", "faults"});
  ExpectSection expect;
  if (const JsonValue* f = v.find("completed"))
    expect.completed = ctx.get_bool(*f, "\"expect.completed\"");
  if (const JsonValue* f = v.find("counters")) {
    ctx.object(*f, "\"expect.counters\"");
    ctx.check_keys(*f, "\"expect.counters\"",
                   {"zero_stag", "nodiv", "ds_match", "is_match", "monitored",
                    "distance_min", "distance_max", "nodiv_le_zero_stag"});
    if (const JsonValue* g = f->find("zero_stag"))
      expect.zero_stag = parse_bound(ctx, *g, "\"expect.counters.zero_stag\"");
    if (const JsonValue* g = f->find("nodiv"))
      expect.nodiv = parse_bound(ctx, *g, "\"expect.counters.nodiv\"");
    if (const JsonValue* g = f->find("ds_match"))
      expect.ds_match = parse_bound(ctx, *g, "\"expect.counters.ds_match\"");
    if (const JsonValue* g = f->find("is_match"))
      expect.is_match = parse_bound(ctx, *g, "\"expect.counters.is_match\"");
    if (const JsonValue* g = f->find("monitored"))
      expect.monitored = parse_bound(ctx, *g, "\"expect.counters.monitored\"");
    if (const JsonValue* g = f->find("distance_min"))
      expect.distance_min = parse_bound(ctx, *g, "\"expect.counters.distance_min\"");
    if (const JsonValue* g = f->find("distance_max"))
      expect.distance_max = parse_bound(ctx, *g, "\"expect.counters.distance_max\"");
    if (const JsonValue* g = f->find("nodiv_le_zero_stag"))
      expect.nodiv_le_zero_stag = ctx.get_bool(*g, "\"expect.counters.nodiv_le_zero_stag\"");
  }
  if (const JsonValue* f = v.find("faults")) {
    ctx.object(*f, "\"expect.faults\"");
    ctx.check_keys(*f, "\"expect.faults\"",
                   {"single_fault_ccf_max", "nodiv_ccf_ge_diverse", "ccf_rate_max",
                    "latency_sane"});
    if (const JsonValue* g = f->find("single_fault_ccf_max"))
      expect.single_fault_ccf_max =
          ctx.get_u64(*g, "\"expect.faults.single_fault_ccf_max\"", 0, ~u64{0});
    if (const JsonValue* g = f->find("nodiv_ccf_ge_diverse"))
      expect.nodiv_ccf_ge_diverse = ctx.get_bool(*g, "\"expect.faults.nodiv_ccf_ge_diverse\"");
    if (const JsonValue* g = f->find("ccf_rate_max"))
      expect.ccf_rate_max = ctx.get_fraction(*g, "\"expect.faults.ccf_rate_max\"");
    if (const JsonValue* g = f->find("latency_sane"))
      expect.latency_sane = ctx.get_bool(*g, "\"expect.faults.latency_sane\"");
  }
  return expect;
}

/// Deep merge for "cells": objects merge member by member, and every
/// other kind in `over` replaces what `base` held. A merged object takes
/// `over`'s line, so a diagnostic about it points into the cell.
JsonValue merge_json(JsonValue base, const JsonValue& over) {
  if (!base.is_object() || !over.is_object()) return over;
  for (const auto& [key, value] : over.members) {
    auto it = std::find_if(base.members.begin(), base.members.end(),
                           [&](const auto& member) { return member.first == key; });
    if (it == base.members.end()) base.members.emplace_back(key, value);
    else it->second = merge_json(std::move(it->second), value);
  }
  base.line = over.line;
  return base;
}

/// A cell's own leaf keys as (dotted path, value text), skipping the
/// `expect` pins and the description: the knobs that tell its row apart.
void collect_leaves(const JsonValue& v, const std::string& path,
                    std::vector<std::pair<std::string, std::string>>& out) {
  if (v.is_object()) {
    for (const auto& [key, value] : v.members) {
      if (path.empty() && (key == "expect" || key == "description")) continue;
      collect_leaves(value, path.empty() ? key : path + "." + key, out);
    }
    return;
  }
  std::string text;
  if (v.is_array()) {
    for (const JsonValue& item : v.items) text += (text.empty() ? "" : ",") + item.text;
  } else if (v.is_bool()) {
    text = v.boolean ? "true" : "false";
  } else {
    text = v.is_null() ? "null" : v.text;
  }
  out.emplace_back(path, std::move(text));
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Scenario parse_scenario(const JsonValue& root, const std::string& file) {
  const Ctx ctx{file};
  ctx.object(root, "a scenario document");
  ctx.check_keys(root, "a scenario",
                 {"schema", "name", "description", "monitor", "soc", "group", "run", "faults",
                  "fuzz", "expect"});

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr) ctx.fail(root, "missing required key \"schema\"");
  const std::string id = ctx.get_string(*schema, "\"schema\"");
  if (id != kSchemaId)
    ctx.fail(*schema, "unsupported schema \"" + id + "\" (expected \"" + kSchemaId + "\")");

  Scenario scenario;
  scenario.file = file;
  const JsonValue* name = root.find("name");
  if (name == nullptr) ctx.fail(root, "missing required key \"name\"");
  scenario.name = ctx.get_string(*name, "\"name\"");
  if (!valid_name(scenario.name))
    ctx.fail(*name, "\"name\" must be 1-128 chars of [A-Za-z0-9._-], got \"" + scenario.name +
                        "\"");
  if (const JsonValue* f = root.find("description"))
    scenario.description = ctx.get_string(*f, "\"description\"");
  if (const JsonValue* f = root.find("monitor")) scenario.monitor = parse_monitor(ctx, *f);
  if (const JsonValue* f = root.find("soc")) scenario.soc = parse_soc(ctx, *f);
  if (const JsonValue* f = root.find("group"))
    scenario.group = parse_group(ctx, *f, scenario.soc);
  if (const JsonValue* f = root.find("run")) scenario.run = parse_run(ctx, *f);
  if (const JsonValue* f = root.find("faults")) scenario.faults = parse_faults(ctx, *f);
  if (const JsonValue* f = root.find("fuzz")) scenario.fuzz = parse_fuzz(ctx, *f);
  if (const JsonValue* f = root.find("expect")) scenario.expect = parse_expect(ctx, *f);

  if (!scenario.run && !scenario.fuzz)
    ctx.fail(root, "a scenario must have a \"run\" or a \"fuzz\" section");
  if (scenario.faults && !scenario.run)
    ctx.fail(*root.find("faults"), "\"faults\" requires a \"run\" section (its workload)");
  const unsigned replicas = scenario.group ? scenario.group->replicas : 2;
  if (scenario.run && scenario.run->delayed_core >= replicas)
    ctx.fail(*root.find("run"), "\"run.delayed_core\" must be in [0, " +
                                    std::to_string(replicas - 1) + "] for " +
                                    std::to_string(replicas) + " replicas");
  if (scenario.run && scenario.run->safede && replicas != 2)
    ctx.fail(*root.find("run"),
             "\"run.safede\" enforcement is pairwise; it requires 2 replicas");
  if (scenario.faults && scenario.group)
    ctx.fail(*root.find("faults"),
             "\"faults\" campaigns run on the pairwise rig; drop the \"group\" section");
  if (scenario.faults) {
    // The campaign rig is the default platform with synchronized starts;
    // a run or soc setting it cannot honour must not pass for one it did.
    const JsonValue* soc = root.find("soc");
    const JsonValue* run = root.find("run");
    for (const char* key : {"shared_data", "data_base1", "text_stride"})
      if (const JsonValue* f = soc ? soc->find(key) : nullptr)
        ctx.fail(*f, std::string("\"faults\" campaigns run on the default platform; drop "
                                 "\"soc.") + key + "\"");
    if (scenario.run->stagger_nops != 0)
      ctx.fail(*run->find("stagger_nops"),
               "\"faults\" campaigns start both cores together; drop \"run.stagger_nops\"");
    if (scenario.run->safede)
      ctx.fail(*run->find("safede"),
               "\"faults\" campaigns run without enforcement; drop \"run.safede\"");
  }
  if ((!scenario.expect.distance_min.trivial() || !scenario.expect.distance_max.trivial()) &&
      !scenario.monitor.track_distance)
    ctx.fail(*root.find("expect"),
             "\"expect.counters.distance_*\" requires \"monitor.track_distance\": true");
  return scenario;
}

std::vector<Scenario> parse_scenarios(const JsonValue& root, const std::string& file) {
  const JsonValue* cells = root.find("cells");
  if (cells == nullptr) return {parse_scenario(root, file)};
  const Ctx ctx{file};
  if (!cells->is_array() || cells->items.empty())
    ctx.fail(*cells, "\"cells\" must be a non-empty array of objects");
  JsonValue base = root;
  std::erase_if(base.members, [](const auto& member) { return member.first == "cells"; });
  std::vector<Scenario> scenarios;
  for (unsigned i = 0; i < cells->items.size(); ++i) {
    const JsonValue& cell = cells->items[i];
    const std::string tag = "\"cells[" + std::to_string(i) + "]\"";
    ctx.object(cell, tag.c_str());
    for (const char* key : {"schema", "name", "cells"})
      if (const JsonValue* f = cell.find(key))
        ctx.fail(*f, tag + " may not set \"" + key + "\"; it belongs to the file");
    Scenario scenario = parse_scenario(merge_json(base, cell), file);
    scenario.name += "[" + std::to_string(i) + "]";
    collect_leaves(cell, "", scenario.cell_keys);
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

std::vector<Scenario> load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError(path, 0, "cannot read file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const JsonValue root = parse_json(buffer.str());
    return parse_scenarios(root, path);
  } catch (const JsonParseError& e) {
    throw ScenarioError(path, e.line,
                        "JSON syntax error at column " + std::to_string(e.column) + ": " +
                            e.message);
  }
}

}  // namespace safedm::scenario
