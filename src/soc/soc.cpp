#include "safedm/soc/soc.hpp"

#include <algorithm>

#include "safedm/assembler/transform.hpp"
#include "safedm/common/check.hpp"
#include "safedm/isa/encode.hpp"

namespace safedm::soc {

namespace {

/// Structural fingerprint of one core's effective config: everything that
/// shapes a core's serialized state or timing. Heterogeneous replicas make
/// restoring into a differently-shaped SoC a real hazard, so the snapshot
/// fingerprint covers the per-replica config, not just the shared one.
u64 core_config_fingerprint(const core::CoreConfig& c) {
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a style fold
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(c.l1i.size_bytes);
  mix(c.l1i.ways);
  mix(c.l1i.line_bytes);
  mix(c.l1d.size_bytes);
  mix(c.l1d.ways);
  mix(c.l1d.line_bytes);
  mix(c.store_buffer.entries);
  mix(c.store_buffer.line_bytes);
  mix(c.store_buffer.coalesce ? 1 : 0);
  mix(c.predictor.bht_entries);
  mix(c.predictor.btb_entries);
  mix(c.predictor.enabled ? 1 : 0);
  mix(c.mmio_latency);
  mix(c.mul_latency);
  mix(c.div_latency);
  mix(c.fp_add_latency);
  mix(c.fp_mul_latency);
  mix(c.fp_fma_latency);
  mix(c.fp_div_latency);
  return h;
}

}  // namespace

MpSoc::MpSoc(const SocConfig& config) : config_(config) {
  // Normalize the topology: explicit groups win; otherwise derive the
  // legacy pair layout (cores 2p/2p+1 form group p) from num_cores.
  if (config_.groups.empty()) {
    SAFEDM_CHECK_MSG(config.num_cores >= 2 && config.num_cores <= 8 &&
                         config.num_cores % 2 == 0,
                     "num_cores must be even and in [2, 8]");
    for (unsigned p = 0; p < config.num_cores / 2; ++p)
      groups_.push_back(GroupSpec::homogeneous(2));
  } else {
    groups_ = config_.groups;
    unsigned total = 0;
    for (const GroupSpec& group : groups_) {
      SAFEDM_CHECK_MSG(group.size() >= kMinGroupReplicas && group.size() <= kMaxGroupReplicas,
                       "a redundancy group must have 2..8 replicas, got " << group.size());
      total += group.size();
    }
    SAFEDM_CHECK_MSG(total <= 8, "groups must cover at most 8 cores, got " << total);
    config_.num_cores = total;
  }
  SAFEDM_CHECK_MSG(config.observer_batch >= 1, "observer_batch must be >= 1");

  // Per-replica decorrelation sanity. Image-overflow checks that need the
  // program size happen at load; everything checkable now fails now.
  const u64 data_stride = config_.data_base1 - config_.data_base0;
  for (const GroupSpec& group : groups_) {
    for (unsigned r = 0; r < group.size(); ++r) {
      const ReplicaSpec& rep = group.replicas[r];
      SAFEDM_CHECK_MSG(rep.text_offset % 4 == 0, "replica text_offset must be 4-byte aligned");
      SAFEDM_CHECK_MSG(rep.text_offset < config_.text_stride,
                       "replica text_offset 0x" << std::hex << rep.text_offset
                                                << " overflows the text stride 0x"
                                                << config_.text_stride << std::dec);
      SAFEDM_CHECK_MSG(rep.data_offset % 16 == 0, "replica data_offset must be 16-byte aligned");
      SAFEDM_CHECK_MSG(rep.data_offset < data_stride,
                       "replica data_offset overflows the data segment stride");
      SAFEDM_CHECK_MSG(rep.stack_offset % 16 == 0,
                       "replica stack_offset must be 16-byte aligned");
      // Replicas sharing a text image must agree on its contents.
      for (unsigned r2 = 0; r2 < r; ++r2)
        if (group.replicas[r2].text_offset == rep.text_offset)
          SAFEDM_CHECK_MSG(group.replicas[r2].reg_shuffle_seed == rep.reg_shuffle_seed,
                           "replicas sharing a text image must share a register-shuffle seed");
    }
  }

  group_first_.resize(groups_.size());
  unsigned next_core = 0;
  for (unsigned g = 0; g < groups_.size(); ++g) {
    group_first_[g] = next_core;
    next_core += groups_[g].size();
  }

  // Derived per-core data segment bases (shared_data: the whole group
  // shares its first replica's segment, offsets of the others ignored).
  core_data_base_.resize(config_.num_cores);
  for (unsigned g = 0; g < groups_.size(); ++g)
    for (unsigned r = 0; r < groups_[g].size(); ++r) {
      const unsigned layout_r = config_.shared_data ? 0 : r;
      const unsigned core_index = group_first_[g] + layout_r;
      core_data_base_[group_first_[g] + r] = config_.data_base0 + core_index * data_stride +
                                             groups_[g].replicas[layout_r].data_offset;
    }

  memory_ = std::make_unique<mem::PhysMem>(config.mem_base, config.mem_size);
  l2_ = std::make_unique<bus::L2Frontend>(config.l2, config.l2_timing);
  ahb_ = std::make_unique<bus::AhbBus>(*l2_, config.arbiter_bias);
  mem_port_ = std::make_unique<RoutingMemPort>(*this, *memory_, apb_, config.apb_base,
                                               config.apb_size);
  config_.core.mmio_base = config.apb_base;
  config_.core.mmio_size = config.apb_size;
  for (unsigned g = 0; g < groups_.size(); ++g)
    for (unsigned r = 0; r < groups_[g].size(); ++r) {
      const unsigned i = group_first_[g] + r;
      cores_.push_back(std::make_unique<core::Core>(effective_core_config(g, r), *mem_port_,
                                                    *ahb_, "core" + std::to_string(i)));
    }
  frames_.resize(std::size_t{config_.num_cores} * config_.observer_batch);
  batch_ = config_.observer_batch;
  prelude_commits_.assign(config_.num_cores, 0);
  observers_.resize(groups_.size());
  // Cores come out of reset parked; loading a group brings it up.
  for (unsigned i = 0; i < config_.num_cores; ++i) park_core(i);
}

core::CoreConfig MpSoc::effective_core_config(unsigned group, unsigned replica) const {
  core::CoreConfig cc = groups_[group].replicas[replica].core
                            ? *groups_[group].replicas[replica].core
                            : config_.core;
  // The MMIO window is SoC-wide regardless of per-replica overrides.
  cc.mmio_base = config_.apb_base;
  cc.mmio_size = config_.apb_size;
  return cc;
}

core::Core& MpSoc::core(unsigned i) {
  SAFEDM_CHECK(i < cores_.size());
  return *cores_[i];
}

const core::Core& MpSoc::core(unsigned i) const {
  SAFEDM_CHECK(i < cores_.size());
  return *cores_[i];
}

const core::CoreTapFrame& MpSoc::frame(unsigned i) const {
  SAFEDM_CHECK(i < cores_.size());
  return frames_[last_frame_index(i)];
}

u64 MpSoc::prelude_commits(unsigned i) const {
  SAFEDM_CHECK(i < prelude_commits_.size());
  return prelude_commits_[i];
}

u64 MpSoc::data_base(unsigned i) const {
  SAFEDM_CHECK(i < core_data_base_.size());
  return core_data_base_[i];
}

void MpSoc::add_observer(CycleObserver* observer, unsigned group) {
  SAFEDM_CHECK(observer != nullptr);
  SAFEDM_CHECK_MSG(group < observers_.size(), "observer group index out of range");
  if (observer->needs_per_cycle()) {
    flush_observers();
    batch_ = 1;
  }
  observers_[group].push_back(observer);
}

void MpSoc::park_core(unsigned core_index) {
  SAFEDM_CHECK(core_index < cores_.size());
  // Park by pointing the core at a private `ecall`: it fetches one
  // instruction and halts.
  const u64 park_pc = align_down(config_.text_base, 4096) - 4096 + core_index * 64;
  memory_->store(park_pc, isa::enc::ecall(), 4);
  cores_[core_index]->reset(park_pc, data_base(core_index), data_base(core_index) + 0x1000);
  prelude_commits_[core_index] = 0;
}

void MpSoc::load_group_images(unsigned group, const assembler::Program& program,
                              unsigned stagger_nops, unsigned delayed_replica) {
  SAFEDM_CHECK(group < num_groups());
  const GroupSpec& spec = groups_[group];
  const unsigned n = spec.size();
  SAFEDM_CHECK_MSG(delayed_replica < n, "delayed replica index out of range");
  const u64 window_base = config_.text_base + group * config_.text_stride;
  const u64 image_bytes = (stagger_nops + program.text.size()) * 4;

  // Distinct text offsets must be far enough apart to each hold a full
  // [prelude nops][program] image inside the group window.
  std::vector<u64> offsets;
  for (const ReplicaSpec& rep : spec.replicas) offsets.push_back(rep.text_offset);
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  for (std::size_t k = 0; k + 1 < offsets.size(); ++k)
    SAFEDM_CHECK_MSG(offsets[k] + image_bytes <= offsets[k + 1],
                     "decorrelated text images of '" << program.name << "' overlap");

  // Text: one image per distinct (text_offset, shuffle seed); replicas
  // with identical decorrelation share physical code, exactly like the
  // historical pair layout (same PCs on both cores). The ctor validated
  // that replicas sharing an offset share a seed.
  for (unsigned r = 0; r < n; ++r) {
    const ReplicaSpec& rep = spec.replicas[r];
    bool first_at_offset = true;
    for (unsigned r2 = 0; r2 < r; ++r2)
      first_at_offset = first_at_offset && spec.replicas[r2].text_offset != rep.text_offset;
    if (!first_at_offset) continue;
    const assembler::Program image = assembler::shuffle_registers(program, rep.reg_shuffle_seed);
    u64 addr = window_base + rep.text_offset;
    for (unsigned i = 0; i < stagger_nops; ++i, addr += 4)
      memory_->store(addr, isa::kNopEncoding, 4);
    for (const u32 word : image.text) {
      memory_->store(addr, word, 4);
      addr += 4;
    }
    SAFEDM_CHECK_MSG(addr <= window_base + config_.text_stride,
                     "text segment '" << program.name << "' overflows its window");
    SAFEDM_CHECK_MSG(addr <= config_.data_base0, "text overlaps the data segments");
  }

  for (unsigned r = 0; r < n; ++r) {
    const unsigned core_index = group_first_[group] + r;
    const u64 base = data_base(core_index);
    if (r == 0 || !config_.shared_data) {
      memory_->write_block(base, program.data);
      memory_->fill(base + program.data.size(), program.bss_bytes, 0);
    }
    const u64 stack_top =
        align_down(base + align_up(program.data_segment_bytes(), 16) + program.stack_bytes +
                       spec.replicas[r].stack_offset,
                   16);
    const u64 image_base = window_base + spec.replicas[r].text_offset;
    const u64 program_entry = image_base + stagger_nops * 4;
    const bool delayed = (r == delayed_replica) && stagger_nops > 0;
    cores_[core_index]->reset(delayed ? image_base : program_entry, base, stack_top);
    prelude_commits_[core_index] = delayed ? stagger_nops : 0;
  }
}

void MpSoc::load_redundant(const assembler::Program& program, unsigned stagger_nops,
                           unsigned delayed_replica) {
  load_redundant_group(0, program, stagger_nops, delayed_replica);
}

void MpSoc::load_redundant_group(unsigned group, const assembler::Program& program,
                                 unsigned stagger_nops, unsigned delayed_replica) {
  load_group_images(group, program, stagger_nops, delayed_replica);
  cycle_ = 0;
}

void MpSoc::load_distinct(const assembler::Program& program0,
                          const assembler::Program& program1) {
  // Two text segments inside pair 0's window.
  const u64 text_base0 = config_.text_base;
  const u64 text_base1 =
      align_up(text_base0 + program0.text.size() * 4 + 4096, 4096);
  SAFEDM_CHECK_MSG(text_base1 + program1.text.size() * 4 <= text_base0 + config_.text_stride,
                   "distinct programs overflow the pair-0 text window");

  const auto load_one = [&](unsigned core_index, const assembler::Program& program,
                            u64 text_base) {
    u64 addr = text_base;
    for (const u32 word : program.text) {
      memory_->store(addr, word, 4);
      addr += 4;
    }
    const u64 base = data_base(core_index);
    memory_->write_block(base, program.data);
    memory_->fill(base + program.data.size(), program.bss_bytes, 0);
    const u64 stack_top = align_down(
        base + align_up(program.data_segment_bytes(), 16) + program.stack_bytes, 16);
    cores_[core_index]->reset(text_base, base, stack_top);
    prelude_commits_[core_index] = 0;
  };
  load_one(0, program0, text_base0);
  load_one(1, program1, text_base1);
  cycle_ = 0;
}

void MpSoc::step() {
  ++cycle_;
  for (unsigned i = 0; i < num_cores(); ++i) cores_[i]->step(frames_[frame_index(i, cursor_)]);
  ahb_->step();
  // The completed cycle joins the pending span (a core's APB access above
  // has flushed the cycles before it). A span is delivered when it holds
  // batch_ cycles or reaches the end of the rings.
  if (obs_pending_++ == 0) obs_first_cycle_ = cycle_;
  const bool ring_end = ++cursor_ == config_.observer_batch;
  if (ring_end || obs_pending_ == batch_) flush_observers();
  if (ring_end) cursor_ = 0;
}

void MpSoc::flush_observers() const {
  if (obs_pending_ == 0) return;
  const unsigned n = obs_pending_;
  obs_pending_ = 0;
  // The pending span ends just before cursor_ (mid-step, cursor_ is the
  // slot the current cycle is being written to).
  const unsigned first_slot = cursor_ - n;
  const core::CoreTapFrame* frames[kMaxGroupReplicas];
  for (unsigned g = 0; g < num_groups(); ++g) {
    const unsigned replicas = groups_[g].size();
    for (unsigned r = 0; r < replicas; ++r)
      frames[r] = &frames_[frame_index(group_first_[g] + r, first_slot)];
    for (CycleObserver* observer : observers_[g])
      observer->on_group_cycles(obs_first_cycle_, frames, replicas, n);
  }
}

u64 MpSoc::run(u64 max_cycles) {
  u64 executed = 0;
  while (executed < max_cycles && !all_halted()) {
    step();
    ++executed;
  }
  // Callers poll observers after run(); make sure they are caught up.
  flush_observers();
  return executed;
}

u64 MpSoc::RoutingMemPort::load(u64 addr, unsigned size) {
  if (addr >= apb_base_ && addr < apb_base_ + apb_size_) {
    SAFEDM_CHECK_MSG(size == 4, "APB access must be 32-bit (lw/sw)");
    // Guest register reads must see observers caught up through the
    // previous cycle, exactly as per-cycle delivery would.
    owner_.flush_observers();
    return apb_.read(addr);
  }
  return ram_.load(addr, size);
}

void MpSoc::RoutingMemPort::store(u64 addr, u64 value, unsigned size) {
  if (addr >= apb_base_ && addr < apb_base_ + apb_size_) {
    SAFEDM_CHECK_MSG(size == 4, "APB access must be 32-bit (lw/sw)");
    owner_.flush_observers();
    apb_.write(addr, static_cast<u32>(value));
    return;
  }
  ram_.store(addr, value, size);
}

bool MpSoc::all_halted() const {
  return std::all_of(cores_.begin(), cores_.end(),
                     [](const auto& c) { return c->halted(); });
}

namespace {

void save_frame(StateWriter& w, const core::CoreTapFrame& frame) {
  for (const auto& stage : frame.stage)
    for (const core::StageSlotTap& slot : stage) {
      w.put_u32(slot.valid);
      w.put_u32(slot.encoding);
    }
  for (const core::PortTap& port : frame.port) {
    w.put_bool(port.enable);
    w.put_u64(port.value);
  }
  w.put_bool(frame.hold);
  w.put_u32(frame.commits);
  w.put_bool(frame.halted);
}

void restore_frame(StateReader& r, core::CoreTapFrame& frame) {
  for (auto& stage : frame.stage)
    for (core::StageSlotTap& slot : stage) {
      slot.valid = r.get_u32();
      slot.encoding = r.get_u32();
    }
  for (core::PortTap& port : frame.port) {
    port.enable = r.get_bool();
    port.value = r.get_u64();
  }
  frame.hold = r.get_bool();
  frame.commits = r.get_u32();
  frame.halted = r.get_bool();
}

}  // namespace

void MpSoc::save_state(StateWriter& w) const {
  // Deliver buffered cycles first: observers (snapshotted alongside by the
  // owner) must be caught up, and the delivery buffer itself is then empty
  // — snapshot bytes are identical across observer_batch settings.
  // observer_batch is deliberately NOT in the config fingerprint below for
  // the same reason: it changes delivery timing, not architectural state.
  flush_observers();
  w.begin_section("MSOC", 2);
  // Config fingerprint: a snapshot only restores into an identically
  // configured SoC (same topology, address map, arbiter bias).
  w.put_u32(config_.num_cores);
  w.put_u64(config_.mem_base);
  w.put_u64(config_.mem_size);
  w.put_u64(config_.text_base);
  w.put_u64(config_.text_stride);
  w.put_u64(config_.data_base0);
  w.put_u64(config_.data_base1);
  w.put_bool(config_.shared_data);
  w.put_u64(config_.apb_base);
  w.put_u64(config_.apb_size);
  w.put_u32(config_.arbiter_bias);
  // Group topology: replica counts, decorrelation transforms, and each
  // replica's effective (possibly heterogeneous) core config.
  w.put_u32(static_cast<u32>(groups_.size()));
  for (unsigned g = 0; g < groups_.size(); ++g) {
    w.put_u32(groups_[g].size());
    for (unsigned r = 0; r < groups_[g].size(); ++r) {
      const ReplicaSpec& rep = groups_[g].replicas[r];
      w.put_u64(rep.text_offset);
      w.put_u64(rep.data_offset);
      w.put_u64(rep.stack_offset);
      w.put_u32(rep.reg_shuffle_seed);
      w.put_u64(core_config_fingerprint(effective_core_config(g, r)));
    }
  }
  w.put_u64(cycle_);
  for (unsigned i = 0; i < num_cores(); ++i) save_frame(w, frames_[last_frame_index(i)]);
  for (u64 p : prelude_commits_) w.put_u64(p);
  memory_->save_state(w);
  l2_->save_state(w);
  ahb_->save_state(w);
  for (const auto& core : cores_) core->save_state(w);
  w.end_section();
}

void MpSoc::restore_state(StateReader& r) {
  // Deliver any pending cycles from the outgoing timeline before rewinding.
  flush_observers();
  r.begin_section("MSOC", 2);
  bool config_ok =
      r.get_u32() == config_.num_cores && r.get_u64() == config_.mem_base &&
      r.get_u64() == config_.mem_size && r.get_u64() == config_.text_base &&
      r.get_u64() == config_.text_stride && r.get_u64() == config_.data_base0 &&
      r.get_u64() == config_.data_base1 && r.get_bool() == config_.shared_data &&
      r.get_u64() == config_.apb_base && r.get_u64() == config_.apb_size &&
      r.get_u32() == config_.arbiter_bias;
  if (!config_ok) throw StateError("SoC config fingerprint mismatch");
  if (r.get_u32() != groups_.size()) throw StateError("SoC group topology mismatch");
  for (unsigned g = 0; g < groups_.size(); ++g) {
    config_ok = r.get_u32() == groups_[g].size();
    for (unsigned rep_i = 0; config_ok && rep_i < groups_[g].size(); ++rep_i) {
      const ReplicaSpec& rep = groups_[g].replicas[rep_i];
      config_ok = r.get_u64() == rep.text_offset && r.get_u64() == rep.data_offset &&
                  r.get_u64() == rep.stack_offset && r.get_u32() == rep.reg_shuffle_seed &&
                  r.get_u64() == core_config_fingerprint(effective_core_config(g, rep_i));
    }
    if (!config_ok) throw StateError("SoC group topology mismatch");
  }
  cycle_ = r.get_u64();
  for (unsigned i = 0; i < num_cores(); ++i) restore_frame(r, frames_[last_frame_index(i)]);
  for (u64& p : prelude_commits_) p = r.get_u64();
  memory_->restore_state(r);
  l2_->restore_state(r);
  ahb_->restore_state(r);
  for (const auto& core : cores_) core->restore_state(r);
  r.end_section();
}

Snapshot MpSoc::snapshot() const {
  StateWriter w;
  save_state(w);
  return Snapshot{w.take()};
}

void MpSoc::restore(const Snapshot& snapshot) {
  StateReader r(snapshot.bytes);
  restore_state(r);
}

}  // namespace safedm::soc
