// Multicore MPSoC model after the Cobham Gaisler NOEL-V platform of the
// paper (Fig. 3): NOEL-V-style cores with private L1s, a shared AHB bus, a
// shared write-back L2 in front of the memory controller, and an APB bus
// for peripherals (SafeDM attaches there).
//
// The paper integrates SafeDM "in a 4-core multicore by Cobham Gaisler":
// cores are grouped into redundant *groups*, each monitored by its own
// SafeDM instance. The paper's topology is the 2-replica pair (cores 2p
// and 2p+1 form pair p); this model generalizes it to ordered groups of
// 2..8 replicas (DMON/ResiLogic-style N-variant redundancy), each replica
// optionally carrying its own structural core config and DME-style
// decorrelation transforms. A SocConfig without explicit groups derives
// one homogeneous 2-replica group per core pair — bit-exact with the
// historical pair layout.
//
// Redundant-execution conventions:
//   - All replicas of a group run the same program inside the group's text
//     window. Replicas with identical decorrelation (text offset +
//     register-shuffle seed) share one physical text image (shared code,
//     same PCs); decorrelated replicas get their own image at
//     window base + text_offset, register-renamed by their seed. An
//     optional nop prelude placed *before* the program entry implements
//     the paper's initial staggering: the delayed replica boots at the
//     prelude, the others directly at the program entry.
//   - Each core gets its own data segment copy at a distinct base
//     (different address spaces, plus any per-replica data_offset), passed
//     in a0; stacks are per-core (plus any per-replica stack_offset).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "safedm/assembler/assembler.hpp"
#include "safedm/bus/ahb.hpp"
#include "safedm/bus/apb.hpp"
#include "safedm/bus/l2_frontend.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/state.hpp"
#include "safedm/core/core.hpp"
#include "safedm/mem/phys_mem.hpp"

namespace safedm::soc {

/// Cores in the default (paper-evaluation) configuration.
inline constexpr unsigned kNumCores = 2;

/// Replicas a redundancy group may hold (and, transitively, cores an SoC
/// may hold). The pairwise diversity matrix is C(n,2) comparators, so 8
/// replicas is already a 28-comparator monitor.
inline constexpr unsigned kMinGroupReplicas = 2;
inline constexpr unsigned kMaxGroupReplicas = 8;

/// Per-replica configuration inside a redundancy group: optional
/// structural heterogeneity plus DME-style decorrelation transforms.
/// Defaults describe the paper's homogeneous, non-decorrelated replica.
struct ReplicaSpec {
  /// When set, this replica's core is built from this config instead of
  /// SocConfig::core (issue width is fixed by the model; cache geometry,
  /// store-buffer depth, predictor tables, and unit latencies are free).
  /// The MMIO window is still forced onto the SoC's APB window.
  std::optional<core::CoreConfig> core{};

  // Decorrelation transforms (DME-style deliberate diversity):
  u64 text_offset = 0;       // image placement inside the group text window
  u64 data_offset = 0;       // added to the replica's data segment base
  u64 stack_offset = 0;      // added to the computed stack top (16-aligned)
  u32 reg_shuffle_seed = 0;  // assembler::shuffle_registers seed; 0 = identity
};

/// One redundancy group: an ordered set of 2..8 replica cores monitored
/// together. Cores are assigned to groups in declaration order (group 0
/// gets cores 0..n0-1, group 1 the next n1, ...).
struct GroupSpec {
  std::vector<ReplicaSpec> replicas;

  static GroupSpec homogeneous(unsigned n) {
    GroupSpec group;
    group.replicas.resize(n);
    return group;
  }
  unsigned size() const { return static_cast<unsigned>(replicas.size()); }
};

struct SocConfig {
  /// Legacy topology knob: with `groups` empty, the SoC derives
  /// num_cores/2 homogeneous 2-replica groups (cores 2p/2p+1 form group
  /// p; must be even, 2..8). With explicit `groups`, num_cores is derived
  /// from the group sizes and this field is ignored.
  unsigned num_cores = kNumCores;
  core::CoreConfig core{};
  mem::CacheConfig l2{.size_bytes = 256 * 1024, .ways = 8, .line_bytes = 32};
  bus::L2Timing l2_timing{};

  u64 mem_base = 0;
  u64 mem_size = 64 * 1024 * 1024;
  u64 text_base = 0x0001'0000;
  u64 text_stride = 0x0010'0000;   // per-pair text segment spacing
  u64 data_base0 = 0x0040'0000;    // core 0's data segment
  u64 data_base1 = 0x0080'0000;    // core 1's; later cores continue the stride
  bool shared_data = false;        // ablation A3: a pair shares one data segment

  /// APB peripheral window: core loads/stores here route to the APB bus
  /// (uncached), letting guest programs poll SafeDM directly.
  u64 apb_base = 0x8000'0000;
  u64 apb_size = 0x0010'0000;

  /// Redundancy-group topology. Empty derives the legacy pair layout from
  /// num_cores; group replica counts must each be in [2, 8] and the total
  /// core count in [2, 8].
  std::vector<GroupSpec> groups{};

  /// Initial arbiter round-robin position (run-to-run platform variation).
  unsigned arbiter_bias = 0;

  /// Cycles of tap frames buffered before observers are invoked. Each
  /// core steps straight into a ring of this many frames; a full ring is
  /// handed to every observer in one on_group_cycles call, amortizing
  /// virtual dispatch across the batch. 1 (the default) delivers every
  /// cycle as it completes. Pending frames auto-flush on snapshot/save, at
  /// the end of run(), and before any core's APB-window access, so guest
  /// programs and checkpoints always observe exact per-cycle semantics.
  /// While an observer that needs per-cycle delivery is attached (see
  /// CycleObserver::needs_per_cycle), the SoC delivers every cycle
  /// regardless of this value.
  unsigned observer_batch = 1;
};

/// Observers see their group's tap frames (SafeDM, SafeDE, traces), through
/// one hook for every group size and batch length.
class CycleObserver {
 public:
  virtual ~CycleObserver() = default;

  /// `n_cycles` consecutive completed cycles of an `n_replicas` group:
  /// frames[r][k] is replica r's frame for cycle first_cycle + k. Unless
  /// the observer needs per-cycle delivery, n_cycles may be anything up to
  /// SocConfig::observer_batch.
  virtual void on_group_cycles(u64 first_cycle, const core::CoreTapFrame* const* frames,
                               unsigned n_replicas, unsigned n_cycles) = 0;

  /// True for an observer that must see each cycle as it completes: one
  /// that intervenes in the SoC (SafeDE stalls a core) or reads another
  /// observer's state for the current cycle (a tracer printing SafeDM's
  /// verdict). MpSoc asks once, in add_observer, and then delivers one
  /// cycle per call. Pure sinks (SafeDM, DCLS) keep the default.
  virtual bool needs_per_cycle() const { return false; }
};

/// on_group_cycles for observers that only understand the paper's pair:
/// CHECKs a 2-replica group, then calls observer.on_cycle(cycle, frame0,
/// frame1) for each cycle.
template <class PairObserver>
void deliver_pair_cycles(PairObserver& observer, u64 first_cycle,
                         const core::CoreTapFrame* const* frames, unsigned n_replicas,
                         unsigned n_cycles) {
  SAFEDM_CHECK_MSG(n_replicas == 2, "observer only handles 2-replica groups");
  for (unsigned k = 0; k < n_cycles; ++k)
    observer.on_cycle(first_cycle + k, frames[0][k], frames[1][k]);
}

class MpSoc {
 public:
  explicit MpSoc(const SocConfig& config);

  unsigned num_cores() const { return static_cast<unsigned>(cores_.size()); }

  // ---- group topology ------------------------------------------------------
  unsigned num_groups() const { return static_cast<unsigned>(groups_.size()); }
  unsigned group_size(unsigned group) const {
    SAFEDM_CHECK(group < groups_.size());
    return groups_[group].size();
  }
  /// Global core index of replica `replica` of `group`.
  unsigned group_core(unsigned group, unsigned replica) const {
    SAFEDM_CHECK(group < groups_.size() && replica < groups_[group].size());
    return group_first_[group] + replica;
  }
  const GroupSpec& group_spec(unsigned group) const {
    SAFEDM_CHECK(group < groups_.size());
    return groups_[group];
  }

  /// Load `program` for redundant execution on group 0.
  /// `stagger_nops` nop instructions are executed by replica
  /// `delayed_replica` before it enters the program; all replicas start at
  /// cycle 0. Per-replica decorrelation (text/data/stack offsets, register
  /// shuffle) comes from the group's ReplicaSpecs.
  void load_redundant(const assembler::Program& program, unsigned stagger_nops = 0,
                      unsigned delayed_replica = 1);

  /// Same, for an arbitrary group; `delayed_replica` is a group-local
  /// replica index. Groups can be loaded independently.
  void load_redundant_group(unsigned group, const assembler::Program& program,
                            unsigned stagger_nops = 0, unsigned delayed_replica = 1);

  /// Load two different programs onto pair 0 (diverse software use case).
  void load_distinct(const assembler::Program& program0, const assembler::Program& program1);

  /// Park a core in a halted state (unused cores of a partially loaded SoC).
  void park_core(unsigned core_index);

  /// Advance one clock cycle (cores, then bus, then observers).
  void step();

  /// Run until all cores halt or `max_cycles` elapse; returns cycles run.
  u64 run(u64 max_cycles);

  bool all_halted() const;

  core::Core& core(unsigned i);
  const core::Core& core(unsigned i) const;
  /// Core `i`'s tap frame from the last step.
  const core::CoreTapFrame& frame(unsigned i) const;
  /// Number of prelude nops core `i` executes before its program.
  u64 prelude_commits(unsigned i) const;
  /// Data segment base assigned to core `i`.
  u64 data_base(unsigned i) const;

  mem::PhysMem& memory() { return *memory_; }
  bus::ApbBus& apb() { return apb_; }
  bus::AhbBus& ahb() { return *ahb_; }
  const bus::L2Frontend& l2() const { return *l2_; }
  u64 cycle() const { return cycle_; }
  const SocConfig& config() const { return config_; }

  /// Attach an observer to `group` (default: group 0). An observer that
  /// needs per-cycle delivery pins the whole SoC to batches of one.
  void add_observer(CycleObserver* observer, unsigned group = 0);

  /// Deliver any buffered observer cycles now (no-op when none are
  /// pending). Safe mid-step — the buffer only ever holds completed
  /// cycles — so an APB read always sees observers caught up through the
  /// previous cycle, exactly as per-cycle delivery would. const because
  /// delivery timing is not architectural SoC state.
  void flush_observers() const;

  /// Capture the complete SoC state (memory, L2, bus, cores, tap frames)
  /// as a self-contained snapshot; `restore` rewinds this instance to it.
  /// The snapshot carries a config fingerprint: restoring into an MpSoc
  /// built from a different SocConfig throws StateError. Observers are
  /// not part of the SoC's state — stateful observers (SafeDM, SafeDE,
  /// DCLS) serialize themselves and must be saved/restored alongside,
  /// staying attached to the same pair.
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

  /// Composable forms for embedding the SoC in a larger stream (e.g. a
  /// fault-campaign checkpoint that bundles the SoC with its monitor).
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  void load_group_images(unsigned group, const assembler::Program& program,
                         unsigned stagger_nops, unsigned delayed_replica);
  /// The replica's core config (its override or SocConfig::core), with the
  /// MMIO window forced onto the SoC's APB window.
  core::CoreConfig effective_core_config(unsigned group, unsigned replica) const;

  /// frames_ index of core `i`'s ring slot `slot`.
  std::size_t frame_index(unsigned i, unsigned slot) const {
    return std::size_t{i} * config_.observer_batch + slot;
  }
  /// frames_ index of core `i`'s frame from the last step.
  std::size_t last_frame_index(unsigned i) const {
    return frame_index(i, (cursor_ == 0 ? config_.observer_batch : cursor_) - 1);
  }

  /// Routes the APB window to the peripheral bus, everything else to RAM.
  class RoutingMemPort final : public MemoryPort {
   public:
    RoutingMemPort(const MpSoc& owner, mem::PhysMem& ram, bus::ApbBus& apb, u64 apb_base,
                   u64 apb_size)
        : owner_(owner), ram_(ram), apb_(apb), apb_base_(apb_base), apb_size_(apb_size) {}
    u64 load(u64 addr, unsigned size) override;
    void store(u64 addr, u64 value, unsigned size) override;

   private:
    const MpSoc& owner_;  // flush hook: APB accesses must see observers caught up
    mem::PhysMem& ram_;
    bus::ApbBus& apb_;
    u64 apb_base_;
    u64 apb_size_;
  };

  SocConfig config_;
  std::unique_ptr<mem::PhysMem> memory_;
  std::unique_ptr<bus::L2Frontend> l2_;
  std::unique_ptr<bus::AhbBus> ahb_;
  bus::ApbBus apb_;  // lint: no-snapshot(stateless address decode; devices snapshot themselves)
  std::unique_ptr<RoutingMemPort> mem_port_;  // lint: no-snapshot(stateless routing shim over memory_)
  std::vector<std::unique_ptr<core::Core>> cores_;
  // Tap frames: one ring of config_.observer_batch slots per core. Cores
  // step straight into slot cursor_; the slot written last is each core's
  // frame (SoC state), the ones before it await observer delivery.
  std::vector<core::CoreTapFrame> frames_;
  std::vector<u64> prelude_commits_;
  // Normalized group topology (never empty after construction) and the
  // derived per-core layout. All of it restates SocConfig, so the config
  // fingerprint — not the state body — covers it.
  std::vector<GroupSpec> groups_;      // fingerprinted by save/restore_state directly
  std::vector<unsigned> group_first_;  // lint: no-snapshot(derived from groups_)
  std::vector<u64> core_data_base_;    // lint: no-snapshot(derived from groups_ + address map)
  // per group
  std::vector<std::vector<CycleObserver*>> observers_;  // lint: no-snapshot(observer wiring, re-attached by owner)
  u64 cycle_ = 0;

  // Observer delivery: completed cycles stay pending in the rings until
  // batch_ of them are (or the ring ends, or a flush point comes). Delivery
  // timing is not architectural state — a flush precedes every
  // save/restore — so none of this is serialized, and snapshot bytes are
  // identical across batch sizes.
  unsigned batch_ = 1;   // lint: no-snapshot(observer_batch, or 1 while a per-cycle observer is attached)
  unsigned cursor_ = 0;  // lint: no-snapshot(ring slot the next step writes; save/restore reach frames through it)
  mutable unsigned obs_pending_ = 0;  // lint: no-snapshot(flushed before save_state)
  mutable u64 obs_first_cycle_ = 0;   // lint: no-snapshot(flushed before save_state)
};

}  // namespace safedm::soc
