#pragma once

#include <cstdint>

#include "bio/quality.hpp"
#include "resilience/status.hpp"

namespace lassm::trace {
class Tracer;
}

namespace lassm::resilience {
class FaultPlan;
}

namespace lassm::core {

/// Tunables of the local assembly kernel. Defaults follow the MetaHipMer
/// production configuration as described in the paper and its references.
struct AssemblyOptions {
  /// Hard cap on mer-walk length (Algorithm 2's max_walk_len).
  std::uint32_t max_walk_len = 400;

  /// Mer-size ladder of the iterative walks (Fig. 4, and the kernel's name
  /// in the artifact: iterative_walks_kernel): for a dataset at k, the
  /// kernel reconstructs the hash table and walks at every mer size
  /// k, k-step, ..., down to min_mer_len, keeping the best-accepted walk.
  /// Larger datasets' k therefore do proportionally more construction
  /// rounds per contig — the work amplification behind the paper's
  /// large-k behaviour.
  std::uint32_t mer_ladder_step = 8;

  /// Floor of the ladder (MetaHipMer's minimum local-assembly mer).
  std::uint32_t min_mer_len = 21;

  /// Cap on ladder rungs per contig end (including the initial mer size).
  std::uint32_t max_mer_rungs = 4;

  /// Hash-table sizing: slots = next_pow2(insertions / load_factor). The
  /// pre-processing phase reserves the estimated upper limit up front
  /// (Fig. 3 "Estimate Hash Table Sizes").
  double table_load_factor = 0.5;

  /// Bin contigs by read count before batching so co-scheduled warps have
  /// similar work (Fig. 3 "Contig Binning"); off for the ablation bench.
  bool bin_contigs = true;

  /// Device-memory budget per batch; contigs are offloaded in batches whose
  /// combined hash tables, reads and walk buffers fit (Fig. 3 "Create
  /// Batches").
  std::uint64_t batch_mem_budget_bytes = 1ULL << 30;

  /// Overrides the device warp/sub-group width when nonzero (used for the
  /// SYCL sub-group sweep; the paper settled on 16).
  std::uint32_t subgroup_override = 0;

  /// Host threads driving the simulated warps (the simulator-side analogue
  /// of MetaHipMer launching thousands of independent single-warp
  /// mer-walks): 0 = one per hardware thread, N = a pool of N workers (the
  /// caller is one of them, so 1 runs every task inline). Purely a
  /// host-throughput knob — extensions, counters, traffic and modelled
  /// time are bit-identical for every value (see DESIGN.md "Parallel
  /// execution engine").
  unsigned n_threads = 0;

  /// Observability sink (non-owning): when set, the run records host spans
  /// (launches, workers, steals), reconstructs the simulated-device
  /// timeline and fills the tracer's metrics registry. Null = tracing off,
  /// at near-zero cost (pointer checks only). Tracing never perturbs a
  /// modelled number: extensions, counters, traffic and modelled time are
  /// bit-identical with tracing on or off (see DESIGN.md "Observability").
  trace::Tracer* trace = nullptr;

  /// Phred score at or above which an extension vote counts as high
  /// quality.
  int hi_qual_threshold = bio::kHiQualThreshold;

  /// Minimum high-quality votes for an extension to be viable.
  int min_viable_votes = bio::kMinViableVotes;

  /// Fault injection (non-owning). Every run executes on the hardened
  /// path — per-task exception isolation with bounded retry and
  /// quarantine, walk watchdogs — and this plan only chooses which seams
  /// fire (see src/resilience/fault_plan.hpp). Null, the default, means
  /// the shared empty plan (see plan()): nothing is injected.
  const resilience::FaultPlan* fault_plan = nullptr;

  /// Retry budget for transiently-failed tasks: a task that throws is
  /// re-executed on the driver thread up to this many times, in ascending
  /// task order, before being quarantined.
  unsigned max_task_retries = 2;

  /// This run's rank identity for FaultPlan::device_lost matching (set by
  /// run_multi_gpu_resilient; single-device runs are rank 0).
  std::uint32_t fault_rank = 0;

  /// The plan this run is armed with: `*fault_plan`, or one shared empty
  /// plan when it is null. The only place a null plan is resolved.
  const resilience::FaultPlan& plan() const noexcept;

  /// Rejects out-of-domain configurations (zero max_walk_len, zero ladder
  /// step, load factor outside (0, 1], non-power-of-two subgroup
  /// override, ...) with a kInvalidArgument Status naming the field.
  /// LocalAssembler's constructor enforces this.
  Status validate() const;

  /// validate() plus the device-aware check: a subgroup_override wider
  /// than the device's maximum sub-group width (DeviceSpec::max_subgroup)
  /// has no hardware mapping and used to be silently mis-modelled; it is
  /// now rejected with a field-naming kInvalidArgument Status.
  /// LocalAssembler's constructor enforces this against its device.
  Status validate_for_device(std::uint32_t device_max_subgroup_width) const;
};

}  // namespace lassm::core
