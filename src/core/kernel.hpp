#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bio/read.hpp"
#include "core/loc_ht.hpp"
#include "core/ladder.hpp"
#include "core/options.hpp"
#include "memsim/tiered.hpp"
#include "simt/counters.hpp"
#include "simt/device.hpp"

namespace lassm::core {

/// Integer-operation costs of the kernel's non-hash arithmetic, charged per
/// lane. The MurmurHashAligned2 costs (Table V) dominate; these small
/// constants cover index math, predicates and collective overheads and are
/// chosen from instruction counts of the corresponding CUDA snippets.
namespace ops {
inline constexpr std::uint64_t kInsertSetup = 10;   ///< k-mer/qual extraction
inline constexpr std::uint64_t kProbeRound = 8;     ///< CAS setup, wraparound
inline constexpr std::uint64_t kKeyCompareBase = 6; ///< + mer/4 word compares
inline constexpr std::uint64_t kVoteUpdate = 12;    ///< vote bucket increment
inline constexpr std::uint64_t kWalkStep = 20;      ///< window shift, state
inline constexpr std::uint64_t kLoopCheck = 4;      ///< visited-slot test
inline constexpr std::uint64_t kMatchAny = 8;       ///< __match_any_sync
inline constexpr std::uint64_t kSyncWarp = 2;       ///< __syncwarp(mask)
inline constexpr std::uint64_t kAllReduce = 4;      ///< HIP __all per round
inline constexpr std::uint64_t kSgBarrier = 6;      ///< SYCL sg.barrier ops
inline constexpr std::uint64_t kTableInitPerSlot = 2;
inline constexpr std::uint64_t kShflBroadcast = 2;  ///< walk-state broadcast

constexpr std::uint64_t key_compare(std::uint32_t mer) noexcept {
  return kKeyCompareBase + mer / 4;
}
}  // namespace ops

/// Extra cycles a SYCL sub-group barrier costs beyond its issue slots.
inline constexpr std::uint32_t kSgBarrierLatencyCycles = 8;

/// Everything one warp needs to extend one contig end. The contig is
/// pre-oriented so that the walk always extends to the right (the left
/// extension kernel passes the reverse complement).
struct WarpTask {
  std::string_view contig;
  std::uint64_t contig_sim_addr = 0;
  const bio::ReadSet* reads = nullptr;      ///< oriented read set
  std::span<const std::uint32_t> read_ids;  ///< reads aligned to this end
  std::uint64_t reads_sim_base = 0;
  std::uint64_t quals_sim_base = 0;
  std::uint64_t table_sim_base = 0;
  std::uint64_t walkbuf_sim_addr = 0;
  std::uint32_t kmer_len = 0;
  /// Stable fault-injection identity (resilience::contig_fault_key of the
  /// contig's id and walk side). Pure metadata: it only selects which
  /// tasks the run's FaultPlan faults, and it is independent of batching
  /// and thread assignment so injected faults are deterministic.
  std::uint64_t fault_key = 0;
};

/// Per-task trace record, produced only when AssemblyOptions::trace is set:
/// warp-local cycle offsets of every ladder rung's construct and walk
/// phases plus the per-rung outcome. Offsets are read from the task's own
/// modelled cycle counter — recording is purely observational, so traced
/// and untraced runs stay bit-identical. The assembler maps these offsets
/// onto the simulated-device timeline after the deterministic merge.
struct WarpTaskTrace {
  struct Rung {
    std::uint32_t mer = 0;
    std::uint64_t start_cycles = 0;          ///< rung begin (construct start)
    std::uint64_t construct_end_cycles = 0;  ///< construct end == walk start
    std::uint64_t end_cycles = 0;            ///< walk end
    std::uint64_t probe_rounds = 0;          ///< hash probes this rung
    std::uint32_t walk_len = 0;              ///< bases walked this rung
    WalkState state = WalkState::kMissing;
  };
  std::vector<Rung> rungs;
};

/// Outcome of one warp's work on one contig end.
struct WarpResult {
  std::string extension;                  ///< bases appended rightward
  std::uint32_t accepted_mer = 0;         ///< ladder rung that produced it
  WalkState final_state = WalkState::kMissing;
  simt::WarpCounters counters;
  memsim::TrafficStats traffic;
  std::unique_ptr<WarpTaskTrace> trace;   ///< null unless tracing
  /// Fault accounting (mem_faults stays zero under an empty fault plan;
  /// walk_aborts counts any runaway walk the watchdog cancelled).
  std::uint32_t mem_faults = 0;           ///< injected tier interruptions
  std::uint32_t walk_aborts = 0;          ///< rungs the watchdog cancelled
};

/// Executes contig-end warps for one kernel launch. The context owns the
/// reusable scratch (hash table slab, lane arrays, walk buffer and the
/// warp-effective cache hierarchy) and knows the batch's warp concurrency,
/// from which each warp's fair-share cache slices are derived (see
/// DESIGN.md on the warp-effective cache model).
///
/// Reset contract: `table_`, `lanes_`, `walkbuf_` and `mem_` are mutable
/// scratch shared across run() calls. run() re-initialises every piece of
/// scratch it reads before reading it (lanes and the memory hierarchy at
/// entry, the table before each ladder rung, the walk buffer before each
/// walk), so a context never leaks state between tasks — a requirement for
/// the pooled contexts of the parallel execution engine, whose contexts
/// service arbitrary interleavings of tasks. Consequently run(task) is a
/// pure function of (device, model, options, concurrency, task): any
/// context with the same configuration yields bit-identical results.
/// A context must only ever be used by one thread at a time.
class WarpKernelContext {
 public:
  WarpKernelContext(const simt::DeviceSpec& dev, simt::ProgrammingModel pm,
                    const AssemblyOptions& opts, std::uint64_t concurrency);

  /// Simulates one warp end-to-end: the mer-size ladder of
  /// {construct (Algorithm 1) -> mer-walk (Algorithm 2)} rounds of Fig. 4.
  ///
  /// The task must be well formed (read ids in range, nonzero kmer_len);
  /// LocalAssembler::run checks its input before building any task.
  ///
  /// `attempt` is the execution attempt (0 = first try). The options'
  /// FaultPlan (AssemblyOptions::plan()) decides the injected seams:
  /// transient ones fire exclusively at attempt 0 so retries can succeed,
  /// the bad-input seam raises a kCorruptInput StatusError, and mem stalls
  /// interrupt the tier between rungs. A watchdog cancels walks that
  /// exceed the max_walk_len-derived iteration budget as
  /// WalkState::kAborted; it never trips on a healthy walk. With the empty
  /// plan nothing fires and no modelled number changes.
  WarpResult run(const WarpTask& task, unsigned attempt = 0);

  /// Re-derives the fair-share cache slices for a new batch concurrency,
  /// keeping the context's scratch allocations. Equivalent to constructing
  /// a fresh context with the new concurrency; used by the execution
  /// engine to reuse per-worker contexts across batches.
  void reconfigure(std::uint64_t concurrency);

  std::uint32_t width() const noexcept { return width_; }

 private:
  struct LaneState {
    std::uint32_t read_id = 0;
    std::uint32_t pos = 0;
    std::uint32_t slot = 0;
    bool done = false;
    bool valid = false;
  };

  void construct(const WarpTask& task, std::uint32_t mer,
                 memsim::TieredMemory& mem, simt::WarpCounters& ctr);

  /// Lockstep insertion of up to width() k-mers (one per lane); the three
  /// programming-model protocols differ in per-round collective cost.
  void insert_lockstep(const WarpTask& task, std::uint32_t mer,
                       std::uint32_t active, memsim::TieredMemory& mem,
                       simt::WarpCounters& ctr);

  struct WalkOutcome {
    std::string walk;
    WalkState state = WalkState::kMissing;
  };
  /// `inject_hang` simulates a walk that stops making progress (the
  /// kWalkHang seam): the chosen extension is repeatedly discarded, which
  /// without the watchdog would loop forever. The watchdog budget bounds
  /// every walk regardless.
  WalkOutcome merwalk(const WarpTask& task, std::uint32_t mer,
                      memsim::TieredMemory& mem, simt::WarpCounters& ctr,
                      bool inject_hang);

  const simt::DeviceSpec& dev_;
  simt::ProgrammingModel pm_;
  AssemblyOptions opts_;
  std::uint32_t width_;
  memsim::CacheConfig l1_cfg_;
  memsim::CacheConfig l2_cfg_;
  /// Warp-effective hierarchy, reset (not reallocated) per task: the cache
  /// set arrays dominate per-task allocation cost otherwise.
  memsim::TieredMemory mem_;
  LocHashTable table_;
  std::vector<LaneState> lanes_;
  /// Per-(read, mer) precomputed murmur slots: slot_pre_[pos] is the table
  /// slot of the k-mer starting at pos in the read construct() is currently
  /// inserting. Filled once per read in one rolling pass; overwritten per
  /// read, so it is scratch under the reset contract (construct writes the
  /// read's full range before insert_lockstep reads it).
  std::vector<std::uint32_t> slot_pre_;
  std::string walkbuf_;        ///< seed + walk characters (simulated buffer)
  std::uint32_t walk_epoch_ = 0;  ///< loop-detection epoch (see HtEntry)
};

}  // namespace lassm::core
