#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/assembler.hpp"
#include "pipeline/aligner.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"

/// The end-to-end mini-MetaHipMer pipeline (Fig. 2): k-mer analysis ->
/// global de Bruijn contig generation -> per-iteration {alignment -> local
/// assembly} over the production k ladder {21, 33, 55, 77}.
namespace lassm::pipeline {

struct PipelineOptions {
  /// Mer sizes of the iterative local-assembly rounds (Fig. 2's loop).
  std::vector<std::uint32_t> k_iterations{21, 33, 55, 77};
  std::uint32_t contig_k = 21;        ///< k of the global de Bruijn graph
  std::uint32_t min_kmer_count = 2;   ///< k-mer analysis error filter
  std::uint32_t min_contig_len = 100;
  /// Stage-1 counting strategy. kAuto inserts into the lock-free shared
  /// table whenever the run has pool workers; kMergeOracle forces the
  /// per-chunk + merge serial-oracle path (differential/bisection runs).
  /// All modes are bit-identical in every pipeline output.
  CountMode count_mode = CountMode::kAuto;
  AlignerOptions aligner;
  /// Local assembly tunables; assembly.n_threads also sets the host
  /// parallelism of both the simulated kernel and the CPU reference.
  core::AssemblyOptions assembly;
  /// Run local assembly on the CPU reference instead of a simulated device
  /// (faster; no performance counters).
  bool use_reference = false;
  /// Checkpoint file path ("" = checkpointing off). With a path set, the
  /// pipeline state is written after k-mer analysis / contig generation and
  /// after every completed k-round; a fresh run that finds a loadable
  /// checkpoint whose configuration matches (same contig_k, k ladder and
  /// rank count) resumes from the last completed round instead of starting
  /// over. The resumed run's result is bit-identical to an uninterrupted
  /// one: the checkpoint round-trips contig depths and modelled times
  /// exactly, and replays the rank losses so later rounds see the same
  /// live fleet.
  std::string checkpoint_path;
};

struct IterationReport {
  std::uint32_t k = 0;
  std::uint64_t contigs = 0;
  std::uint64_t total_bases = 0;
  std::uint64_t n50 = 0;
  std::uint64_t mapped_reads = 0;
  std::uint64_t extension_bases = 0;
  double kernel_time_s = 0.0;  ///< modelled device time (0 for reference)
  /// Host wall-clock seconds of this round's alignment stage.
  /// Observability only (machine-dependent, unlike the modelled numbers):
  /// not checkpointed, so rounds restored by a resume report 0.
  double align_time_s = 0.0;
};

/// Host wall-clock seconds of the pre-round front-end stages; measured on
/// every run and mirrored onto the trace metrics gauges when tracing.
/// Observability only — not checkpointed. Like the distributed run's
/// message traffic and per-rank read/k-mer counts, these cover only the
/// stages the run executed: a resumed run reports 0 for the stages it
/// skipped.
struct FrontendTimings {
  double count_s = 0.0;   ///< k-mer counting
  double filter_s = 0.0;  ///< low-count filter
  double dbg_s = 0.0;     ///< de Bruijn contig generation
};

struct PipelineResult {
  bio::ContigSet contigs;
  DbgStats dbg;
  std::uint64_t kmers_total = 0;
  std::uint64_t kmers_filtered = 0;
  FrontendTimings frontend;
  std::vector<IterationReport> iterations;
  /// Task faults the local-assembly rounds absorbed (retried or
  /// quarantined tasks, watchdog aborts, injected seams) and, in a
  /// multi-rank run, the ranks lost (rebalances, devices_lost), merged over
  /// the stages this run executed. Not checkpointed: a resumed run reports
  /// only the stages it ran.
  resilience::FailureReport failures;
};

/// On-disk pipeline state between k-rounds: everything stage 3 needs to
/// continue (contigs so far, per-round reports, stage-1/2 summary numbers,
/// the ranks lost so far) plus the configuration fingerprint used to
/// reject checkpoints from a differently-configured run. The rank count is
/// part of the fingerprint because a multi-rank round's kernel_time_s is
/// the fleet makespan.
struct PipelineCheckpoint {
  std::uint32_t contig_k = 0;
  std::vector<std::uint32_t> k_iterations;  ///< full ladder of the run
  std::uint32_t ranks = 1;                  ///< simulated ranks of the run
  /// Ranks lost so far, in loss order: a resume replays ShardMap::adopt in
  /// this order to recover the live set and the shard ownership.
  std::vector<std::uint32_t> lost_ranks;
  std::uint32_t rounds_done = 0;            ///< completed stage-3 rounds
  std::uint64_t kmers_total = 0;
  std::uint64_t kmers_filtered = 0;
  DbgStats dbg;
  bio::ContigSet contigs;                   ///< state after `rounds_done`
  std::vector<IterationReport> iterations;  ///< one per completed round
};

/// Writes/reads a checkpoint. Text format, versioned; doubles (contig
/// depth, modelled kernel time) round-trip bit-exactly via their IEEE bit
/// patterns. save returns kIoError if the stream fails; load returns
/// kParseError (with line context) on malformed/truncated input, so a
/// checkpoint torn by a crash is rejected rather than resumed.
Status save_checkpoint(std::ostream& os, const PipelineCheckpoint& cp);
Result<PipelineCheckpoint> load_checkpoint(std::istream& is);

/// Path convenience wrappers. load returns kIoError when the file cannot
/// be opened (distinct from a corrupt file's kParseError).
Status save_checkpoint_file(const std::string& path,
                            const PipelineCheckpoint& cp);
Result<PipelineCheckpoint> load_checkpoint_file(const std::string& path);

/// Assembles `reads` on the given device model. `log` (optional) receives a
/// line per stage.
///
/// This is dist::run_distributed at one rank (defined in lassm_dist, which
/// callers link): one driver runs the k-round ladder, checkpoint/resume
/// and failure reporting at every rank count.
///
/// The pipeline creates a single warp-execution pool of assembly.n_threads
/// workers up front and shares it across the front-end stages (k-mer
/// counting/filtering, contig generation, per-round alignment) and every
/// round's local-assembly launches, so no stage respawns threads. Every
/// output is bit-identical at every thread count; threads are purely a
/// throughput knob.
PipelineResult run_pipeline(const bio::ReadSet& reads,
                            const simt::DeviceSpec& device,
                            const PipelineOptions& opts = {},
                            std::ostream* log = nullptr);

}  // namespace lassm::pipeline
