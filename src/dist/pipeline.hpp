#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "dist/message_layer.hpp"
#include "pipeline/pipeline.hpp"

/// The end-to-end pipeline driver, at every rank count: pipeline::run_pipeline
/// is this driver at one rank. At more than one rank the graph — not just
/// the contig list — is partitioned. Each rank owns a contiguous
/// range of the k-mer table's 64 hash shards (dist::ShardMap), counts and
/// filters its shards locally with batched remote inserts, classifies and
/// walks its de Bruijn nodes with batched remote degree probes and
/// cross-rank walk handoffs (dist::frontend), and the per-round local
/// assembly runs one simulated device per live rank through
/// pipeline::run_multi_gpu_resilient. All communication is billed through
/// one MessageLayer against the device's NetworkSpec. Whenever a single
/// rank is live at counting time (one requested, or all others lost
/// before counting), stages 1 and 2 run the single-table front end
/// (count_kmers, filter_low_count, generate_contigs) instead of the
/// sharded protocol, and a single live rank's round runs the one-device
/// LocalAssembler.
///
/// Contract: every pipeline output (contigs, extensions, per-round stats,
/// DBG stats) is bit-identical to the one-rank run, for every rank count,
/// thread count and traced/untraced combination — ranks and threads are
/// throughput/cost knobs, never result knobs. Rank loss (the FaultPlan
/// rank_loss seam at phase boundaries, or device_loss mid-round) recovers
/// bit-identically: survivors adopt the lost rank's shard range and
/// recount the orphaned shards from the full read set.
namespace lassm::dist {

struct DistOptions {
  /// Simulated ranks (clamped to [1, ShardMap::kMaxRanks]). 1 is
  /// pipeline::run_pipeline, with zero traffic.
  std::uint32_t ranks = 1;
  /// The inner pipeline configuration. checkpoint_path checkpoints and
  /// resumes at every rank count (the rank count is part of the
  /// checkpoint's configuration fingerprint); the assembly fault plan's
  /// rank_loss / rank_msg_drop / device_loss seams are honoured.
  pipeline::PipelineOptions pipeline;
};

/// Per-rank front-end accounting.
struct DistRankReport {
  std::uint32_t rank = 0;
  bool lost = false;           ///< rank died at some point of the run
  std::uint64_t reads = 0;     ///< reads in the rank's counting block
  std::uint64_t kmers = 0;     ///< distinct owned k-mers after counting
  std::uint64_t shards = 0;    ///< hash shards owned at end of run
};

struct DistResult {
  /// Bit-identical to run_pipeline's result on the same reads/device/
  /// options (wall-clock FrontendTimings and align_time_s excepted — those
  /// measure this run — and, at more than one rank, kernel_time_s, the
  /// fleet makespan). Its `failures` holds the rank losses and the
  /// round-level faults.
  pipeline::PipelineResult pipeline;
  std::vector<DistRankReport> ranks;   ///< indexed by rank id
  TrafficStats traffic;                ///< message accounting, stages run
  std::uint64_t count_remote_msgs = 0; ///< measured remote inserts (count)
  double count_remote_msgs_model = 0.0;///< analytic prediction of the above
  double network_s = 0.0;              ///< modelled network seconds, whole run
};

/// Runs the pipeline over `opts.ranks` simulated ranks. `log` (optional)
/// receives one line per stage, plus the rank losses and, at more than one
/// rank, a closing traffic line; the log stream carries no wall-clock
/// values, so it is bit-identical at every thread count.
DistResult run_distributed(const bio::ReadSet& reads,
                           const simt::DeviceSpec& device,
                           const DistOptions& opts = {},
                           std::ostream* log = nullptr);

}  // namespace lassm::dist
