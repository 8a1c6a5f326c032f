#pragma once

#include <cstdint>
#include <vector>

#include "bio/read.hpp"
#include "dist/dist_table.hpp"
#include "pipeline/dbg.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// Distributed pipeline front-end: k-mer counting, low-count filtering and
/// de Bruijn contig generation over a rank-sharded DistKmerTable, with all
/// remote operations batched through the MessageLayer. Every function here
/// is driver-thread orchestration; the worker pool only ever runs
/// rank-local chunk scans and shard merges (the same deterministic
/// chunk-order discipline as the single-rank front-end), so results are
/// bit-identical to the 1-rank oracle at every (ranks x threads)
/// combination — the contract the tests/dist suite pins.
namespace lassm::dist {

/// Per-run accounting of the distributed counting stage.
struct CountStats {
  std::uint64_t windows = 0;           ///< k-mer windows scanned
  std::uint64_t remote_msgs = 0;       ///< remote InsertMsgs actually sent
  /// Analytic prediction of remote_msgs: for each scanning rank, its
  /// windows land on a uniform hash, of which (64 - owned_shards) / 64
  /// are remote. The weak-scaling bench holds the measured value to this
  /// within 5%.
  double remote_msgs_model = 0.0;
};

/// Counts k-mers of `reads` into the rank-sharded table: reads are split
/// into contiguous blocks across the live ranks, each block is scanned in
/// deterministic chunks (locally-owned k-mers into per-chunk partial maps
/// merged shard-wise in chunk order; remote k-mers enqueued uncombined to
/// their owners in chunk order), then one flush epoch delivers and every
/// rank drains its remote inserts in (src, send-order). `shard_mask`
/// restricts the scan to k-mers of the set shards (bit s = FlatKmerTable
/// shard s): ~0 for a full count, the orphaned shards for rank-loss
/// recounting. Callers must rebuild_size() afterwards (the driver does).
CountStats count_kmers_dist(DistKmerTable& table, const bio::ReadSet& reads,
                            std::uint32_t k, std::uint64_t shard_mask,
                            core::WarpExecutionEngine* pool);

/// Applies the low-count error filter on every live rank's local shards.
/// Returns the total k-mers tombstoned (== the oracle's filter count).
std::size_t filter_low_count_dist(DistKmerTable& table,
                                  std::uint32_t min_count,
                                  core::WarpExecutionEngine* pool);

/// Distributed de Bruijn contig generation, bit-identical to
/// pipeline::generate_contigs on the merged table. Each rank lists its
/// owned live nodes in shard-slot order (no global node order is built)
/// and classifies them with batched remote degree probes (two find
/// epochs: successor/predecessor presence, then the unique predecessor's
/// out-degree for head detection). It walks unitigs from its heads with
/// cross-rank handoff via batched walk messages; the pass-1 records are
/// sorted by head. A final serial pass over the unvisited nodes, sorted
/// globally, breaks the remaining pure cycles exactly where
/// generate_contigs breaks them.
bio::ContigSet generate_contigs_dist(DistKmerTable& table, std::uint32_t k,
                                     std::uint32_t min_len,
                                     pipeline::DbgStats* stats,
                                     core::WarpExecutionEngine* pool);

}  // namespace lassm::dist
