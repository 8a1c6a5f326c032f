#pragma once

#include <cstdint>

#include "bio/contig.hpp"
#include "pipeline/kmer_analysis.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// Global de Bruijn graph construction and contig generation (Fig. 2): the
/// filtered k-mer set forms a graph whose maximal non-branching paths are
/// the contigs that local assembly later extends.
namespace lassm::pipeline {

struct DbgStats {
  std::uint64_t nodes = 0;
  std::uint64_t forks = 0;        ///< nodes with out-degree > 1
  std::uint64_t dead_ends = 0;    ///< nodes with out-degree 0
  std::uint64_t contigs = 0;
};

/// Emits one contig per maximal unambiguous path in the k-mer graph.
/// Paths stop at forks (out-degree > 1), joins (next node in-degree > 1),
/// dead ends, and when a cycle closes. Contigs shorter than min_len are
/// dropped. Deterministic: start nodes are processed in lexicographic
/// k-mer order.
///
/// The node set IS the count map — membership probes hit its sharded flat
/// table directly (no separate hash set). Every live node's in/out degree
/// and edge codes are probed once, in a per-shard pass, and kept by dense
/// slot id. The path heads (a few hundred on a metagenome) are sorted, and
/// their walks run concurrently: a walk absorbs only nodes with in-degree
/// 1 behind its own out-degree-1 node, so walks never share a node, and
/// records are emitted in head order. Only the pass-2 cycle breaker runs
/// serially. With a null or 1-worker `pool` the same passes run inline;
/// contigs, depths and stats are bit-identical at every thread count
/// (tests/support/dbg_oracle.hpp keeps the original serial algorithm as
/// the differential oracle).
bio::ContigSet generate_contigs(const KmerCounts& counts, std::uint32_t k,
                                std::uint32_t min_len = 0,
                                DbgStats* stats = nullptr,
                                core::WarpExecutionEngine* pool = nullptr);

}  // namespace lassm::pipeline
