#pragma once

#include <cstdint>

#include "bio/contig.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"

/// Reference implementations kept with the tests, not in production code:
/// each one is the plain serial form of an algorithm whose production
/// version is parallel, and differential tests hold the two to identical
/// output.
namespace lassm::oracle {

/// The de Bruijn contig generator in its original serial form: every live
/// node in one globally sorted order, head classification by direct
/// degree probes, then walks that re-probe out- and in-degree at every
/// step — pass 1 from every head in k-mer order, pass 2 from every node
/// still unvisited (breaking each perfect cycle at its smallest k-mer).
/// pipeline::generate_contigs must match it exactly: ids, sequences,
/// depth bits and DbgStats.
bio::ContigSet generate_contigs_oracle(const pipeline::KmerCounts& counts,
                                       std::uint32_t min_len = 0,
                                       pipeline::DbgStats* stats = nullptr);

}  // namespace lassm::oracle
