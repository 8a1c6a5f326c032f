#include "pipeline/dbg.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <string>
#include <vector>

#include "pipeline/parallel.hpp"

namespace lassm::pipeline {

namespace {

using Table = KmerCounts::Table;
using Offsets = std::array<std::uint64_t, Table::kShards + 1>;

/// Node membership is a live entry (count != 0) in the count map's flat
/// table — the graph needs no second hash set.
bool is_node(const std::uint32_t* count) noexcept {
  return count != nullptr && *count != 0;
}

/// A live node's adjacency, kept by dense slot id: bit c of the low
/// nibble is set when successor(c) is a node, bit c of the high nibble
/// when predecessor(c) is, and kBranchingPred when some predecessor has
/// out-degree > 1. Each edge is probed once, from its source node.
using Adjacency = std::uint16_t;
constexpr Adjacency kBranchingPred = 1U << 8;

int out_degree(Adjacency a) noexcept { return std::popcount(a & 0xFU); }
int in_degree(Adjacency a) noexcept { return std::popcount(a >> 4 & 0xFU); }
/// The highest set code of a nibble: the only one when the degree is 1.
int last_code(unsigned nibble) noexcept { return std::bit_width(nibble) - 1; }

/// A node a path walk starts from; ordered by k-mer.
struct PathStart {
  bio::PackedKmer key;
  std::uint64_t id;     ///< dense slot id
  std::uint32_t count;  ///< the node's depth contribution
  bool operator<(const PathStart& o) const noexcept { return key < o.key; }
};

/// One finished walk, before the min_len cut and id assignment.
struct PathRecord {
  std::string seq;
  double depth_sum = 0.0;
  std::uint64_t path_nodes = 0;
};

/// The live nodes selected by `keep(dense_id, entry)`, in k-mer order:
/// per-shard scans run in parallel; the (small) concatenation is sorted.
template <class Keep>
std::vector<PathStart> collect_sorted(const Table& table,
                                      const Offsets& offsets,
                                      core::WarpExecutionEngine* pool,
                                      const Keep& keep) {
  std::array<std::vector<PathStart>, Table::kShards> per_shard;
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    const auto sid = static_cast<std::uint32_t>(shard);
    table.for_each_slot_in_shard(
        sid, [&](std::size_t slot, const Table::Entry& e) {
          const std::uint64_t id = offsets[sid] + slot;
          if (e.value != 0 && keep(id, e)) {
            per_shard[shard].push_back({e.key, id, e.value});
          }
        });
  });
  std::vector<PathStart> out;
  for (const auto& v : per_shard) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

bio::ContigSet generate_contigs(const KmerCounts& counts, std::uint32_t k,
                                std::uint32_t min_len, DbgStats* stats,
                                core::WarpExecutionEngine* pool) {
  (void)k;  // implied by the packed keys; kept for call-site clarity
  const Table& table = counts.table();
  const Offsets offsets = table.dense_offsets();

  // Degree pass: each live node X probes its 4 successors once. A found
  // edge X -> S sets its code as an out bit on X and X's first base as a
  // predecessor bit on S (atomically: S may be in another task's shard);
  // a fork marks all its successors. Every later step reads these bits.
  std::vector<Adjacency> adj(offsets.back(), 0);
  const auto set_bits = [&](std::uint64_t id, Adjacency bits) {
    std::atomic_ref<Adjacency>(adj[id]).fetch_or(bits,
                                                 std::memory_order_relaxed);
  };
  std::array<std::uint64_t, Table::kShards> forks{};
  std::array<std::uint64_t, Table::kShards> dead_ends{};
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    const auto sid = static_cast<std::uint32_t>(shard);
    table.for_each_slot_in_shard(
        sid, [&](std::size_t slot, const Table::Entry& e) {
          if (e.value == 0) return;
          const Adjacency as_pred = 1U << (4 + e.key.code_at(0));
          std::array<std::uint64_t, bio::kNumBases> succ{};
          unsigned out = 0;
          for (int code = 0; code < bio::kNumBases; ++code) {
            const Table::Found f =
                table.dense_find(e.key.successor(code), offsets);
            if (!is_node(f.value)) continue;
            succ[code] = f.id;
            out |= 1U << code;
            set_bits(f.id, as_pred);
          }
          set_bits(offsets[sid] + slot, static_cast<Adjacency>(out));
          const int degree = std::popcount(out);
          if (degree == 0) ++dead_ends[shard];
          if (degree < 2) return;
          ++forks[shard];
          for (int code = 0; code < bio::kNumBases; ++code) {
            if ((out >> code & 1U) != 0) set_bits(succ[code], kBranchingPred);
          }
        });
  });

  // Head pass: a node starts a path unless it has exactly one
  // predecessor and that predecessor has no other successor.
  const std::vector<PathStart> heads = collect_sorted(
      table, offsets, pool, [&](std::uint64_t id, const Table::Entry&) {
        return in_degree(adj[id]) != 1 || (adj[id] & kBranchingPred) != 0;
      });

  // Walks extend through out-degree-1 nodes and stop at a join, a node
  // already visited, a fork or a dead end. The visited set is a bitmap
  // over the flat table's dense slot ids.
  std::vector<std::uint8_t> visited(offsets.back(), 0);
  const auto walk = [&](const PathStart& start) {
    PathRecord r;
    r.seq = start.key.unpack();
    r.depth_sum = static_cast<double>(start.count);
    r.path_nodes = 1;
    visited[start.id] = 1;
    bio::PackedKmer cur = start.key;
    std::uint64_t cur_id = start.id;
    while (out_degree(adj[cur_id]) == 1) {
      const int code = last_code(adj[cur_id] & 0xFU);
      const bio::PackedKmer next = cur.successor(code);
      const Table::Found f = table.dense_find(next, offsets);
      // In-degree before visited: a node with in-degree 1 behind an
      // out-degree-1 node is reachable only through this walk, so no
      // other concurrent walk ever touches its visited byte.
      if (in_degree(adj[f.id]) != 1 || visited[f.id] != 0) break;
      r.seq.push_back(bio::code_to_base(code));
      r.depth_sum += static_cast<double>(*f.value);
      visited[f.id] = 1;
      cur = next;
      cur_id = f.id;
      ++r.path_nodes;
    }
    return r;
  };

  // Pass 1: every head's walk, concurrently. No walk absorbs a head or a
  // node of another walk, so the records are the serial ones; they are
  // emitted in head order.
  std::vector<PathRecord> records(heads.size());
  stage_for(pool, heads.size(),
            [&](std::size_t i, unsigned) { records[i] = walk(heads[i]); });

  // Pass 2: anything left lies on a perfect cycle; break each at its
  // smallest unvisited k-mer, serially (one cycle's walk visits the rest
  // of its candidates).
  for (const PathStart& s : collect_sorted(
           table, offsets, pool,
           [&](std::uint64_t id, const Table::Entry&) {
             return visited[id] == 0;
           })) {
    if (visited[s.id] == 0) records.push_back(walk(s));
  }

  bio::ContigSet contigs;
  for (PathRecord& r : records) {
    if (r.seq.size() < min_len) continue;
    bio::Contig c;
    c.id = contigs.size();
    c.seq = std::move(r.seq);
    c.depth = r.depth_sum / static_cast<double>(r.path_nodes);
    contigs.push_back(std::move(c));
  }

  if (stats != nullptr) {
    DbgStats s;
    s.nodes = counts.size();
    for (std::size_t i = 0; i < Table::kShards; ++i) {
      s.forks += forks[i];
      s.dead_ends += dead_ends[i];
    }
    s.contigs = contigs.size();
    *stats = s;
  }
  return contigs;
}

}  // namespace lassm::pipeline
