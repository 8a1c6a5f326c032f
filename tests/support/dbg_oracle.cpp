#include "support/dbg_oracle.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace lassm::oracle {

namespace {

using Table = pipeline::KmerCounts::Table;

bool is_node(const std::uint32_t* count) noexcept {
  return count != nullptr && *count != 0;
}

int out_degree(const Table& nodes, const bio::PackedKmer& km,
               int* only_code = nullptr) {
  int degree = 0;
  for (int code = 0; code < bio::kNumBases; ++code) {
    if (is_node(nodes.find(km.successor(code)))) {
      ++degree;
      if (only_code != nullptr) *only_code = code;
    }
  }
  return degree;
}

int in_degree(const Table& nodes, const bio::PackedKmer& km,
              bio::PackedKmer* only_pred = nullptr) {
  int degree = 0;
  for (int code = 0; code < bio::kNumBases; ++code) {
    const bio::PackedKmer pred = km.predecessor(code);
    if (is_node(nodes.find(pred))) {
      ++degree;
      if (only_pred != nullptr) *only_pred = pred;
    }
  }
  return degree;
}

}  // namespace

bio::ContigSet generate_contigs_oracle(const pipeline::KmerCounts& counts,
                                       std::uint32_t min_len,
                                       pipeline::DbgStats* stats) {
  const Table& table = counts.table();

  std::vector<bio::PackedKmer> order;
  for (std::uint32_t s = 0; s < Table::kShards; ++s) {
    table.for_each_in_shard(s, [&](const Table::Entry& e) {
      if (e.value != 0) order.push_back(e.key);
    });
  }
  std::sort(order.begin(), order.end());

  pipeline::DbgStats local_stats;
  local_stats.nodes = counts.size();
  std::vector<std::uint8_t> is_head(order.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    bio::PackedKmer only_pred;
    const int in = in_degree(table, order[i], &only_pred);
    is_head[i] = (in != 1 || out_degree(table, only_pred) > 1) ? 1 : 0;
    const int out = out_degree(table, order[i]);
    if (out > 1) ++local_stats.forks;
    if (out == 0) ++local_stats.dead_ends;
  }

  const auto offsets = table.dense_offsets();
  std::vector<std::uint8_t> visited(offsets.back(), 0);
  bio::ContigSet contigs;

  const auto emit_path = [&](const bio::PackedKmer& start) {
    const Table::Found s = table.dense_find(start, offsets);
    if (visited[s.id] != 0) return;
    std::string seq = start.unpack();
    double depth_sum = static_cast<double>(*s.value);
    std::uint64_t path_nodes = 1;
    visited[s.id] = 1;

    bio::PackedKmer cur = start;
    while (true) {
      int only_code = -1;
      if (out_degree(table, cur, &only_code) != 1) break;
      const bio::PackedKmer next = cur.successor(only_code);
      const Table::Found f = table.dense_find(next, offsets);
      if (visited[f.id] != 0) break;
      if (in_degree(table, next) != 1) break;
      seq.push_back(bio::code_to_base(only_code));
      depth_sum += static_cast<double>(*f.value);
      visited[f.id] = 1;
      cur = next;
      ++path_nodes;
    }

    if (seq.size() >= min_len) {
      bio::Contig c;
      c.id = contigs.size();
      c.seq = std::move(seq);
      c.depth = depth_sum / static_cast<double>(path_nodes);
      contigs.push_back(std::move(c));
    }
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    if (is_head[i] != 0) emit_path(order[i]);
  }
  for (const bio::PackedKmer& km : order) emit_path(km);

  local_stats.contigs = contigs.size();
  if (stats != nullptr) *stats = local_stats;
  return contigs;
}

}  // namespace lassm::oracle
