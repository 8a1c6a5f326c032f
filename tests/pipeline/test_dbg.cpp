#include "pipeline/dbg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "support/dbg_oracle.hpp"

namespace lassm::pipeline {
namespace {

KmerCounts from_sequence(const std::string& seq, std::uint32_t k) {
  bio::ReadSet rs;
  rs.append(seq, 35);
  return count_kmers(rs, k);
}

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

TEST(Dbg, SinglePathReconstructsSequence) {
  const std::string seq = random_seq(1, 120);
  const auto contigs = generate_contigs(from_sequence(seq, 21), 21);
  ASSERT_EQ(contigs.size(), 1U);
  EXPECT_EQ(contigs[0].seq, seq);
}

TEST(Dbg, EmptyGraph) {
  DbgStats stats;
  const auto contigs = generate_contigs({}, 21, 0, &stats);
  EXPECT_TRUE(contigs.empty());
  EXPECT_EQ(stats.nodes, 0U);
}

TEST(Dbg, ForkSplitsPaths) {
  // Two sequences sharing a 40-base prefix: the graph forks where they
  // diverge, so no contig may span the junction.
  const std::string prefix = random_seq(2, 40);
  const std::string a = prefix + "A" + random_seq(3, 30);
  const std::string b = prefix + "C" + random_seq(4, 30);
  bio::ReadSet rs;
  rs.append(a, 35);
  rs.append(b, 35);
  DbgStats stats;
  const auto contigs =
      generate_contigs(count_kmers(rs, 15), 15, 0, &stats);
  EXPECT_GE(contigs.size(), 3U);  // prefix + two branches
  EXPECT_GE(stats.forks, 1U);
  // Every contig is a substring of one of the sources.
  for (const auto& c : contigs) {
    EXPECT_TRUE(a.find(c.seq) != std::string::npos ||
                b.find(c.seq) != std::string::npos)
        << c.seq;
  }
}

TEST(Dbg, MinLengthFilter) {
  const std::string seq = random_seq(5, 60);
  const auto all = generate_contigs(from_sequence(seq, 21), 21, 0);
  const auto filtered = generate_contigs(from_sequence(seq, 21), 21, 100);
  EXPECT_EQ(all.size(), 1U);
  EXPECT_TRUE(filtered.empty());
}

TEST(Dbg, PerfectCycleEmitsOneContig) {
  // A circular sequence: k-mers of seq+seq's wraparound form a cycle.
  const std::string unit = random_seq(6, 50);
  const std::string wrapped = unit + unit.substr(0, 20);
  const auto contigs = generate_contigs(from_sequence(wrapped, 21), 21);
  ASSERT_FALSE(contigs.empty());
  std::uint64_t total = 0;
  for (const auto& c : contigs) total += c.length();
  EXPECT_LE(contigs.size(), 2U);
  EXPECT_GE(total, unit.size());
}

TEST(Dbg, DepthIsAverageKmerCount) {
  bio::ReadSet rs;
  const std::string seq = random_seq(7, 80);
  rs.append(seq, 35);
  rs.append(seq, 35);
  rs.append(seq, 35);
  const auto contigs = generate_contigs(count_kmers(rs, 21), 21);
  ASSERT_EQ(contigs.size(), 1U);
  EXPECT_DOUBLE_EQ(contigs[0].depth, 3.0);
}

TEST(Dbg, Deterministic) {
  const std::string seq = random_seq(8, 200);
  bio::ReadSet rs;
  rs.append(seq.substr(0, 120), 35);
  rs.append(seq.substr(80), 35);
  const auto a = generate_contigs(count_kmers(rs, 21), 21);
  const auto b = generate_contigs(count_kmers(rs, 21), 21);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].seq, b[i].seq);
}

TEST(Dbg, OverlappingReadsMergeIntoOneContig) {
  const std::string seq = random_seq(9, 300);
  bio::ReadSet rs;
  for (std::size_t off = 0; off + 100 <= seq.size(); off += 40) {
    rs.append(seq.substr(off, 100), 35);
  }
  const auto contigs = generate_contigs(count_kmers(rs, 21), 21);
  ASSERT_EQ(contigs.size(), 1U);
  EXPECT_EQ(contigs[0].seq, seq.substr(0, contigs[0].seq.size()));
  EXPECT_GT(contigs[0].length(), 250U);
}

// ---------------------------------------------------------------------------
// Randomized differential test against the serial oracle
// (tests/support/dbg_oracle.hpp). Each seed draws a small graph rich in
// forks, joins, self-loops (homopolymer k-mers), perfect cycles,
// tombstoned entries and min_len cuts, and the production generator must
// reproduce the oracle's contigs and stats at every pool size.

struct DrawnGraph {
  KmerCounts counts;
  std::uint32_t k = 0;
  std::uint32_t min_len = 0;
};

DrawnGraph draw_graph(std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  DrawnGraph g;
  g.k = 3 + static_cast<std::uint32_t>(rng.below(11));  // 3..13
  const auto random_bases = [&](std::size_t len) {
    std::string s(len, 'A');
    for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
    return s;
  };
  std::vector<std::string> seqs;
  const std::uint64_t n_seqs = 3 + rng.below(30);
  for (std::uint64_t i = 0; i < n_seqs; ++i) {
    std::string s;
    switch (seqs.empty() ? 0 : rng.below(5)) {
      case 0:  // plain path
        s = random_bases(g.k + rng.below(60));
        break;
      case 1:  // homopolymer run: self-loop k-mers
        s = random_bases(rng.below(10)) +
            std::string(g.k + rng.below(2 * g.k),
                        bio::code_to_base(static_cast<int>(rng.below(4)))) +
            random_bases(rng.below(10));
        break;
      case 2: {  // a unit repeated past one full turn: a cycle
        const std::string unit = random_bases(1 + rng.below(3 * g.k));
        const std::size_t len = unit.size() + g.k + rng.below(unit.size());
        while (s.size() < len) s += unit;
        s.resize(len);
        break;
      }
      case 3: {  // mutated copy of an earlier sequence: forks and joins
        s = seqs[rng.below(seqs.size())];
        const std::uint64_t n_subs = 1 + rng.below(2);
        for (std::uint64_t m = 0; m < n_subs && !s.empty(); ++m) {
          s[rng.below(s.size())] =
              bio::code_to_base(static_cast<int>(rng.below(4)));
        }
        break;
      }
      default: {  // shared prefix or suffix of an earlier sequence
        const std::string& src = seqs[rng.below(seqs.size())];
        const std::size_t cut = rng.below(src.size() + 1);
        s = rng.below(2) == 0 ? src.substr(0, cut) + random_bases(rng.below(30))
                              : random_bases(rng.below(30)) + src.substr(cut);
        break;
      }
    }
    seqs.push_back(s);
  }
  bio::ReadSet rs;
  for (const std::string& s : seqs) {
    rs.append(s, 35);
    if (rng.below(3) == 0) rs.append(s, 35);  // count 2: survives the filter
  }
  g.counts = count_kmers(rs, g.k);
  if (rng.below(2) == 0) filter_low_count(g.counts, 2);
  if (rng.below(2) == 0) {  // tombstone a random eighth of the live nodes
    std::size_t erased = 0;
    for (std::uint32_t s = 0; s < KmerCounts::Table::kShards; ++s) {
      g.counts.table().for_each_in_shard(s, [&](KmerCounts::Table::Entry& e) {
        if (e.value != 0 && rng.below(8) == 0) {
          e.value = 0;
          ++erased;
        }
      });
    }
    g.counts.note_erased(erased);
  }
  const std::uint32_t min_lens[] = {
      0, g.k, g.k + static_cast<std::uint32_t>(rng.below(20)), 40};
  g.min_len = min_lens[rng.below(4)];
  return g;
}

/// First difference between two runs, or "" when they are identical.
std::string first_difference(const bio::ContigSet& want, const DbgStats& ws,
                             const bio::ContigSet& got, const DbgStats& gs) {
  std::ostringstream os;
  if (ws.nodes != gs.nodes || ws.forks != gs.forks ||
      ws.dead_ends != gs.dead_ends || ws.contigs != gs.contigs) {
    os << "stats {nodes, forks, dead_ends, contigs}: want {" << ws.nodes
       << ", " << ws.forks << ", " << ws.dead_ends << ", " << ws.contigs
       << "} got {" << gs.nodes << ", " << gs.forks << ", " << gs.dead_ends
       << ", " << gs.contigs << "}";
    return os.str();
  }
  if (want.size() != got.size()) {
    os << "contig count: want " << want.size() << " got " << got.size();
    return os.str();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint64_t wd = 0;
    std::uint64_t gd = 0;
    std::memcpy(&wd, &want[i].depth, sizeof wd);
    std::memcpy(&gd, &got[i].depth, sizeof gd);
    if (want[i].id != got[i].id || want[i].seq != got[i].seq || wd != gd) {
      os << "contig " << i << ": want {id " << want[i].id << ", " << want[i].seq
         << ", depth " << want[i].depth << "} got {id " << got[i].id << ", "
         << got[i].seq << ", depth " << got[i].depth << "}";
      return os.str();
    }
  }
  return "";
}

TEST(Dbg, MatchesSerialOracleOnRandomGraphs) {
  // LASSM_DBG_SEED=<n> replays one seed (the failure message prints it).
  std::uint64_t first = 1;
  std::uint64_t last = 300;
  if (const char* env = std::getenv("LASSM_DBG_SEED")) {
    first = last = std::strtoull(env, nullptr, 10);
  }
  std::vector<std::unique_ptr<core::WarpExecutionEngine>> pools;
  pools.push_back(nullptr);
  for (const unsigned n : {1U, 2U, 3U, 4U, 8U}) {
    pools.push_back(std::make_unique<core::WarpExecutionEngine>(
        simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
        core::AssemblyOptions{}, n));
  }

  std::uint64_t forks = 0;
  std::uint64_t contigs = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const DrawnGraph g = draw_graph(seed);
    DbgStats want_stats;
    const bio::ContigSet want =
        oracle::generate_contigs_oracle(g.counts, g.min_len, &want_stats);
    forks += want_stats.forks;
    contigs += want.size();
    for (const auto& pool : pools) {
      DbgStats got_stats;
      const bio::ContigSet got =
          generate_contigs(g.counts, g.k, g.min_len, &got_stats, pool.get());
      const std::string diff =
          first_difference(want, want_stats, got, got_stats);
      if (!diff.empty()) {
        ADD_FAILURE() << "threads=" << (pool ? pool->n_threads() : 0)
                      << " k=" << g.k << " min_len=" << g.min_len << ": "
                      << diff << "\n  reproduce: LASSM_DBG_SEED=" << seed
                      << " tests_pipeline"
                         " --gtest_filter=Dbg.MatchesSerialOracleOnRandomGraphs";
        return;
      }
    }
  }
  EXPECT_GT(forks, 0U);
  EXPECT_GT(contigs, 0U);
}

}  // namespace
}  // namespace lassm::pipeline
