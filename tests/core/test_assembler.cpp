#include "core/assembler.hpp"

#include <gtest/gtest.h>

#include "core/reference.hpp"
#include "workload/dataset.hpp"

namespace lassm::core {
namespace {

AssemblyInput dataset(std::uint32_t k = 21, std::uint32_t contigs = 50,
                      std::uint64_t seed = 42) {
  workload::DatasetParams p = workload::table2_params(k);
  const double ratio =
      static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
  p.num_contigs = contigs;
  p.num_reads = static_cast<std::uint32_t>(contigs * ratio);
  return workload::generate_dataset(p, seed);
}

TEST(Assembler, DeterministicAcrossRuns) {
  const AssemblyInput in = dataset();
  LocalAssembler a(simt::DeviceSpec::a100());
  const AssemblyResult r1 = a.run(in);
  const AssemblyResult r2 = a.run(in);
  EXPECT_EQ(r1.total_time_s, r2.total_time_s);
  EXPECT_EQ(r1.stats.intop_count(), r2.stats.intop_count());
  EXPECT_EQ(r1.stats.traffic.hbm_bytes(), r2.stats.traffic.hbm_bytes());
  ASSERT_EQ(r1.extensions.size(), r2.extensions.size());
  for (std::size_t i = 0; i < r1.extensions.size(); ++i) {
    EXPECT_EQ(r1.extensions[i].right, r2.extensions[i].right);
    EXPECT_EQ(r1.extensions[i].left, r2.extensions[i].left);
  }
}

TEST(Assembler, BinningDoesNotChangeResults) {
  const AssemblyInput in = dataset();
  AssemblyOptions with_bins;
  AssemblyOptions no_bins;
  no_bins.bin_contigs = false;
  const auto r1 =
      LocalAssembler(simt::DeviceSpec::a100(), with_bins).run(in);
  const auto r2 = LocalAssembler(simt::DeviceSpec::a100(), no_bins).run(in);
  for (std::size_t i = 0; i < r1.extensions.size(); ++i) {
    EXPECT_EQ(r1.extensions[i].right, r2.extensions[i].right);
    EXPECT_EQ(r1.extensions[i].left, r2.extensions[i].left);
  }
  // Work counters identical too — only scheduling changes.
  EXPECT_EQ(r1.stats.totals.insertions, r2.stats.totals.insertions);
}

TEST(Assembler, MemoryBudgetDoesNotChangeResults) {
  const AssemblyInput in = dataset();
  AssemblyOptions tight;
  tight.batch_mem_budget_bytes = 1 << 18;
  const auto r1 = LocalAssembler(simt::DeviceSpec::a100()).run(in);
  const auto r2 = LocalAssembler(simt::DeviceSpec::a100(), tight).run(in);
  EXPECT_GT(r2.launches.size(), r1.launches.size());
  for (std::size_t i = 0; i < r1.extensions.size(); ++i) {
    EXPECT_EQ(r1.extensions[i].right, r2.extensions[i].right);
  }
}

TEST(Assembler, ApplyExtendsContigs) {
  AssemblyInput in = dataset();
  const std::uint64_t before = bio::total_contig_bases(in.contigs);
  const auto r = LocalAssembler(simt::DeviceSpec::a100()).run(in);
  LocalAssembler::apply(in, r);
  EXPECT_EQ(bio::total_contig_bases(in.contigs),
            before + r.total_extension_bases());
}

TEST(Assembler, ApplyRejectsMismatchedResult) {
  AssemblyInput in = dataset();
  AssemblyResult bogus;
  EXPECT_THROW(LocalAssembler::apply(in, bogus), std::invalid_argument);
}

TEST(Assembler, RunRejectsMalformedInput) {
  AssemblyInput in = dataset();
  in.left_reads.pop_back();
  EXPECT_THROW(LocalAssembler(simt::DeviceSpec::a100()).run(in),
               std::invalid_argument);
}

TEST(Assembler, RunRejectsOutOfRangeReadIdsAndZeroK) {
  // Batching sizes every task from its reads before any task runs, so a
  // bad read id must be rejected at entry, not read out of bounds.
  const LocalAssembler assembler(simt::DeviceSpec::a100());
  for (const bool left : {false, true}) {
    AssemblyInput in = dataset();
    auto& side = left ? in.left_reads : in.right_reads;
    side[3].push_back(static_cast<std::uint32_t>(in.reads.size()));
    EXPECT_THROW(assembler.run(in), std::invalid_argument) << left;
  }
  AssemblyInput in = dataset();
  in.kmer_len = 0;
  EXPECT_THROW(assembler.run(in), std::invalid_argument);
}

TEST(Assembler, RunAcceptsAReadMappedToBothEnds) {
  // Entry validation checks ranges only: AssemblyInput::validate()'s
  // read-mapped-twice rule is a dataset invariant, not a kernel hazard.
  AssemblyInput in = dataset();
  for (const auto& ids : in.right_reads) {
    if (ids.empty()) continue;
    in.left_reads[0].push_back(ids[0]);
    break;
  }
  ASSERT_FALSE(in.validate());
  EXPECT_NO_THROW(LocalAssembler(simt::DeviceSpec::a100()).run(in));
}

TEST(Assembler, EmptyInput) {
  AssemblyInput in;
  in.kmer_len = 21;
  const auto r = LocalAssembler(simt::DeviceSpec::a100()).run(in);
  EXPECT_TRUE(r.extensions.empty());
  EXPECT_EQ(r.total_extension_bases(), 0U);
}

TEST(Assembler, StatsAreInternallyConsistent) {
  const AssemblyInput in = dataset();
  const auto r = LocalAssembler(simt::DeviceSpec::a100()).run(in);
  EXPECT_GT(r.total_time_s, 0.0);
  EXPECT_GT(r.stats.intop_count(), 0U);
  EXPECT_GT(r.stats.traffic.hbm_bytes(), 0U);
  EXPECT_EQ(r.stats.num_warps, r.stats.warp_cycles.size());
  // Two directions: every contig appears as a warp at most twice.
  EXPECT_LE(r.stats.num_warps, 2 * in.contigs.size());
  // Launch stats sum to the merged stats.
  std::uint64_t launch_instr = 0;
  for (const auto& l : r.launches) launch_instr += l.stats.intop_count();
  EXPECT_EQ(launch_instr, r.stats.intop_count());
  // Derived metrics are finite and positive.
  EXPECT_GT(r.gintops(), 0.0);
  EXPECT_GT(r.intop_intensity(), 0.0);
  EXPECT_GT(r.hbm_gbytes(), 0.0);
}

TEST(Assembler, NativeModelConvenienceConstructor) {
  LocalAssembler a(simt::DeviceSpec::mi250x_gcd());
  EXPECT_EQ(a.model(), simt::ProgrammingModel::kHip);
}

TEST(Assembler, LargerCacheMovesFewerBytes) {
  // Monotonicity property of the memory model: quadrupling the L2 cannot
  // increase HBM traffic on the same input.
  const AssemblyInput in = dataset(77, 60, 5);
  simt::DeviceSpec small_cache = simt::DeviceSpec::mi250x_gcd();
  simt::DeviceSpec big_cache = small_cache;
  big_cache.l2_bytes *= 16;
  const auto r_small = LocalAssembler(small_cache).run(in);
  const auto r_big = LocalAssembler(big_cache).run(in);
  EXPECT_LE(r_big.stats.traffic.hbm_bytes(),
            r_small.stats.traffic.hbm_bytes());
}

TEST(Assembler, ExtensionsAreValidDna) {
  const AssemblyInput in = dataset(33, 40, 3);
  const auto r = LocalAssembler(simt::DeviceSpec::max1550_tile()).run(in);
  for (const auto& e : r.extensions) {
    EXPECT_TRUE(bio::is_valid_sequence(e.left));
    EXPECT_TRUE(bio::is_valid_sequence(e.right));
  }
}

}  // namespace
}  // namespace lassm::core
