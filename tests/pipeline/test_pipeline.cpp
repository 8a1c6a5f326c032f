#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bio/rng.hpp"
#include "resilience/fault_plan.hpp"

namespace lassm::pipeline {
namespace {

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

/// Shotgun reads over a genome at the given coverage, 2 reads of coverage
/// dropped at the chromosome ends so local assembly has work to do.
bio::ReadSet shotgun(const std::string& genome, double coverage,
                     std::uint32_t read_len, std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

TEST(Pipeline, AssemblesCleanGenome) {
  const std::string genome = random_seq(1, 8000);
  const bio::ReadSet reads = shotgun(genome, 12.0, 120, 2);
  PipelineOptions opts;
  opts.k_iterations = {21, 33};
  opts.use_reference = true;  // fast path for tests
  const PipelineResult r =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);
  ASSERT_FALSE(r.contigs.empty());
  EXPECT_EQ(r.iterations.size(), 2U);
  // High coverage, no errors: most of the genome assembles.
  EXPECT_GT(bio::total_contig_bases(r.contigs), genome.size() * 8 / 10);
  // Every contig is genuine genome sequence.
  for (const auto& c : r.contigs) {
    EXPECT_NE(genome.find(c.seq), std::string::npos)
        << "contig is not a genome substring";
  }
}

TEST(Pipeline, LocalAssemblyExtendsContigs) {
  const std::string genome = random_seq(3, 6000);
  const bio::ReadSet reads = shotgun(genome, 10.0, 120, 4);
  PipelineOptions opts;
  opts.k_iterations = {21};
  opts.use_reference = true;
  const PipelineResult r =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);
  ASSERT_EQ(r.iterations.size(), 1U);
  // The k-mer graph truncates contigs at coverage gaps; local assembly must
  // recover at least some bases from reads hanging off the ends.
  EXPECT_GT(r.iterations[0].mapped_reads, 0U);
}

TEST(Pipeline, DeviceKernelMatchesReferencePath) {
  const std::string genome = random_seq(5, 4000);
  const bio::ReadSet reads = shotgun(genome, 8.0, 120, 6);
  PipelineOptions ref_opts;
  ref_opts.k_iterations = {21};
  ref_opts.use_reference = true;
  PipelineOptions dev_opts = ref_opts;
  dev_opts.use_reference = false;
  const auto ref = run_pipeline(reads, simt::DeviceSpec::a100(), ref_opts);
  const auto dev = run_pipeline(reads, simt::DeviceSpec::a100(), dev_opts);
  ASSERT_EQ(ref.contigs.size(), dev.contigs.size());
  for (std::size_t i = 0; i < ref.contigs.size(); ++i) {
    EXPECT_EQ(ref.contigs[i].seq, dev.contigs[i].seq);
  }
  EXPECT_GT(dev.iterations[0].kernel_time_s, 0.0);
  EXPECT_DOUBLE_EQ(ref.iterations[0].kernel_time_s, 0.0);
}

TEST(Pipeline, KmerFilterRemovesErrors) {
  const std::string genome = random_seq(7, 5000);
  bio::ReadSet reads = shotgun(genome, 10.0, 120, 8);
  // Add a handful of error reads (random sequence == singleton k-mers).
  for (int i = 0; i < 5; ++i) reads.append(random_seq(100 + i, 120), 35);
  PipelineOptions opts;
  opts.k_iterations = {21};
  opts.use_reference = true;
  std::ostringstream log;
  const PipelineResult r =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts, &log);
  EXPECT_GT(r.kmers_filtered, 0U);
  EXPECT_NE(log.str().find("k-mer analysis"), std::string::npos);
  // Error reads must not appear in contigs.
  for (const auto& c : r.contigs) {
    EXPECT_NE(genome.find(c.seq), std::string::npos);
  }
}

TEST(Pipeline, IterationReportsAreMonotone) {
  const std::string genome = random_seq(9, 6000);
  const bio::ReadSet reads = shotgun(genome, 9.0, 130, 10);
  PipelineOptions opts;
  opts.k_iterations = {21, 33, 55};
  opts.use_reference = true;
  const PipelineResult r =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);
  ASSERT_EQ(r.iterations.size(), 3U);
  // Contigs never shrink across iterations (extension only grows them).
  for (std::size_t i = 1; i < r.iterations.size(); ++i) {
    EXPECT_GE(r.iterations[i].total_bases, r.iterations[i - 1].total_bases);
  }
}

TEST(Pipeline, ResultReportsQuarantinedTasks) {
  // Every launch runs isolated, so a task that keeps failing is
  // quarantined instead of escaping run_pipeline; the result must still
  // say so, merged over the rounds.
  const std::string genome = random_seq(5, 4000);
  const bio::ReadSet reads = shotgun(genome, 8.0, 120, 6);
  PipelineOptions opts;
  opts.k_iterations = {21, 33};
  const PipelineResult clean =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);
  EXPECT_TRUE(clean.failures.clean()) << clean.failures.summary();

  resilience::FaultPlan plan(17);
  plan.arm(resilience::Seam::kBadInput, 0.25);  // persistent: quarantines
  opts.assembly.fault_plan = &plan;
  const PipelineResult faulted =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);
  EXPECT_GT(faulted.failures.tasks_quarantined, 0U);
  EXPECT_EQ(faulted.failures.faults.size(),
            faulted.failures.tasks_quarantined);
  for (const resilience::TaskFault& f : faulted.failures.faults) {
    EXPECT_TRUE(f.quarantined);
    EXPECT_EQ(f.code, ErrorCode::kCorruptInput);
  }
}

}  // namespace
}  // namespace lassm::pipeline
