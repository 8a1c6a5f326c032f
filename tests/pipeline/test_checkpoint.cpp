// k-round checkpoint/resume: a resumed pipeline run must be bit-identical
// to an uninterrupted one, torn/corrupt checkpoints must be rejected, and
// the on-disk format must round-trip doubles exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bio/rng.hpp"
#include "pipeline/pipeline.hpp"

namespace lassm::pipeline {
namespace {

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

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

std::string temp_checkpoint(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.contigs.size(), b.contigs.size());
  for (std::size_t i = 0; i < a.contigs.size(); ++i) {
    EXPECT_EQ(a.contigs[i].seq, b.contigs[i].seq) << i;
    EXPECT_EQ(a.contigs[i].id, b.contigs[i].id) << i;
    EXPECT_EQ(a.contigs[i].depth, b.contigs[i].depth) << i;
  }
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].k, b.iterations[i].k);
    EXPECT_EQ(a.iterations[i].extension_bases, b.iterations[i].extension_bases);
    EXPECT_EQ(a.iterations[i].n50, b.iterations[i].n50);
    EXPECT_EQ(a.iterations[i].kernel_time_s, b.iterations[i].kernel_time_s);
  }
  EXPECT_EQ(a.kmers_total, b.kmers_total);
  EXPECT_EQ(a.kmers_filtered, b.kmers_filtered);
}

TEST(Checkpoint, SaveLoadRoundTripsBitExactly) {
  PipelineCheckpoint cp;
  cp.contig_k = 21;
  cp.k_iterations = {21, 33};
  cp.ranks = 4;
  cp.lost_ranks = {2, 0};  // loss order, not sorted
  cp.rounds_done = 1;
  cp.kmers_total = 12345;
  cp.kmers_filtered = 67;
  cp.dbg = {100, 3, 7, 9};
  cp.contigs.push_back({0, "ACGTACGT", 1.0 / 3.0});  // non-representable
  cp.contigs.push_back({5, "TTTT", 2.7182818284590452});
  IterationReport it;
  it.k = 21;
  it.contigs = 2;
  it.kernel_time_s = 0.00017015673758865248;  // golden-constant style value
  cp.iterations.push_back(it);

  std::stringstream ss;
  ASSERT_TRUE(save_checkpoint(ss, cp));
  auto loaded = load_checkpoint(ss);
  ASSERT_TRUE(loaded.is_ok());
  const PipelineCheckpoint& out = loaded.value();
  EXPECT_EQ(out.contig_k, cp.contig_k);
  EXPECT_EQ(out.k_iterations, cp.k_iterations);
  EXPECT_EQ(out.ranks, cp.ranks);
  EXPECT_EQ(out.lost_ranks, cp.lost_ranks);
  EXPECT_EQ(out.rounds_done, cp.rounds_done);
  EXPECT_EQ(out.kmers_total, cp.kmers_total);
  EXPECT_EQ(out.dbg.nodes, cp.dbg.nodes);
  ASSERT_EQ(out.contigs.size(), 2U);
  EXPECT_EQ(out.contigs[0].seq, "ACGTACGT");
  // Bit-exact doubles: == on the values, not approximate.
  EXPECT_EQ(out.contigs[0].depth, 1.0 / 3.0);
  EXPECT_EQ(out.contigs[1].depth, 2.7182818284590452);
  ASSERT_EQ(out.iterations.size(), 1U);
  EXPECT_EQ(out.iterations[0].kernel_time_s, 0.00017015673758865248);
}

TEST(Checkpoint, RejectsTruncatedAndCorruptStreams) {
  PipelineCheckpoint cp;
  cp.contig_k = 21;
  cp.k_iterations = {21};
  cp.contigs.push_back({0, "ACGT", 1.0});
  std::stringstream full;
  ASSERT_TRUE(save_checkpoint(full, cp));
  const std::string text = full.str();

  // Truncations at every prefix must be rejected (missing end marker or
  // earlier), never half-loaded.
  for (std::size_t len : {std::size_t{0}, text.size() / 4, text.size() / 2,
                          text.size() - 2}) {
    std::istringstream is(text.substr(0, len));
    auto r = load_checkpoint(is);
    EXPECT_FALSE(r.is_ok()) << "accepted a " << len << "-byte prefix";
    if (!r.is_ok()) {
      EXPECT_EQ(r.error().code(), ErrorCode::kParseError);
    }
  }

  // A wrong magic is rejected outright.
  std::istringstream wrong("LASSM_SOMETHING 1\n");
  EXPECT_FALSE(load_checkpoint(wrong).is_ok());

  // rounds_done beyond the ladder is inconsistent.
  std::string bad = text;
  const auto pos = bad.find("rounds_done 0");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 13, "rounds_done 9");
  std::istringstream is(bad);
  EXPECT_FALSE(load_checkpoint(is).is_ok());

  // A file of the previous format version is rejected, so a run starts
  // cold instead of resuming without the rank fields.
  std::string old = text;
  old.replace(old.find(" 2\n"), 3, " 1\n");
  std::istringstream old_is(old);
  EXPECT_FALSE(load_checkpoint(old_is).is_ok());

  // Lost ranks must be distinct, in range and leave a survivor, or the
  // resume could not replay them.
  for (const char* lost : {"ranks 2\nlost 1 2", "ranks 2\nlost 2 0 1",
                           "ranks 3\nlost 2 1 1", "ranks 0\nlost 0"}) {
    std::string doctored = text;
    doctored.replace(doctored.find("ranks 1\nlost 0"), 14, lost);
    std::istringstream lost_is(doctored);
    EXPECT_FALSE(load_checkpoint(lost_is).is_ok()) << lost;
  }
}

TEST(Checkpoint, MissingFileIsIoErrorNotParseError) {
  auto r = load_checkpoint_file("/nonexistent_dir_xyz/cp.txt");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIoError);
}

TEST(Checkpoint, ResumedRunIsBitIdenticalToUninterrupted) {
  const std::string genome = random_seq(11, 6000);
  const bio::ReadSet reads = shotgun(genome, 10.0, 120, 12);
  const std::string path = temp_checkpoint("lassm_cp_resume.txt");
  std::remove(path.c_str());

  PipelineOptions opts;
  opts.k_iterations = {21, 33};
  opts.use_reference = true;

  // Oracle: one uninterrupted run, no checkpointing.
  const PipelineResult oracle =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);

  // Interrupted run: execute only the first round, checkpointing as we go
  // (simulating a crash after round 1 by just not running round 2).
  PipelineOptions first_half = opts;
  first_half.k_iterations = {21, 33};
  first_half.checkpoint_path = path;
  {
    PipelineOptions round1 = first_half;
    round1.k_iterations = {21};
    run_pipeline(reads, simt::DeviceSpec::a100(), round1);
  }
  // The on-disk checkpoint now holds round-1 state but was written by a
  // {21}-ladder run; a {21,33} run must reject it (config mismatch) and
  // start over — equally bit-identical, just without reuse.
  std::ostringstream log_mismatch;
  const PipelineResult restarted = run_pipeline(
      reads, simt::DeviceSpec::a100(), first_half, &log_mismatch);
  expect_same_result(oracle, restarted);
  EXPECT_NE(log_mismatch.str().find("configuration mismatch"),
            std::string::npos);

  // Now interrupt a {21,33} run for real: run it fully (writing
  // checkpoints), then doctor the file back to rounds_done=1 state is not
  // possible without re-running — instead run with the matching ladder,
  // which resumes from the final checkpoint and skips all work.
  std::ostringstream log_resume;
  const PipelineResult resumed = run_pipeline(
      reads, simt::DeviceSpec::a100(), first_half, &log_resume);
  expect_same_result(oracle, resumed);
  EXPECT_NE(log_resume.str().find("resumed from"), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, MidLadderResumeSkipsCompletedRounds) {
  const std::string genome = random_seq(21, 6000);
  const bio::ReadSet reads = shotgun(genome, 10.0, 120, 22);
  const std::string path = temp_checkpoint("lassm_cp_midladder.txt");
  std::remove(path.c_str());

  PipelineOptions opts;
  opts.k_iterations = {21, 33};
  opts.use_reference = true;
  opts.checkpoint_path = path;

  // Full run writes checkpoints after each round.
  const PipelineResult full =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts);

  // Rewind the checkpoint to the post-round-1 state by re-saving it with
  // the round-2 effects stripped — i.e. load, truncate, save.
  auto loaded = load_checkpoint_file(path);
  ASSERT_TRUE(loaded.is_ok());
  PipelineCheckpoint cp = std::move(loaded).take();
  ASSERT_EQ(cp.rounds_done, 2U);

  // Round-1 state is not reconstructible from the final checkpoint, so
  // emulate the interrupted run directly: run the one-round prefix with
  // checkpointing on, then hand the produced checkpoint to the full
  // ladder via a doctored k ladder.
  std::remove(path.c_str());
  PipelineOptions round1 = opts;
  round1.k_iterations = {21};
  run_pipeline(reads, simt::DeviceSpec::a100(), round1);
  auto cp1 = load_checkpoint_file(path);
  ASSERT_TRUE(cp1.is_ok());
  PipelineCheckpoint mid = std::move(cp1).take();
  ASSERT_EQ(mid.rounds_done, 1U);
  // Stamp the full ladder into the checkpoint — this is exactly the state
  // an interrupted {21,33} run would have left behind.
  mid.k_iterations = {21, 33};
  ASSERT_TRUE(save_checkpoint_file(path, mid));

  std::ostringstream log;
  const PipelineResult resumed =
      run_pipeline(reads, simt::DeviceSpec::a100(), opts, &log);
  expect_same_result(full, resumed);
  EXPECT_NE(log.str().find("resumed from"), std::string::npos);
  EXPECT_NE(log.str().find("1/2"), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace lassm::pipeline
