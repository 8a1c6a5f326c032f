// End-to-end contract of the distributed pipeline: run_distributed is
// bit-identical to the single-rank run_pipeline oracle at every (ranks x
// threads) combination, traced or untraced, with an armed-but-empty fault
// plan — and recovers bit-identically from rank loss at every phase
// (pre-count, post-count recount, pre-round) and from device loss
// mid-round, emitting RebalanceEvents and flight-recorder incidents. A
// multi-rank run checkpoints and resumes like the one-rank run, which is
// run_pipeline itself.

#include "dist/pipeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bio/rng.hpp"
#include "dist/partition.hpp"
#include "model/profile_report.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/log.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace lassm::dist {
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

const bio::ReadSet& workload_reads() {
  static const bio::ReadSet reads = [] {
    return shotgun(random_seq(31, 3000), 8.0, 100, 32);
  }();
  return reads;
}

/// Asserts the distributed result's pipeline half equals the oracle's,
/// field for field. kernel_time_s is the per-round modelled makespan over
/// the live devices, so it only matches the 1-rank oracle when the run
/// actually had one rank — pass `compare_kernel_time` accordingly.
/// Wall-clock fields (FrontendTimings, align_time_s) are never compared.
void expect_same_pipeline(const pipeline::PipelineResult& got,
                          const pipeline::PipelineResult& want,
                          bool compare_kernel_time) {
  ASSERT_EQ(got.contigs.size(), want.contigs.size());
  for (std::size_t i = 0; i < want.contigs.size(); ++i) {
    EXPECT_EQ(got.contigs[i].id, want.contigs[i].id) << "contig " << i;
    EXPECT_EQ(got.contigs[i].seq, want.contigs[i].seq) << "contig " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.contigs[i].depth),
              std::bit_cast<std::uint64_t>(want.contigs[i].depth))
        << "contig " << i << " depth";
  }
  EXPECT_EQ(got.dbg.nodes, want.dbg.nodes);
  EXPECT_EQ(got.dbg.forks, want.dbg.forks);
  EXPECT_EQ(got.dbg.dead_ends, want.dbg.dead_ends);
  EXPECT_EQ(got.dbg.contigs, want.dbg.contigs);
  EXPECT_EQ(got.kmers_total, want.kmers_total);
  EXPECT_EQ(got.kmers_filtered, want.kmers_filtered);
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    EXPECT_EQ(got.iterations[i].k, want.iterations[i].k);
    EXPECT_EQ(got.iterations[i].contigs, want.iterations[i].contigs);
    EXPECT_EQ(got.iterations[i].total_bases, want.iterations[i].total_bases);
    EXPECT_EQ(got.iterations[i].n50, want.iterations[i].n50);
    EXPECT_EQ(got.iterations[i].mapped_reads,
              want.iterations[i].mapped_reads);
    EXPECT_EQ(got.iterations[i].extension_bases,
              want.iterations[i].extension_bases);
    if (compare_kernel_time) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(got.iterations[i].kernel_time_s),
          std::bit_cast<std::uint64_t>(want.iterations[i].kernel_time_s));
    }
  }
}

pipeline::PipelineOptions base_options(unsigned n_threads = 1) {
  pipeline::PipelineOptions opts;
  opts.k_iterations = {21};
  opts.assembly.n_threads = static_cast<int>(n_threads);
  return opts;
}

std::uint64_t count_flight_incidents(const char* event) {
  std::uint64_t n = 0;
  for (const auto& rec : lassm::log::Logger::instance().flight()) {
    if (rec.module == "incident" && rec.event == event) ++n;
  }
  return n;
}

TEST(DistPipeline, MatchesOracleAcrossRanksAndThreads) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());
  ASSERT_FALSE(oracle.contigs.empty());

  for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      DistOptions opts;
      opts.ranks = ranks;
      opts.pipeline = base_options(threads);
      const DistResult r = run_distributed(reads, device, opts);
      expect_same_pipeline(r.pipeline, oracle,
                           /*compare_kernel_time=*/ranks == 1);

      // Rank accounting: the live ranks partition the reads and shards.
      ASSERT_EQ(r.ranks.size(), ranks);
      std::uint64_t reads_sum = 0;
      std::uint64_t kmers_sum = 0;
      std::uint64_t shards_sum = 0;
      for (const DistRankReport& rep : r.ranks) {
        EXPECT_FALSE(rep.lost);
        reads_sum += rep.reads;
        kmers_sum += rep.kmers;
        shards_sum += rep.shards;
      }
      EXPECT_EQ(reads_sum, reads.size());
      EXPECT_EQ(kmers_sum, r.pipeline.kmers_total);
      EXPECT_EQ(shards_sum, ShardMap::kShards);

      // Traffic: one rank is loopback-only; more ranks pay for remote
      // inserts, probes and walk handoffs, and the analytic insert model
      // tracks the measured count.
      EXPECT_EQ(r.count_remote_msgs == 0, ranks == 1);
      EXPECT_EQ(r.traffic.msgs == 0, ranks == 1);
      if (ranks > 1) {
        EXPECT_GT(r.traffic.flushes, 0U);
        EXPECT_GT(r.network_s, 0.0);
        EXPECT_NEAR(static_cast<double>(r.count_remote_msgs),
                    r.count_remote_msgs_model,
                    r.count_remote_msgs_model * 0.05);
      } else {
        EXPECT_DOUBLE_EQ(r.network_s, 0.0);
      }
      EXPECT_TRUE(r.pipeline.failures.clean())
          << r.pipeline.failures.summary();
    }
  }
}

TEST(DistPipeline, TracedAndArmedEmptyRunsAreBitIdentical) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options(4);
  const DistResult baseline = run_distributed(reads, device, opts);

  // Armed-but-empty plan (a seed but no seams): the contract case.
  resilience::FaultPlan plan(123);
  ASSERT_TRUE(plan.empty());
  trace::Tracer tracer;
  DistOptions traced = opts;
  traced.pipeline.assembly.trace = &tracer;
  traced.pipeline.assembly.fault_plan = &plan;
  std::ostringstream log;
  const DistResult r = run_distributed(reads, device, traced, &log);

  expect_same_pipeline(r.pipeline, baseline.pipeline,
                       /*compare_kernel_time=*/true);
  EXPECT_EQ(r.traffic.msgs, baseline.traffic.msgs);
  EXPECT_EQ(r.traffic.bytes, baseline.traffic.bytes);
  EXPECT_EQ(r.traffic.flushes, baseline.traffic.flushes);
  EXPECT_EQ(r.traffic.drops, 0U);

  // The trace carries the dist counters and the network-seconds gauge.
  auto& m = tracer.metrics();
  EXPECT_EQ(m.counter(trace::names::kDistMsgs).value(), r.traffic.msgs);
  EXPECT_EQ(m.counter(trace::names::kDistBytes).value(), r.traffic.bytes);
  EXPECT_EQ(m.counter(trace::names::kDistFlushes).value(),
            r.traffic.flushes);
  EXPECT_DOUBLE_EQ(m.gauge(trace::names::kDistNetworkSeconds).value(),
                   r.network_s);
  EXPECT_NE(log.str().find("[pipeline] k-mer analysis (4 ranks)"),
            std::string::npos);
  EXPECT_NE(log.str().find("[pipeline] traffic:"), std::string::npos);
}

TEST(DistPipeline, LogStreamIsThreadCountInvariant) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  std::string first;
  for (const unsigned threads : {1u, 4u}) {
    DistOptions opts;
    opts.ranks = 4;
    opts.pipeline = base_options(threads);
    std::ostringstream log;
    run_distributed(reads, device, opts, &log);
    if (first.empty()) {
      first = log.str();
    } else {
      EXPECT_EQ(log.str(), first);
    }
  }
}

TEST(DistPipeline, PreCountRankLossRecoversBitIdentically) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());

  // rank_loss at rate 1.0 fires for every rank at phase 0 and kills all
  // but the guarded last survivor before any work happens.
  resilience::FaultPlan plan(1);
  plan.arm(resilience::Seam::kRankLoss, 1.0);

  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options();
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/true);
  EXPECT_EQ(r.pipeline.failures.rebalances.size(), 3U);
  EXPECT_EQ(r.pipeline.failures.devices_lost, 3U);
  EXPECT_GE(count_flight_incidents("rank_lost"), 3U);
  std::uint32_t survivors = 0;
  for (const DistRankReport& rep : r.ranks) {
    if (!rep.lost) {
      ++survivors;
      EXPECT_EQ(rep.shards, ShardMap::kShards);
    } else {
      EXPECT_EQ(rep.shards, 0U);
    }
  }
  EXPECT_EQ(survivors, 1U);
}

/// Finds a plan seed whose rank_loss seam fires for at least one of
/// `ranks` ranks at phase `phase` and for none at the earlier phases —
/// pinning the recovery path under test. Deterministic: the scan order is
/// fixed, so the same seed comes out every run.
resilience::FaultPlan plan_with_loss_at_phase(std::uint32_t phase,
                                              std::uint32_t ranks,
                                              double rate = 0.25) {
  for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
    resilience::FaultPlan plan(seed);
    plan.arm(resilience::Seam::kRankLoss, rate);
    bool early = false;
    for (std::uint32_t p = 0; p < phase && !early; ++p) {
      for (std::uint32_t r = 0; r < ranks; ++r) {
        const std::uint64_t key = (static_cast<std::uint64_t>(p) << 32) | r;
        early |= plan.fires(resilience::Seam::kRankLoss, key);
      }
    }
    if (early) continue;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const std::uint64_t key = (static_cast<std::uint64_t>(phase) << 32) | r;
      if (plan.fires(resilience::Seam::kRankLoss, key)) return plan;
    }
  }
  ADD_FAILURE() << "no seed found for phase " << phase;
  return resilience::FaultPlan(0);
}

TEST(DistPipeline, PostCountRankLossRecountsOrphanedShards) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());

  const resilience::FaultPlan plan = plan_with_loss_at_phase(1, 4);
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options();
  opts.pipeline.assembly.fault_plan = &plan;
  std::ostringstream log;
  const DistResult r = run_distributed(reads, device, opts, &log);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  ASSERT_FALSE(r.pipeline.failures.rebalances.empty());
  // The seed was chosen so nothing fires before phase 1; later phases may
  // fire too, so require at least one post-count event rather than all.
  bool post_count = false;
  for (const resilience::RebalanceEvent& ev :
       r.pipeline.failures.rebalances) {
    EXPECT_GE(ev.after_batch, 1U);
    EXPECT_GT(ev.moved_contigs, 0U);
    EXPECT_FALSE(ev.survivors.empty());
    post_count |= ev.after_batch == 1U;
  }
  EXPECT_TRUE(post_count);
  EXPECT_NE(log.str().find("recounted orphaned shards"), std::string::npos);
  // The recount restores the full k-mer census.
  EXPECT_EQ(r.pipeline.kmers_total, oracle.kmers_total);
}

TEST(DistPipeline, PreRoundRankLossRecoversAcrossRounds) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  // Phase 3 = second k-round: the first round runs with all ranks, the
  // loss happens between rounds, the second round with the survivors.
  const resilience::FaultPlan plan = plan_with_loss_at_phase(3, 4);
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = popts;
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  ASSERT_FALSE(r.pipeline.failures.rebalances.empty());
  EXPECT_EQ(r.pipeline.failures.rebalances.front().after_batch, 3U);
  bool any_lost = false;
  for (const DistRankReport& rep : r.ranks) any_lost |= rep.lost;
  EXPECT_TRUE(any_lost);
}

TEST(DistPipeline, MidRoundDeviceLossAdoptsShardsForLaterRounds) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  resilience::FaultPlan plan(5);
  plan.add_device_loss(/*rank=*/1, /*after_batch=*/1);

  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = popts;
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  EXPECT_TRUE(r.ranks[1].lost);
  EXPECT_EQ(r.ranks[1].shards, 0U);
  EXPECT_GE(r.pipeline.failures.devices_lost, 1U);
  // run_multi_gpu_resilient records the contig rebalance; the dist driver
  // records the shard adoption incident on top.
  ASSERT_FALSE(r.pipeline.failures.rebalances.empty());
  EXPECT_EQ(r.pipeline.failures.rebalances.front().lost_rank, 1U);
  EXPECT_GE(count_flight_incidents("rank_lost"), 1U);
  std::uint64_t shards_sum = 0;
  for (const DistRankReport& rep : r.ranks) shards_sum += rep.shards;
  EXPECT_EQ(shards_sum, ShardMap::kShards);
}

TEST(DistPipeline, ReferencePathMatchesOracleToo) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.use_reference = true;
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  for (const std::uint32_t ranks : {2u, 4u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    DistOptions opts;
    opts.ranks = ranks;
    opts.pipeline = popts;
    const DistResult r = run_distributed(reads, device, opts);
    expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/true);
  }
}

/// Asserts two runs' per-rank end states agree: which ranks died and which
/// shards each survivor owns.
void expect_same_fleet(const DistResult& got, const DistResult& want) {
  ASSERT_EQ(got.ranks.size(), want.ranks.size());
  for (std::size_t r = 0; r < want.ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(got.ranks[r].rank, want.ranks[r].rank);
    EXPECT_EQ(got.ranks[r].lost, want.ranks[r].lost);
    EXPECT_EQ(got.ranks[r].shards, want.ranks[r].shards);
  }
}

TEST(DistPipeline, CheckpointResumeIsBitIdenticalAtFourRanks) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const std::string path =
      (std::filesystem::temp_directory_path() / "lassm_dist_cp.txt")
          .string();
  std::remove(path.c_str());

  // A rank dies before the second round, so the fleet's live set changes
  // mid-ladder and every later round depends on it.
  const resilience::FaultPlan plan = plan_with_loss_at_phase(3, 4);
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options();
  opts.pipeline.k_iterations = {21, 33};
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult full = run_distributed(reads, device, opts);
  bool any_lost = false;
  for (const DistRankReport& rep : full.ranks) any_lost |= rep.lost;
  ASSERT_TRUE(any_lost);

  // Interrupted run: the one-round prefix checkpoints after k=21; stamping
  // the full ladder into its checkpoint gives exactly the state a {21, 33}
  // run interrupted after its first round leaves behind.
  opts.pipeline.checkpoint_path = path;
  {
    DistOptions round1 = opts;
    round1.pipeline.k_iterations = {21};
    run_distributed(reads, device, round1);
    auto cp = pipeline::load_checkpoint_file(path);
    ASSERT_TRUE(cp.is_ok());
    pipeline::PipelineCheckpoint mid = std::move(cp).take();
    ASSERT_EQ(mid.rounds_done, 1U);
    EXPECT_EQ(mid.ranks, 4U);
    mid.k_iterations = {21, 33};
    ASSERT_TRUE(pipeline::save_checkpoint_file(path, mid));
  }
  std::ostringstream log_mid;
  const DistResult resumed = run_distributed(reads, device, opts, &log_mid);
  EXPECT_NE(log_mid.str().find("resumed from"), std::string::npos);
  EXPECT_NE(log_mid.str().find("1/2"), std::string::npos);
  expect_same_pipeline(resumed.pipeline, full.pipeline,
                       /*compare_kernel_time=*/true);
  expect_same_fleet(resumed, full);

  // The checkpoint now holds the finished ladder and the loss; resuming
  // from it must restore the live set from the recorded losses alone.
  {
    auto cp = pipeline::load_checkpoint_file(path);
    ASSERT_TRUE(cp.is_ok());
    EXPECT_EQ(cp.value().rounds_done, 2U);
    EXPECT_FALSE(cp.value().lost_ranks.empty());
  }
  std::ostringstream log_done;
  const DistResult restored =
      run_distributed(reads, device, opts, &log_done);
  EXPECT_NE(log_done.str().find("2/2"), std::string::npos);
  expect_same_pipeline(restored.pipeline, full.pipeline,
                       /*compare_kernel_time=*/true);
  expect_same_fleet(restored, full);

  // A one-rank checkpoint of the same ladder is another configuration:
  // its kernel times are not the fleet makespan.
  DistOptions one = opts;
  one.ranks = 1;
  one.pipeline.assembly.fault_plan = nullptr;
  std::remove(path.c_str());
  run_distributed(reads, device, one);
  std::ostringstream log_mismatch;
  const DistResult cold = run_distributed(reads, device, opts, &log_mismatch);
  EXPECT_NE(log_mismatch.str().find("configuration mismatch"),
            std::string::npos);
  expect_same_pipeline(cold.pipeline, full.pipeline,
                       /*compare_kernel_time=*/true);
  expect_same_fleet(cold, full);

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(DistPipeline, OneRankRunIsRunPipeline) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options(4);
  popts.k_iterations = {21, 33};

  trace::Tracer local_tracer;
  pipeline::PipelineOptions local_opts = popts;
  local_opts.assembly.trace = &local_tracer;
  std::ostringstream local_log;
  const pipeline::PipelineResult local =
      pipeline::run_pipeline(reads, device, local_opts, &local_log);

  trace::Tracer dist_tracer;
  DistOptions opts;
  opts.ranks = 1;
  opts.pipeline = popts;
  opts.pipeline.assembly.trace = &dist_tracer;
  std::ostringstream dist_log;
  const DistResult r = run_distributed(reads, device, opts, &dist_log);

  expect_same_pipeline(r.pipeline, local, /*compare_kernel_time=*/true);
  EXPECT_FALSE(local_log.str().empty());
  EXPECT_EQ(dist_log.str(), local_log.str());

  const model::AttributedProfile want = model::build_attributed_profile(
      local_tracer.attribution().nodes(), device);
  const model::AttributedProfile got = model::build_attributed_profile(
      dist_tracer.attribution().nodes(), device);
  ASSERT_EQ(got.top_down.size(), want.top_down.size());
  ASSERT_FALSE(want.top_down.empty());
  EXPECT_EQ(want.top_down.front().path, "pipeline");
  for (std::size_t i = 0; i < want.top_down.size(); ++i) {
    SCOPED_TRACE(want.top_down[i].path);
    EXPECT_EQ(got.top_down[i].path, want.top_down[i].path);
    for (const trace::CounterVector::Field& f :
         trace::CounterVector::fields()) {
      EXPECT_EQ(got.top_down[i].total.*f.member,
                want.top_down[i].total.*f.member)
          << f.name;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.top_down[i].total.sim_time_s),
              std::bit_cast<std::uint64_t>(want.top_down[i].total.sim_time_s));
  }
}

}  // namespace
}  // namespace lassm::dist
