#include "dist/pipeline.hpp"

#include <chrono>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "core/exec.hpp"
#include "core/reference.hpp"
#include "dist/dist_table.hpp"
#include "dist/frontend.hpp"
#include "pipeline/multi_gpu.hpp"
#include "trace/log.hpp"
#include "trace/trace.hpp"

namespace lassm::dist {

namespace {

/// Rank-loss phase ordinals (the FaultPlan key is (phase << 32) | rank):
/// 0 fires before counting, 1 after counting (exercising the orphan-shard
/// recount), 2 + round before each local-assembly round.
constexpr std::uint32_t kPhasePreCount = 0;
constexpr std::uint32_t kPhasePostCount = 1;
constexpr std::uint32_t kPhaseRoundBase = 2;

std::uint64_t rank_loss_key(std::uint32_t phase, std::uint32_t rank) {
  return (static_cast<std::uint64_t>(phase) << 32) | rank;
}

using StageClock = std::chrono::steady_clock;

double stage_seconds(StageClock::time_point t0) {
  return std::chrono::duration<double>(StageClock::now() - t0).count();
}

void record_stage(trace::Tracer* tracer, std::uint32_t track,
                  std::string name, double t0,
                  std::vector<trace::Arg> args = {}) {
  if (tracer == nullptr) return;
  trace::Event e;
  e.track = track;
  e.name = std::move(name);
  e.cat = "host";
  e.ts_us = t0;
  e.dur_us = tracer->host_now_us() - t0;
  e.args = std::move(args);
  tracer->record(std::move(e));
}

void record_stage_gauge(trace::Tracer* tracer, const char* stage,
                        double seconds) {
  if (tracer == nullptr) return;
  tracer->metrics()
      .gauge(std::string(trace::names::kPipelineStageSecondsPrefix) + stage)
      .set(seconds);
}

/// Feeds a stage's message-traffic delta into the attribution profile (the
/// only CounterVector fields the dist layer owns).
void attribute_traffic(trace::AttributionProfile* profile,
                       const TrafficStats& delta) {
  if (profile == nullptr) return;
  trace::CounterVector cv;
  cv.dist_msgs = delta.msgs;
  cv.dist_bytes = delta.bytes;
  profile->add(cv);
}

}  // namespace

DistResult run_distributed(const bio::ReadSet& reads,
                           const simt::DeviceSpec& device,
                           const DistOptions& opts, std::ostream* log) {
  const pipeline::PipelineOptions& popts = opts.pipeline;
  const resilience::FaultPlan& plan = popts.assembly.plan();

  DistResult result;
  ShardMap map(opts.ranks);
  MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels, device.net,
                   &plan);
  DistKmerTable table(map, msg);

  trace::Tracer* const tracer = popts.assembly.trace;
  const std::uint32_t driver_track =
      tracer != nullptr ? tracer->track("host", "dist-driver") : 0;
  const double pipeline_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  trace::AttributionProfile* const profile =
      tracer != nullptr ? &tracer->attribution() : nullptr;
  trace::AttributionProfile::Scope pipeline_scope(profile, "dist_pipeline");

  // One shared pool for the front-end stages, per-round alignment and
  // one-live-rank assembly, as in run_pipeline. Multi-rank rounds run on
  // the run-local pools of run_multi_gpu_resilient's per-rank assemblers.
  std::optional<core::LocalAssembler> assembler;
  if (!popts.use_reference) assembler.emplace(device, popts.assembly);
  core::WarpExecutionEngine pool(device, device.native_model, popts.assembly,
                                 popts.assembly.n_threads);

  if (!popts.checkpoint_path.empty() && log != nullptr) {
    *log << "[dist] checkpointing is not supported distributed; "
            "ignoring checkpoint_path\n";
  }

  // Kills every live rank the plan schedules for `phase` (never the last
  // one), adopting its shards. Returns the union mask of orphaned shards.
  const auto fire_rank_losses = [&](std::uint32_t phase) -> std::uint64_t {
    std::uint64_t orphan_mask = 0;
    for (const std::uint32_t rank : map.live_ranks()) {
      if (map.n_live() <= 1) break;
      if (!plan.fires(resilience::Seam::kRankLoss,
                      rank_loss_key(phase, rank))) {
        continue;
      }
      const std::vector<std::uint32_t> orphans = map.adopt(rank);
      for (const std::uint32_t s : orphans) {
        orphan_mask |= std::uint64_t{1} << s;
      }
      resilience::RebalanceEvent ev;
      ev.lost_rank = rank;
      ev.after_batch = phase;
      ev.moved_contigs = orphans.size();
      ev.survivors = map.live_ranks();
      result.failures.rebalances.push_back(std::move(ev));
      ++result.failures.devices_lost;
      (void)lassm::log::Logger::instance().incident(
          "rank_lost", {trace::Arg::n("rank", rank),
                        trace::Arg::n("phase", phase),
                        trace::Arg::n("orphan_shards", orphans.size()),
                        trace::Arg::n("survivors", map.n_live())});
      if (tracer != nullptr) {
        tracer->metrics().counter(trace::names::kDistRankLosses).add(1);
      }
      if (log != nullptr) {
        *log << "[dist] rank " << rank << " lost at phase " << phase << ": "
             << orphans.size() << " shards adopted by " << map.n_live()
             << " survivors\n";
      }
    }
    return orphan_mask;
  };

  fire_rank_losses(kPhasePreCount);

  // Stage 1: distributed k-mer counting + filter.
  double stage_t0 = pipeline_t0;
  {
    trace::AttributionProfile::Scope kmer_scope(profile, "kmer_analysis");
    const TrafficStats before = msg.traffic();
    StageClock::time_point wall_t0 = StageClock::now();
    const CountStats cstats = count_kmers_dist(
        table, reads, popts.contig_k, ~std::uint64_t{0}, &pool);
    result.pipeline.frontend.count_s = stage_seconds(wall_t0);
    result.pipeline.kmers_total = table.total_size();
    result.count_windows = cstats.windows;
    result.count_remote_msgs = cstats.remote_msgs;
    result.count_remote_msgs_model = cstats.remote_msgs_model;

    // Per-rank counting accounting (block sizes mirror the frontend's
    // contiguous split over the ranks live at count time).
    result.ranks.resize(map.n_ranks());
    const std::vector<std::uint32_t> live = map.live_ranks();
    for (std::uint32_t r = 0; r < map.n_ranks(); ++r) {
      result.ranks[r].rank = r;
    }
    for (std::size_t li = 0; li < live.size(); ++li) {
      result.ranks[live[li]].reads =
          reads.size() * (li + 1) / live.size() -
          reads.size() * li / live.size();
      result.ranks[live[li]].kmers = table.local(live[li]).size();
    }

    // A post-count loss exercises the recovery path: survivors adopt the
    // orphaned shards and recount them from the full read set (orphan
    // k-mers appear in every rank's reads, so everyone rescans).
    if (const std::uint64_t orphan_mask = fire_rank_losses(kPhasePostCount);
        orphan_mask != 0) {
      for (std::uint32_t r = 0; r < map.n_ranks(); ++r) {
        if (!map.live(r)) table.local(r) = pipeline::KmerCounts{};
      }
      count_kmers_dist(table, reads, popts.contig_k, orphan_mask, &pool);
      result.pipeline.kmers_total = table.total_size();
      for (const std::uint32_t r : map.live_ranks()) {
        result.ranks[r].kmers = table.local(r).size();
      }
      if (log != nullptr) {
        *log << "[dist] recounted orphaned shards: " << result.pipeline.kmers_total
             << " distinct k-mers after recovery\n";
      }
    }

    wall_t0 = StageClock::now();
    result.pipeline.kmers_filtered =
        filter_low_count_dist(table, popts.min_kmer_count, &pool);
    result.pipeline.frontend.filter_s = stage_seconds(wall_t0);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "kmer_analysis", stage_t0,
                 trace::counter_args(kmer_scope.close()));
    record_stage_gauge(tracer, "kmer_count",
                       result.pipeline.frontend.count_s);
    record_stage_gauge(tracer, "kmer_filter",
                       result.pipeline.frontend.filter_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineKmersDistinct)
          .add(result.pipeline.kmers_total);
      tracer->metrics()
          .counter(trace::names::kPipelineKmersFiltered)
          .add(result.pipeline.kmers_filtered);
    }
    if (log != nullptr) {
      *log << "[dist] k-mer analysis (" << map.n_live() << " ranks): "
           << result.pipeline.kmers_total << " distinct k-mers, "
           << result.pipeline.kmers_filtered << " filtered, "
           << result.count_remote_msgs << " remote inserts\n";
    }
  }

  // Stage 2: distributed de Bruijn graph -> contigs.
  stage_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
  {
    trace::AttributionProfile::Scope dbg_scope(profile, "contig_generation");
    const TrafficStats before = msg.traffic();
    const StageClock::time_point wall_t0 = StageClock::now();
    result.pipeline.contigs =
        generate_contigs_dist(table, popts.contig_k, popts.min_contig_len,
                              &result.pipeline.dbg, &pool);
    result.pipeline.frontend.dbg_s = stage_seconds(wall_t0);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "contig_generation", stage_t0,
                 trace::counter_args(dbg_scope.close()));
    record_stage_gauge(tracer, "contig_generation",
                       result.pipeline.frontend.dbg_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineContigs)
          .add(result.pipeline.contigs.size());
    }
    if (log != nullptr) {
      *log << "[dist] contig generation: " << result.pipeline.contigs.size()
           << " contigs, " << bio::total_contig_bases(result.pipeline.contigs)
           << " bases, N50=" << bio::n50(result.pipeline.contigs) << "\n";
    }
  }

  // Stage 3: iterative {alignment -> distributed local assembly}.
  for (std::size_t round = 0; round < popts.k_iterations.size(); ++round) {
    const std::uint32_t k = popts.k_iterations[round];
    const double round_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
    trace::AttributionProfile::Scope round_scope(
        profile, "k-round " + std::to_string(k));
    const TrafficStats before = msg.traffic();

    fire_rank_losses(kPhaseRoundBase + static_cast<std::uint32_t>(round));
    const std::vector<std::uint32_t> live = map.live_ranks();

    pipeline::AlignStats astats;
    const StageClock::time_point align_t0 = StageClock::now();
    core::AssemblyInput input = pipeline::align_reads_to_ends(
        std::move(result.pipeline.contigs), reads, k, popts.aligner, &astats,
        &pool);

    pipeline::IterationReport report;
    report.k = k;
    report.mapped_reads = astats.aligned_left + astats.aligned_right;
    report.align_time_s = stage_seconds(align_t0);
    record_stage_gauge(tracer, "align", report.align_time_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineReadsMapped)
          .add(report.mapped_reads);
    }

    if (popts.use_reference) {
      // Debug path: the CPU reference is not distributed (no modelled
      // device or network); results match the oracle's reference path.
      const auto exts =
          popts.assembly.n_threads == 1
              ? core::reference_extend(input, popts.assembly)
              : core::reference_extend_parallel(input, popts.assembly,
                                                popts.assembly.n_threads);
      for (std::size_t i = 0; i < input.contigs.size(); ++i) {
        report.extension_bases += exts[i].left.size() + exts[i].right.size();
        bio::apply_extension(input.contigs[i], exts[i]);
      }
    } else if (live.size() == 1) {
      // One live rank: the exact single-device call run_pipeline makes
      // (the multi-GPU path would LPT-reorder the contig list, which
      // changes modelled batch overlap and so kernel_time_s — results
      // stay identical but the R=1 anchor pins the time bits too).
      core::AssemblyResult ar = assembler->run(input, &pool);
      report.extension_bases = ar.total_extension_bases();
      report.kernel_time_s = ar.total_time_s;
      result.failures.merge(ar.failures);
      core::LocalAssembler::apply(input, ar);
    } else {
      // Owner-computes partitioning of the round: contigs and their reads
      // scatter from the coordinator (lowest live rank) to the workers,
      // extensions gather back. Payloads stay in shared memory; the
      // traffic is billed on the matching links. The same LPT partition
      // run_multi_gpu_resilient computes internally prices the scatter.
      std::vector<std::uint32_t> contig_rank;
      if (live.size() > 1 && input.num_contigs() > 0) {
        const std::vector<core::AssemblyInput> parts =
            pipeline::partition_input(
                input, static_cast<std::uint32_t>(live.size()), &contig_rank);
        for (std::size_t p = 1; p < parts.size(); ++p) {
          std::uint64_t bytes = parts[p].reads.total_bases();
          for (const bio::Contig& c : parts[p].contigs) {
            bytes += c.seq.size();
          }
          msg.bill_bulk(live[0], live[p],
                        parts[p].contigs.size() + parts[p].reads.size(),
                        bytes);
        }
        msg.flush();
      }

      const std::vector<simt::DeviceSpec> devices(live.size(), device);
      pipeline::MultiGpuResult mgr = pipeline::run_multi_gpu_resilient(
          input, devices, popts.assembly, &plan, &live);
      report.kernel_time_s = mgr.makespan_s;
      for (std::size_t i = 0; i < input.contigs.size(); ++i) {
        report.extension_bases +=
            mgr.extensions[i].left.size() + mgr.extensions[i].right.size();
        bio::apply_extension(input.contigs[i], mgr.extensions[i]);
      }

      if (!contig_rank.empty()) {
        std::vector<std::uint64_t> gmsgs(live.size(), 0);
        std::vector<std::uint64_t> gbytes(live.size(), 0);
        for (std::size_t i = 0; i < contig_rank.size(); ++i) {
          const std::uint32_t p = contig_rank[i];
          ++gmsgs[p];
          gbytes[p] +=
              mgr.extensions[i].left.size() + mgr.extensions[i].right.size();
        }
        for (std::size_t p = 1; p < live.size(); ++p) {
          if (gmsgs[p] != 0) msg.bill_bulk(live[p], live[0], gmsgs[p], gbytes[p]);
        }
        msg.flush();
      }

      result.failures.merge(mgr.failures);
      // A device lost mid-round is a rank lost for the rest of the run:
      // survivors adopt its shard range (the RebalanceEvent for the moved
      // contigs is already in mgr.failures, with physical rank ids).
      for (const pipeline::RankReport& rep : mgr.ranks) {
        if (!rep.lost || !map.live(rep.rank) || map.n_live() <= 1) continue;
        const std::vector<std::uint32_t> orphans = map.adopt(rep.rank);
        ++result.failures.devices_lost;
        (void)lassm::log::Logger::instance().incident(
            "rank_lost",
            {trace::Arg::n("rank", rep.rank),
             trace::Arg::n("phase", kPhaseRoundBase + round),
             trace::Arg::s("cause", "device_loss"),
             trace::Arg::n("orphan_shards", orphans.size()),
             trace::Arg::n("survivors", map.n_live())});
        if (tracer != nullptr) {
          tracer->metrics().counter(trace::names::kDistRankLosses).add(1);
        }
        if (log != nullptr) {
          *log << "[dist] rank " << rep.rank << " lost mid-round k=" << k
               << ": " << orphans.size() << " shards adopted by "
               << map.n_live() << " survivors\n";
        }
      }
    }

    result.pipeline.contigs = std::move(input.contigs);
    report.contigs = result.pipeline.contigs.size();
    report.total_bases = bio::total_contig_bases(result.pipeline.contigs);
    report.n50 = bio::n50(result.pipeline.contigs);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "k-round " + std::to_string(k),
                 round_t0, trace::counter_args(round_scope.close()));
    result.pipeline.iterations.push_back(report);
    if (log != nullptr) {
      *log << "[dist] local assembly k=" << k << " (" << map.n_live()
           << " ranks): mapped " << report.mapped_reads << " reads, +"
           << report.extension_bases << " bases, N50=" << report.n50
           << ", kernel time=" << report.kernel_time_s * 1e3 << " ms\n";
    }
  }

  // Final accounting.
  result.traffic = msg.traffic();
  result.network_s = result.traffic.network_s;
  for (std::uint32_t r = 0; r < map.n_ranks(); ++r) {
    result.ranks[r].lost = !map.live(r);
    result.ranks[r].shards = map.shards_of(r).size();
  }
  if (tracer != nullptr) {
    auto& m = tracer->metrics();
    m.counter(trace::names::kDistMsgs).add(result.traffic.msgs);
    m.counter(trace::names::kDistBytes).add(result.traffic.bytes);
    m.counter(trace::names::kDistBatches).add(result.traffic.batches);
    m.counter(trace::names::kDistMsgDrops).add(result.traffic.drops);
    m.counter(trace::names::kDistRetransmits)
        .add(result.traffic.retransmits);
    m.counter(trace::names::kDistFlushes).add(result.traffic.flushes);
    m.gauge(trace::names::kDistNetworkSeconds).set(result.network_s);
  }
  record_stage(tracer, driver_track, "dist_pipeline", pipeline_t0,
               trace::counter_args(pipeline_scope.close()));
  if (log != nullptr) {
    *log << "[dist] traffic: " << result.traffic.msgs << " msgs, "
         << result.traffic.bytes << " bytes, " << result.traffic.batches
         << " batches (" << result.traffic.drops << " dropped), "
         << result.traffic.flushes << " flushes\n";
  }
  return result;
}

}  // namespace lassm::dist
