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

/// Records a completed host-side stage span on the driver track; a no-op
/// (two pointer checks) when tracing is off. `args` carries the stage's
/// attributed counter vector (front-end stages attach their message
/// traffic and otherwise an honest all-zero vector — they run no modelled
/// kernel).
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

/// Host wall clock for the per-stage timing fields (always measured — two
/// clock reads per stage — unlike the tracer spans, which need tracing on).
using StageClock = std::chrono::steady_clock;

double stage_seconds(StageClock::time_point t0) {
  return std::chrono::duration<double>(StageClock::now() - t0).count();
}

/// Mirrors one stage's wall clock onto its metrics gauge when tracing.
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
  pipeline::PipelineResult& pr = result.pipeline;
  ShardMap map(opts.ranks);
  MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels, device.net,
                   &plan);
  DistKmerTable table(map, msg);
  // A fleet of one is the single-rank pipeline: its log has no rank counts
  // and no traffic line, and it publishes no dist.* metrics.
  const bool fleet = map.n_ranks() > 1;
  result.ranks.resize(map.n_ranks());
  for (std::uint32_t r = 0; r < map.n_ranks(); ++r) result.ranks[r].rank = r;
  // Ranks lost so far, in loss order: checkpointed so a resume can replay
  // the shard adoptions.
  std::vector<std::uint32_t> lost_ranks;

  trace::Tracer* const tracer = popts.assembly.trace;
  const std::uint32_t driver_track =
      tracer != nullptr ? tracer->track("host", "driver") : 0;
  const double pipeline_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;

  // Stage-level counter attribution: the pipeline node parents every stage
  // node, and each k-round parents the assembler's per-launch tree, so the
  // profile reconciles bottom-up to the run totals (see DESIGN.md).
  trace::AttributionProfile* const profile =
      tracer != nullptr ? &tracer->attribution() : nullptr;
  trace::AttributionProfile::Scope pipeline_scope(profile, "pipeline");

  // One shared thread pool for the whole pipeline: the front-end stages
  // run on it as host batches, and every round's alignment and one-device
  // assembly run on it, so threads spawn once per pipeline instead of once
  // per stage. At one thread it spawns nothing and every stage runs
  // inline; a kPoolStart fault seam degrades it at construction exactly as
  // it would degrade each per-round pool (the seam is a pure function of
  // the plan). Multi-rank rounds run on the run-local pools of
  // run_multi_gpu_resilient's per-rank assemblers.
  std::optional<core::LocalAssembler> assembler;
  if (!popts.use_reference) assembler.emplace(device, popts.assembly);
  core::WarpExecutionEngine pool(device, device.native_model, popts.assembly,
                                 popts.assembly.n_threads);

  // Resume: adopt a matching checkpoint's state and skip its completed
  // work. A missing file is the normal cold start; a corrupt or
  // differently-configured checkpoint is ignored (and logged), never
  // trusted.
  std::size_t rounds_done = 0;
  bool resumed = false;
  if (!popts.checkpoint_path.empty()) {
    auto loaded = pipeline::load_checkpoint_file(popts.checkpoint_path);
    if (loaded.is_ok()) {
      pipeline::PipelineCheckpoint cp = std::move(loaded).take();
      if (cp.contig_k == popts.contig_k &&
          cp.k_iterations == popts.k_iterations &&
          cp.ranks == map.n_ranks()) {
        pr.contigs = std::move(cp.contigs);
        pr.dbg = cp.dbg;
        pr.kmers_total = cp.kmers_total;
        pr.kmers_filtered = cp.kmers_filtered;
        pr.iterations = std::move(cp.iterations);
        // The loader guarantees distinct in-range ids short of the whole
        // fleet, so replaying adopt() in loss order rebuilds the live set
        // and shard ownership the interrupted run had.
        for (const std::uint32_t r : cp.lost_ranks) map.adopt(r);
        lost_ranks = std::move(cp.lost_ranks);
        rounds_done = cp.rounds_done;
        resumed = true;
        if (log != nullptr) {
          *log << "[pipeline] resumed from " << popts.checkpoint_path
               << ": " << rounds_done << "/" << popts.k_iterations.size()
               << " k-rounds already done\n";
        }
      } else if (log != nullptr) {
        *log << "[pipeline] ignoring checkpoint " << popts.checkpoint_path
             << ": configuration mismatch\n";
      }
    } else if (loaded.error().code() != ErrorCode::kIoError &&
               log != nullptr) {
      *log << "[pipeline] ignoring checkpoint: "
           << loaded.error().to_string() << "\n";
    }
  }

  const auto checkpoint_now = [&](std::size_t done) {
    if (popts.checkpoint_path.empty()) return;
    pipeline::PipelineCheckpoint cp;
    cp.contig_k = popts.contig_k;
    cp.k_iterations = popts.k_iterations;
    cp.ranks = map.n_ranks();
    cp.lost_ranks = lost_ranks;
    cp.rounds_done = static_cast<std::uint32_t>(done);
    cp.kmers_total = pr.kmers_total;
    cp.kmers_filtered = pr.kmers_filtered;
    cp.dbg = pr.dbg;
    cp.contigs = pr.contigs;
    cp.iterations = pr.iterations;
    if (Status s = pipeline::save_checkpoint_file(popts.checkpoint_path, cp);
        !s && log != nullptr) {
      *log << "[pipeline] checkpoint write failed: " << s.to_string()
           << "\n";
    }
  };

  // Marks `rank` dead: survivors adopt its shards, and the loss lands in
  // the failure report, the flight recorder (with `cause`, if any) and the
  // rank-loss counter. Returns the orphaned shards.
  const auto lose_rank = [&](std::uint32_t rank, std::uint32_t phase,
                             const char* cause) {
    const std::vector<std::uint32_t> orphans = map.adopt(rank);
    lost_ranks.push_back(rank);
    ++pr.failures.devices_lost;
    std::vector<trace::Arg> fields{trace::Arg::n("rank", rank),
                                   trace::Arg::n("phase", phase)};
    if (cause != nullptr) fields.push_back(trace::Arg::s("cause", cause));
    fields.push_back(trace::Arg::n("orphan_shards", orphans.size()));
    fields.push_back(trace::Arg::n("survivors", map.n_live()));
    (void)lassm::log::Logger::instance().incident("rank_lost",
                                                  std::move(fields));
    if (tracer != nullptr) {
      tracer->metrics().counter(trace::names::kDistRankLosses).add(1);
    }
    return orphans;
  };

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
      const std::vector<std::uint32_t> orphans =
          lose_rank(rank, phase, nullptr);
      for (const std::uint32_t s : orphans) {
        orphan_mask |= std::uint64_t{1} << s;
      }
      resilience::RebalanceEvent ev;
      ev.lost_rank = rank;
      ev.after_batch = phase;
      ev.moved_contigs = orphans.size();
      ev.survivors = map.live_ranks();
      pr.failures.rebalances.push_back(std::move(ev));
      if (log != nullptr) {
        *log << "[pipeline] rank " << rank << " lost at phase " << phase
             << ": " << orphans.size() << " shards adopted by "
             << map.n_live() << " survivors\n";
      }
    }
    return orphan_mask;
  };

  if (!resumed) {
    fire_rank_losses(kPhasePreCount);
    // One live rank counts, filters and walks the single table the way
    // the local front end does; the sharded protocol would reach the same
    // table at several times the cost.
    const std::vector<std::uint32_t> live = map.live_ranks();
    pipeline::KmerCounts* const single =
        live.size() == 1 ? &table.local(live[0]) : nullptr;

    // Stage 1: k-mer analysis with error filtering.
    double stage_t0 = pipeline_t0;
    trace::AttributionProfile::Scope kmer_scope(profile, "kmer_analysis");
    TrafficStats before = msg.traffic();
    StageClock::time_point wall_t0 = StageClock::now();
    if (single != nullptr) {
      *single = pipeline::count_kmers(reads, popts.contig_k,
                                      /*canonical=*/false, &pool,
                                      popts.count_mode);
    } else {
      const CountStats cstats = count_kmers_dist(
          table, reads, popts.contig_k, ~std::uint64_t{0}, &pool);
      result.count_remote_msgs = cstats.remote_msgs;
      result.count_remote_msgs_model = cstats.remote_msgs_model;
    }
    pr.frontend.count_s = stage_seconds(wall_t0);
    pr.kmers_total = table.total_size();

    // Per-rank counting accounting (block sizes mirror the frontend's
    // contiguous split over the ranks live at count time).
    for (std::size_t li = 0; li < live.size(); ++li) {
      result.ranks[live[li]].reads = reads.size() * (li + 1) / live.size() -
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
      pr.kmers_total = table.total_size();
      for (const std::uint32_t r : map.live_ranks()) {
        result.ranks[r].kmers = table.local(r).size();
      }
      if (log != nullptr) {
        *log << "[pipeline] recounted orphaned shards: " << pr.kmers_total
             << " distinct k-mers after recovery\n";
      }
    }

    wall_t0 = StageClock::now();
    pr.kmers_filtered =
        single != nullptr
            ? pipeline::filter_low_count(*single, popts.min_kmer_count, &pool)
            : filter_low_count_dist(table, popts.min_kmer_count, &pool);
    pr.frontend.filter_s = stage_seconds(wall_t0);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "kmer_analysis", stage_t0,
                 trace::counter_args(kmer_scope.close()));
    record_stage_gauge(tracer, "kmer_count", pr.frontend.count_s);
    record_stage_gauge(tracer, "kmer_filter", pr.frontend.filter_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineKmersDistinct)
          .add(pr.kmers_total);
      tracer->metrics()
          .counter(trace::names::kPipelineKmersFiltered)
          .add(pr.kmers_filtered);
    }
    if (log != nullptr) {
      // Host wall clock stays out of the log: the log stream is part of
      // the bit-identical-at-every-thread-count contract. Timings live in
      // pr.frontend and the stage gauges.
      *log << "[pipeline] k-mer analysis";
      if (fleet) *log << " (" << map.n_live() << " ranks)";
      *log << ": " << pr.kmers_total << " distinct k-mers, "
           << pr.kmers_filtered << " filtered as likely errors";
      if (fleet) *log << ", " << result.count_remote_msgs << " remote inserts";
      *log << "\n";
    }

    // Stage 2: global de Bruijn graph -> contigs.
    stage_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
    trace::AttributionProfile::Scope dbg_scope(profile, "contig_generation");
    before = msg.traffic();
    wall_t0 = StageClock::now();
    pr.contigs = single != nullptr
                     ? pipeline::generate_contigs(*single, popts.contig_k,
                                                  popts.min_contig_len,
                                                  &pr.dbg, &pool)
                     : generate_contigs_dist(table, popts.contig_k,
                                             popts.min_contig_len, &pr.dbg,
                                             &pool);
    pr.frontend.dbg_s = stage_seconds(wall_t0);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "contig_generation", stage_t0,
                 trace::counter_args(dbg_scope.close()));
    record_stage_gauge(tracer, "contig_generation", pr.frontend.dbg_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineContigs)
          .add(pr.contigs.size());
    }
    if (log != nullptr) {
      *log << "[pipeline] contig generation: " << pr.contigs.size()
           << " contigs, " << bio::total_contig_bases(pr.contigs)
           << " bases, N50=" << bio::n50(pr.contigs) << "\n";
    }
    checkpoint_now(0);
    // The k-mer table is dead from here on: release it before the rounds.
    for (std::uint32_t r = 0; r < map.n_ranks(); ++r) {
      table.local(r) = pipeline::KmerCounts{};
    }
  }

  // Stage 3: iterative {alignment -> local assembly} over the k ladder.
  for (std::size_t round = rounds_done; round < popts.k_iterations.size();
       ++round) {
    const std::uint32_t k = popts.k_iterations[round];
    const double round_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
    trace::AttributionProfile::Scope round_scope(
        profile, "k-round " + std::to_string(k));
    const TrafficStats before = msg.traffic();
    const std::uint32_t phase =
        kPhaseRoundBase + static_cast<std::uint32_t>(round);

    fire_rank_losses(phase);
    const std::vector<std::uint32_t> live = map.live_ranks();

    pipeline::AlignStats astats;
    const StageClock::time_point align_t0 = StageClock::now();
    core::AssemblyInput input = pipeline::align_reads_to_ends(
        std::move(pr.contigs), reads, k, popts.aligner, &astats, &pool);

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
      // The reference honours the same n_threads knob as the simulator
      // (1 = the serial reference); both are bit-identical at any count.
      // It is not distributed (no modelled device or network).
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
      // One live rank: the single-device launch on the shared pool (the
      // multi-GPU path would LPT-reorder the contig list, which changes
      // modelled batch overlap and so kernel_time_s — results stay
      // identical but the one-rank run pins the time bits too).
      core::AssemblyResult ar = assembler->run(input, &pool);
      report.extension_bases = ar.total_extension_bases();
      report.kernel_time_s = ar.total_time_s;
      pr.failures.merge(ar.failures);
      core::LocalAssembler::apply(input, ar);
    } else {
      // Owner-computes partitioning of the round: contigs and their reads
      // scatter from the coordinator (lowest live rank) to the workers,
      // extensions gather back. Payloads stay in shared memory; the
      // traffic is billed on the matching links. The same LPT partition
      // run_multi_gpu_resilient computes internally prices the scatter.
      std::vector<std::uint32_t> contig_rank;
      if (input.num_contigs() > 0) {
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

      pr.failures.merge(mgr.failures);
      // A device lost mid-round is a rank lost for the rest of the run:
      // survivors adopt its shard range (the RebalanceEvent for the moved
      // contigs is already in mgr.failures, with physical rank ids).
      for (const pipeline::RankReport& rep : mgr.ranks) {
        if (!rep.lost || !map.live(rep.rank) || map.n_live() <= 1) continue;
        const std::vector<std::uint32_t> orphans =
            lose_rank(rep.rank, phase, "device_loss");
        if (log != nullptr) {
          *log << "[pipeline] rank " << rep.rank << " lost mid-round k=" << k
               << ": " << orphans.size() << " shards adopted by "
               << map.n_live() << " survivors\n";
        }
      }
    }

    pr.contigs = std::move(input.contigs);
    report.contigs = pr.contigs.size();
    report.total_bases = bio::total_contig_bases(pr.contigs);
    report.n50 = bio::n50(pr.contigs);
    attribute_traffic(profile, msg.traffic().minus(before));
    record_stage(tracer, driver_track, "k-round " + std::to_string(k),
                 round_t0, trace::counter_args(round_scope.close()));
    pr.iterations.push_back(report);
    checkpoint_now(round + 1);
    if (log != nullptr) {
      *log << "[pipeline] local assembly k=" << k;
      if (fleet) *log << " (" << map.n_live() << " ranks)";
      *log << ": mapped " << report.mapped_reads << " reads, +"
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
  if (fleet && tracer != nullptr) {
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
  record_stage(tracer, driver_track, "pipeline", pipeline_t0,
               trace::counter_args(pipeline_scope.close()));
  if (fleet && log != nullptr) {
    *log << "[pipeline] traffic: " << result.traffic.msgs << " msgs, "
         << result.traffic.bytes << " bytes, " << result.traffic.batches
         << " batches (" << result.traffic.drops << " dropped), "
         << result.traffic.flushes << " flushes\n";
  }
  return result;
}

}  // namespace lassm::dist

namespace lassm::pipeline {

PipelineResult run_pipeline(const bio::ReadSet& reads,
                            const simt::DeviceSpec& device,
                            const PipelineOptions& opts, std::ostream* log) {
  return dist::run_distributed(reads, device, dist::DistOptions{1, opts}, log)
      .pipeline;
}

}  // namespace lassm::pipeline
