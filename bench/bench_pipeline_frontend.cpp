// Pipeline front-end throughput: k-mer counting, low-count filter, de
// Bruijn contig generation and read-to-end alignment on a fixed synthetic
// shotgun workload (200 kb genome, ~12x coverage, 0.2% error), at one
// thread and on a 4-worker warp-execution pool — plus the lock-free
// concurrent count table vs the per-chunk merge oracle (1t and 4t) and
// the streaming bounded-memory ingest path. Writes
// results/BENCH_frontend.json with the measured per-stage wall clock next
// to the recorded seed baseline (std::unordered_map counts, per-window
// repacking, serial-only stages), so the front-end overhaul's speedup
// stays visible — and falsifiable — in-repo. The deterministic workload
// makes before/after runs directly comparable; every parallel stage is
// bit-identical to the serial oracle (see tests_pipeline
// FrontendParallel.*), so this file measures speed only.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "bench/common.hpp"
#include "bio/fasta.hpp"
#include "bio/rng.hpp"
#include "bio/stream.hpp"
#include "core/exec.hpp"
#include "model/csv.hpp"
#include "pipeline/aligner.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/pipeline.hpp"

namespace {

using namespace lassm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seed-build baseline (commit 76ade05), measured on this workload with the
// same best-of-3 protocol, single thread, -O2. Update only with a
// re-measurement of the seed revision.
constexpr char kBaselineCommit[] = "76ade05 (pre front-end overhaul)";
constexpr double kBaselineCountS = 0.676308;
constexpr double kBaselineFilterS = 0.0158046;
constexpr double kBaselineDbgS = 2.39523;
constexpr double kBaselineAlignS = 0.0710847;
constexpr double kBaselinePipelineS = 3.58804;

/// The fixed workload: 200 kb uniform-random genome, 130 bp reads at ~12x
/// coverage with a 0.2% substitution error rate (so the filter and the
/// graph see realistic error k-mers), fixed RNG seed.
bio::ReadSet make_reads() {
  bio::Xoshiro256 rng(20240806);
  std::string genome(200000, 'A');
  for (char& c : genome) {
    c = bio::code_to_base(static_cast<int>(rng.below(4)));
  }
  bio::ReadSet reads;
  const std::uint32_t read_len = 130;
  const std::uint64_t n_reads = 12 * genome.size() / read_len;
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    std::string frag = genome.substr(start, read_len);
    for (char& c : frag) {
      if (rng.uniform() < 0.002) {
        c = bio::code_to_base(
            (bio::base_to_code(c) + 1 + static_cast<int>(rng.below(3))) % 4);
      }
    }
    reads.append(frag, 35);
  }
  return reads;
}

struct StageTimes {
  double count_s = 1e9;
  double filter_s = 1e9;
  double dbg_s = 1e9;
  double align_s = 1e9;
  double pipeline_s = 1e9;
  std::uint64_t distinct = 0;
  std::uint64_t contigs = 0;
};

/// Best-of-3 per stage. `pool` == nullptr is the serial oracle.
StageTimes measure(const bio::ReadSet& reads,
                   core::WarpExecutionEngine* pool) {
  StageTimes out;
  pipeline::KmerCounts kept;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    pipeline::KmerCounts counts = pipeline::count_kmers(reads, 21, false,
                                                        pool);
    out.count_s = std::min(out.count_s, seconds_since(t0));
    out.distinct = counts.size();
    t0 = Clock::now();
    pipeline::filter_low_count(counts, 2, pool);
    out.filter_s = std::min(out.filter_s, seconds_since(t0));
    kept = std::move(counts);
  }
  bio::ContigSet contigs;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    contigs = pipeline::generate_contigs(kept, 21, 100, nullptr, pool);
    out.dbg_s = std::min(out.dbg_s, seconds_since(t0));
  }
  out.contigs = contigs.size();
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    auto in = pipeline::align_reads_to_ends(contigs, reads, 33, {}, nullptr,
                                            pool);
    out.align_s = std::min(out.align_s, seconds_since(t0));
  }
  return out;
}

/// Best-of-3 wall clock of one forced counting mode (the concurrent-vs-
/// merge differential the lock-free table is gated on: same contents, so
/// the delta is pure counting machinery).
double measure_count_mode(const bio::ReadSet& reads,
                          core::WarpExecutionEngine* pool,
                          pipeline::CountMode mode) {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    pipeline::KmerCounts counts =
        pipeline::count_kmers(reads, 21, false, pool, mode);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Best-of-3 wall clock of the streaming bounded-memory count over the
/// same reads (serialized to FASTQ once, re-parsed per rep — parse time is
/// part of the story: the overlap with counting is what the double-buffer
/// buys). 1 MB block budget, so the workload streams through ~3 blocks.
double measure_count_stream(const std::string& fastq,
                            core::WarpExecutionEngine* pool,
                            pipeline::StreamCountStats* stats) {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    std::istringstream is(fastq);
    bio::SequenceStreamReader reader(is, "bench.fq", {1ULL << 20});
    const auto t0 = Clock::now();
    pipeline::KmerCounts counts =
        pipeline::count_kmers_stream(reader, 21, false, pool, stats);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

double measure_pipeline(const bio::ReadSet& reads, unsigned n_threads) {
  pipeline::PipelineOptions opts;
  opts.use_reference = true;
  opts.assembly.n_threads = n_threads;
  const auto t0 = Clock::now();
  const auto r = pipeline::run_pipeline(reads, simt::DeviceSpec::a100(),
                                        opts);
  const double s = seconds_since(t0);
  std::cout << "  pipeline(" << n_threads << "t): " << s << " s, contigs "
            << r.contigs.size() << "\n";
  return s;
}

}  // namespace

int main() {
  std::cout << "bench_pipeline_frontend: front-end stage wall clock\n";
  const bio::ReadSet reads = make_reads();
  const std::uint64_t windows = reads.total_kmers(21);
  std::cout << "  workload: " << reads.size() << " reads, "
            << reads.total_bases() << " bases, " << windows
            << " k=21 windows\n";

  constexpr unsigned kPoolThreads = 4;
  const auto pool = std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, kPoolThreads);

  StageTimes serial = measure(reads, nullptr);
  serial.pipeline_s = measure_pipeline(reads, 1);
  StageTimes pooled = measure(reads, pool.get());
  pooled.pipeline_s = measure_pipeline(reads, kPoolThreads);

  // Concurrent table vs per-chunk + merge oracle, same contents: at one
  // thread the concurrent path must not lose (the merge pass it deleted is
  // the headroom), and with the pool it must win outright.
  const double merge_1t =
      measure_count_mode(reads, nullptr, pipeline::CountMode::kMergeOracle);
  const double conc_1t =
      measure_count_mode(reads, nullptr, pipeline::CountMode::kConcurrent);
  const double merge_4t = measure_count_mode(
      reads, pool.get(), pipeline::CountMode::kMergeOracle);
  const double conc_4t = measure_count_mode(
      reads, pool.get(), pipeline::CountMode::kConcurrent);
  std::cout << "  count merge/concurrent 1t: " << merge_1t << " / "
            << conc_1t << " s; 4t: " << merge_4t << " / " << conc_4t
            << " s\n";

  const std::string fastq = [&] {
    std::ostringstream os;
    bio::write_fastq(os, reads);
    return std::move(os).str();
  }();
  pipeline::StreamCountStats stream_stats;
  const double stream_4t =
      measure_count_stream(fastq, pool.get(), &stream_stats);
  std::cout << "  count stream(4t, 1MB blocks): " << stream_4t << " s, "
            << stream_stats.blocks << " blocks, peak resident "
            << stream_stats.peak_resident_bases << " bases\n";

  const double mkmers = static_cast<double>(windows) / serial.count_s / 1e6;
  std::cout << "  count(1t): " << serial.count_s << " s (" << mkmers
            << " Mkmers/s, baseline "
            << static_cast<double>(windows) / kBaselineCountS / 1e6
            << ")\n  dbg(1t): " << serial.dbg_s << " s (baseline "
            << kBaselineDbgS << ")\n";

  model::CsvWriter csv = bench::bench_csv(
      "pipeline_frontend",
      {"stage", "seed_1t_s", "new_1t_s", "new_4t_s", "speedup_1t"});
  csv.row("kmer_count", kBaselineCountS, serial.count_s, pooled.count_s,
          kBaselineCountS / serial.count_s);
  csv.row("kmer_filter", kBaselineFilterS, serial.filter_s, pooled.filter_s,
          kBaselineFilterS / serial.filter_s);
  csv.row("contig_generation", kBaselineDbgS, serial.dbg_s, pooled.dbg_s,
          kBaselineDbgS / serial.dbg_s);
  csv.row("align", kBaselineAlignS, serial.align_s, pooled.align_s,
          kBaselineAlignS / serial.align_s);
  csv.row("pipeline", kBaselinePipelineS, serial.pipeline_s,
          pooled.pipeline_s, kBaselinePipelineS / serial.pipeline_s);
  csv.row("count_merge_oracle", kBaselineCountS, merge_1t, merge_4t,
          kBaselineCountS / merge_1t);
  csv.row("count_concurrent", kBaselineCountS, conc_1t, conc_4t,
          kBaselineCountS / conc_1t);

  // Same-run ratio: both sides come from this invocation on this host, so
  // unlike the seed-baseline speedups it compares no seconds across hosts.
  const double dbg_speedup_4t = serial.dbg_s / pooled.dbg_s;
  std::cout << "  dbg 1t/4t: " << dbg_speedup_4t << "x\n";

  const std::string path = model::results_dir() + "/BENCH_frontend.json";
  std::ofstream js(path);
  js << "{\n"
     << "  \"bench\": \"pipeline_frontend\",\n";
  // Stage wall clocks are noisy best-of-3 numbers; gate on a 40% drop.
  lassm::bench::write_metrics_envelope(
      js, {{"count_mkmers_per_s", mkmers, "higher", 0.4},
           {"speedup_count", kBaselineCountS / serial.count_s, "higher", 0.4},
           {"speedup_dbg", kBaselineDbgS / serial.dbg_s, "higher", 0.4},
           {"speedup_pipeline",
            kBaselinePipelineS / serial.pipeline_s, "higher", 0.4},
           {"count_conc_over_merge_1t", merge_1t / conc_1t, "higher", 0.4},
           {"count_conc_over_merge_4t", merge_4t / conc_4t, "higher", 0.4},
           {"dbg_speedup_4t", dbg_speedup_4t, "higher", 0.4}});
  js << "  \"workload\": {\"reads\": " << reads.size()
     << ", \"bases\": " << reads.total_bases()
     << ", \"k21_windows\": " << windows << "},\n"
     << "  \"count_s\": " << serial.count_s << ",\n"
     << "  \"count_mkmers_per_s\": " << mkmers << ",\n"
     << "  \"filter_s\": " << serial.filter_s << ",\n"
     << "  \"dbg_s\": " << serial.dbg_s << ",\n"
     << "  \"align_s\": " << serial.align_s << ",\n"
     << "  \"pipeline_s\": " << serial.pipeline_s << ",\n"
     << "  \"count_merge_1t_s\": " << merge_1t << ",\n"
     << "  \"count_concurrent_1t_s\": " << conc_1t << ",\n"
     << "  \"count_merge_4t_s\": " << merge_4t << ",\n"
     << "  \"count_concurrent_4t_s\": " << conc_4t << ",\n"
     << "  \"count_stream_4t_s\": " << stream_4t << ",\n"
     << "  \"stream_blocks\": " << stream_stats.blocks << ",\n"
     << "  \"stream_peak_resident_bases\": "
     << stream_stats.peak_resident_bases << ",\n"
     << "  \"count_s_4t\": " << pooled.count_s << ",\n"
     << "  \"dbg_s_4t\": " << pooled.dbg_s << ",\n"
     << "  \"dbg_speedup_4t\": " << dbg_speedup_4t << ",\n"
     << "  \"align_s_4t\": " << pooled.align_s << ",\n"
     << "  \"pipeline_s_4t\": " << pooled.pipeline_s << ",\n"
     << "  \"baseline\": {\n"
     << "    \"commit\": \"" << kBaselineCommit << "\",\n"
     << "    \"count_s\": " << kBaselineCountS << ",\n"
     << "    \"filter_s\": " << kBaselineFilterS << ",\n"
     << "    \"dbg_s\": " << kBaselineDbgS << ",\n"
     << "    \"align_s\": " << kBaselineAlignS << ",\n"
     << "    \"pipeline_s\": " << kBaselinePipelineS << "\n"
     << "  },\n"
     << "  \"speedup\": {\n"
     << "    \"count\": " << kBaselineCountS / serial.count_s << ",\n"
     << "    \"filter\": " << kBaselineFilterS / serial.filter_s << ",\n"
     << "    \"dbg\": " << kBaselineDbgS / serial.dbg_s << ",\n"
     << "    \"align\": " << kBaselineAlignS / serial.align_s << ",\n"
     << "    \"pipeline\": " << kBaselinePipelineS / serial.pipeline_s
     << ",\n"
     << "    \"frontend_parallel\": "
     << (serial.count_s + serial.dbg_s + serial.align_s) /
            (pooled.count_s + pooled.dbg_s + pooled.align_s)
     << "\n"
     << "  }\n"
     << "}\n";
  std::cout << "  wrote " << path << "\n";
  bench::write_artifacts(std::cout, csv);
  return 0;
}
