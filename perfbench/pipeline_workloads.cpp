// The two whole-pipeline workloads: `metagenome` (single-device
// run_pipeline from in-memory FASTQ) and `distributed` (run_distributed at
// four ranks). Both assemble a synthetic community from the
// examples/metagenome_assembly read model.

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "bio/fasta.hpp"
#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "dist/dist_table.hpp"
#include "dist/frontend.hpp"
#include "dist/pipeline.hpp"
#include "pipeline/multi_gpu.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kReadLen = 130;
constexpr double kCoverage = 12.0;
constexpr double kErrorRate = 0.002;
/// Both workloads assemble communities of the same size: with 16 species
/// the assembly statistics (N50, extension bases, modelled time) varied by
/// 20-28% between seeds, with 40 by 11-16%; the mean over kReplicates
/// communities by 5-7%.
constexpr int kSpecies = 40;
constexpr int kSetupReps = 7;

struct Community {
  bio::ReadSet reads;
  std::string fastq;
  std::uint64_t genome_bases = 0;
};

/// The examples/metagenome_assembly community: genomes of 4-12 kb at
/// log-normally skewed abundances, 130 bp reads with 0.2% substitutions.
/// The community's shape (genome lengths, abundances) is drawn from a fixed
/// stream so every seed assembles the same amount of sequence; `seed`
/// drives the genome bases, read placement and errors.
Community make_community(int n_species, std::uint64_t seed) {
  bio::Xoshiro256 shape(2024);
  std::vector<std::uint64_t> lengths;
  std::vector<double> abundance;
  for (int s = 0; s < n_species; ++s) {
    lengths.push_back(4000 + shape.below(8000));
    abundance.push_back(std::exp(shape.gaussian() * 0.7));
  }

  bio::Xoshiro256 rng(seed);
  std::vector<std::string> genomes;
  Community com;
  double total_w = 0.0;
  for (int s = 0; s < n_species; ++s) {
    std::string g(lengths[s], 'A');
    for (char& c : g) c = bio::code_to_base(static_cast<int>(rng.below(4)));
    genomes.push_back(std::move(g));
    com.genome_bases += lengths[s];
    total_w += abundance[s] * static_cast<double>(lengths[s]);
  }
  const auto n_reads = static_cast<std::uint64_t>(
      kCoverage * static_cast<double>(com.genome_bases) / kReadLen);
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    double x = rng.uniform() * total_w;
    int s = 0;
    while (s + 1 < n_species &&
           x > abundance[s] * static_cast<double>(lengths[s])) {
      x -= abundance[s] * static_cast<double>(lengths[s]);
      ++s;
    }
    const std::uint64_t start = rng.below(lengths[s] - kReadLen);
    std::string frag = genomes[s].substr(start, kReadLen);
    for (char& c : frag) {
      if (rng.uniform() < kErrorRate) {
        c = bio::code_to_base((bio::base_to_code(c) + 1 +
                               static_cast<int>(rng.below(3))) % 4);
      }
    }
    com.reads.append(frag, 35);
  }
  std::ostringstream os;
  bio::write_fastq(os, com.reads);
  com.fastq = os.str();
  return com;
}

/// What one assembly job produced, reduced to comparable numbers.
struct Output {
  std::uint64_t contigs_fp = 0;  ///< the contigs alone
  std::uint64_t fp = 0;          ///< contigs + every deterministic stat
  double modeled_ms = 0.0;
  std::uint64_t n50 = 0;
  std::uint64_t extension_bases = 0;
  std::uint64_t kmers_total = 0;
  std::uint64_t kmers_filtered = 0;
  std::uint64_t dbg_contigs = 0;
  std::uint64_t mapped_reads = 0;  ///< summed over the k rounds
};

Output summarize(const pipeline::PipelineResult& r) {
  Output o;
  o.contigs_fp = contigs_fingerprint(r.contigs);
  std::uint64_t h = o.contigs_fp;
  for (const std::uint64_t v :
       {r.kmers_total, r.kmers_filtered, r.dbg.nodes, r.dbg.forks,
        r.dbg.dead_ends, r.dbg.contigs}) {
    h = mix_fingerprint(h, v);
  }
  for (const pipeline::IterationReport& it : r.iterations) {
    for (const std::uint64_t v :
         {std::uint64_t{it.k}, it.contigs, it.total_bases, it.n50,
          it.mapped_reads, it.extension_bases,
          double_bits(it.kernel_time_s)}) {
      h = mix_fingerprint(h, v);
    }
    o.modeled_ms += it.kernel_time_s * 1e3;
    o.extension_bases += it.extension_bases;
    o.mapped_reads += it.mapped_reads;
  }
  o.fp = h;
  o.n50 = bio::n50(r.contigs);
  o.kmers_total = r.kmers_total;
  o.kmers_filtered = r.kmers_filtered;
  o.dbg_contigs = r.dbg.contigs;
  return o;
}

/// Records one job's check against the reference output: every field of
/// `got` must equal `want` (`contigs_only` compares just the contigs).
void check(Report& rep, const Output& got, const Output& want,
           const std::string& what, bool contigs_only = false) {
  const bool ok = contigs_only ? got.contigs_fp == want.contigs_fp
                               : got.fp == want.fp;
  if (!ok) rep.mismatch(what + " output differs from the reference");
  rep.op(ok);
  rep.progress();
}

/// Generates the kReplicates communities of `seed` kSetupReps times (a
/// median needs several) and keeps the last set. The library's pipeline
/// drivers start their own engine pool inside each job, so set-up here is
/// input generation alone.
std::vector<Community> setup_communities(Report& rep, std::uint64_t seed) {
  std::vector<Community> coms;
  std::uint64_t first_fp = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    coms.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < kReplicates; ++r) {
      coms.push_back(make_community(kSpecies, replicate_seed(seed, r)));
    }
    const double gen_s = seconds_since(t0);
    rep.sample("setup_s", gen_s);
    rep.sample("workload.generate_s", gen_s);
    std::uint64_t fp = 0;
    for (const Community& com : coms) {
      fp = mix_fingerprint(fp, com.reads.size());
      fp = mix_fingerprint(fp, std::hash<std::string>{}(com.fastq));
    }
    if (i == 0) first_fp = fp;
    if (fp != first_fp) rep.mismatch("input generation is not deterministic");
  }
  const Community& com = coms.front();
  rep.detail_num("communities", static_cast<double>(coms.size()));
  rep.detail_num("genome_bases", static_cast<double>(com.genome_bases));
  rep.detail_num("reads", static_cast<double>(com.reads.size()));
  rep.detail_num("fastq_bytes", static_cast<double>(com.fastq.size()));
  return coms;
}

/// The assembler and engine pool a pipeline driver starts for one job,
/// built as run_pipeline and run_distributed build theirs.
struct Engine {
  std::unique_ptr<core::LocalAssembler> assembler;
  std::unique_ptr<core::WarpExecutionEngine> pool;
};

Engine start_engine(const simt::DeviceSpec& device,
                    const core::AssemblyOptions& opts, Spans& spans) {
  auto s = spans.scope("core.engine_start");
  Engine e;
  e.assembler = std::make_unique<core::LocalAssembler>(device, opts);
  if (core::resolve_threads(opts.n_threads) > 1) {
    e.pool = e.assembler->make_engine();
  }
  return e;
}

std::uint64_t count_windows(const bio::ReadSet& reads, std::uint32_t k) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (reads[i].len >= k) n += reads[i].len - k + 1;
  }
  return n;
}

/// The deterministic outputs of the reference jobs, one per community,
/// averaged: the end-to-end metrics and the pipeline and simt layers'
/// counts of one job. Set before the timed jobs so a cut run still
/// reports them.
void set_assembly_metrics(Report& rep, const std::vector<Output>& refs,
                          const std::vector<Community>& coms,
                          std::size_t k_rounds) {
  double modeled_ms = 0, n50 = 0, ext = 0, dbg_contigs = 0;
  double kmers_total = 0, kmers_filtered = 0, mapped = 0, reads = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    modeled_ms += refs[i].modeled_ms;
    n50 += static_cast<double>(refs[i].n50);
    ext += static_cast<double>(refs[i].extension_bases);
    dbg_contigs += static_cast<double>(refs[i].dbg_contigs);
    kmers_total += static_cast<double>(refs[i].kmers_total);
    kmers_filtered += static_cast<double>(refs[i].kmers_filtered);
    mapped += static_cast<double>(refs[i].mapped_reads);
    reads += static_cast<double>(coms[i].reads.size());
  }
  const auto n = static_cast<double>(refs.size());
  rep.set("modeled_ms", modeled_ms / n);
  rep.set("n50_bp", n50 / n);
  rep.set("extension_bases", ext / n);
  rep.set("simt.modeled_ms.a100", modeled_ms / n);
  rep.set("pipeline.dbg_contigs", dbg_contigs / n);
  rep.set("pipeline.kmers_kept_frac", 1.0 - kmers_filtered / kmers_total);
  rep.set("pipeline.mapped_frac",
          mapped / (reads * static_cast<double>(k_rounds)));
}

// ---------------------------------------------------------------- metagenome

/// run_pipeline's public calls made one by one, each inside a layer span:
/// read_fastq, the engine start, count_kmers, filter_low_count,
/// generate_contigs, then per k align_reads_to_ends, LocalAssembler::run
/// and apply on the one pool.
pipeline::PipelineResult staged_pipeline(const std::string& fastq,
                                         const simt::DeviceSpec& device,
                                         const pipeline::PipelineOptions& o,
                                         Spans& spans, KernelTally* tally) {
  pipeline::PipelineResult r;
  bio::ReadSet reads;
  {
    auto s = spans.scope("bio.fastq_parse");
    std::istringstream is(fastq);
    reads = bio::read_fastq(is);
  }
  const Engine engine = start_engine(device, o.assembly, spans);
  core::WarpExecutionEngine* const pool = engine.pool.get();
  {
    pipeline::KmerCounts counts;
    {
      auto s = spans.scope("pipeline.count");
      counts = pipeline::count_kmers(reads, o.contig_k, false, pool,
                                     o.count_mode);
    }
    r.kmers_total = counts.size();
    {
      auto s = spans.scope("pipeline.filter");
      r.kmers_filtered =
          pipeline::filter_low_count(counts, o.min_kmer_count, pool);
    }
    auto s = spans.scope("pipeline.dbg");
    r.contigs = pipeline::generate_contigs(counts, o.contig_k,
                                           o.min_contig_len, &r.dbg, pool);
    counts = pipeline::KmerCounts{};
  }
  for (const std::uint32_t k : o.k_iterations) {
    pipeline::AlignStats astats;
    core::AssemblyInput input;
    {
      auto s = spans.scope("pipeline.align");
      input = pipeline::align_reads_to_ends(std::move(r.contigs), reads, k,
                                            o.aligner, &astats, pool);
    }
    core::AssemblyResult ar;
    {
      auto s = spans.scope("core.assemble.k" + std::to_string(k));
      ar = engine.assembler->run(input, pool);
    }
    {
      auto s = spans.scope("core.apply");
      core::LocalAssembler::apply(input, ar);
    }
    if (tally != nullptr) tally->add(ar.stats);
    pipeline::IterationReport it;
    it.k = k;
    it.mapped_reads = astats.aligned_left + astats.aligned_right;
    it.extension_bases = ar.total_extension_bases();
    it.kernel_time_s = ar.total_time_s;
    r.contigs = std::move(input.contigs);
    it.contigs = r.contigs.size();
    it.total_bases = bio::total_contig_bases(r.contigs);
    it.n50 = bio::n50(r.contigs);
    r.iterations.push_back(it);
  }
  return r;
}

// ---------------------------------------------------------------- distributed

struct DistOutput {
  Output out;
  dist::TrafficStats traffic;
  std::uint64_t fp = 0;  ///< out.fp + traffic
};

DistOutput summarize_dist(const pipeline::PipelineResult& r,
                          const dist::TrafficStats& t) {
  DistOutput d;
  d.out = summarize(r);
  d.traffic = t;
  std::uint64_t h = d.out.fp;
  for (const std::uint64_t v : {t.msgs, t.bytes, t.batches, t.flushes,
                                double_bits(t.network_s)}) {
    h = mix_fingerprint(h, v);
  }
  d.fp = h;
  return d;
}

/// run_distributed's public calls made one by one (no fault plan): the
/// sharded count and filter, the distributed DBG, then per k the
/// alignment, the scatter, run_multi_gpu_resilient over the live ranks
/// and the gather, billed on one MessageLayer.
DistOutput staged_distributed(const bio::ReadSet& reads,
                              const simt::DeviceSpec& device,
                              const dist::DistOptions& dopts, Spans& spans) {
  const pipeline::PipelineOptions& o = dopts.pipeline;
  pipeline::PipelineResult r;
  std::unique_ptr<dist::ShardMap> map;
  std::unique_ptr<dist::MessageLayer> msg;
  std::unique_ptr<dist::DistKmerTable> table;
  {
    auto s = spans.scope("dist.init");
    map = std::make_unique<dist::ShardMap>(dopts.ranks);
    msg = std::make_unique<dist::MessageLayer>(
        map->n_ranks(), dist::DistKmerTable::kNumChannels, device.net);
    table = std::make_unique<dist::DistKmerTable>(*map, *msg);
  }
  const Engine engine = start_engine(device, o.assembly, spans);
  core::WarpExecutionEngine* const pool = engine.pool.get();
  {
    auto s = spans.scope("dist.count");
    dist::count_kmers_dist(*table, reads, o.contig_k, ~std::uint64_t{0},
                           pool);
    r.kmers_total = table->total_size();
    r.kmers_filtered =
        dist::filter_low_count_dist(*table, o.min_kmer_count, pool);
  }
  {
    auto s = spans.scope("dist.dbg");
    r.contigs = dist::generate_contigs_dist(*table, o.contig_k,
                                            o.min_contig_len, &r.dbg, pool);
  }
  for (const std::uint32_t k : o.k_iterations) {
    auto round = spans.scope("dist.round");
    pipeline::AlignStats astats;
    core::AssemblyInput input;
    {
      auto s = spans.scope("pipeline.align");
      input = pipeline::align_reads_to_ends(std::move(r.contigs), reads, k,
                                            o.aligner, &astats, pool);
    }
    const std::vector<std::uint32_t> live = map->live_ranks();
    std::vector<std::uint32_t> contig_rank;
    {
      auto s = spans.scope("dist.scatter");
      if (live.size() > 1 && input.num_contigs() > 0) {
        const std::vector<core::AssemblyInput> parts =
            pipeline::partition_input(
                input, static_cast<std::uint32_t>(live.size()), &contig_rank);
        for (std::size_t p = 1; p < parts.size(); ++p) {
          std::uint64_t bytes = parts[p].reads.total_bases();
          for (const bio::Contig& c : parts[p].contigs) bytes += c.seq.size();
          msg->bill_bulk(live[0], live[p],
                         parts[p].contigs.size() + parts[p].reads.size(),
                         bytes);
        }
        msg->flush();
      }
    }
    pipeline::MultiGpuResult mgr;
    {
      auto s = spans.scope("core.assemble.k" + std::to_string(k));
      const std::vector<simt::DeviceSpec> devices(live.size(), device);
      mgr = pipeline::run_multi_gpu_resilient(input, devices, o.assembly,
                                              nullptr, &live);
    }
    pipeline::IterationReport it;
    it.k = k;
    it.mapped_reads = astats.aligned_left + astats.aligned_right;
    it.kernel_time_s = mgr.makespan_s;
    {
      auto s = spans.scope("core.apply");
      for (std::size_t i = 0; i < input.contigs.size(); ++i) {
        it.extension_bases +=
            mgr.extensions[i].left.size() + mgr.extensions[i].right.size();
        bio::apply_extension(input.contigs[i], mgr.extensions[i]);
      }
    }
    {
      auto s = spans.scope("dist.gather");
      if (!contig_rank.empty()) {
        std::vector<std::uint64_t> gmsgs(live.size(), 0);
        std::vector<std::uint64_t> gbytes(live.size(), 0);
        for (std::size_t i = 0; i < contig_rank.size(); ++i) {
          ++gmsgs[contig_rank[i]];
          gbytes[contig_rank[i]] += mgr.extensions[i].left.size() +
                                    mgr.extensions[i].right.size();
        }
        for (std::size_t p = 1; p < live.size(); ++p) {
          if (gmsgs[p] != 0) {
            msg->bill_bulk(live[p], live[0], gmsgs[p], gbytes[p]);
          }
        }
        msg->flush();
      }
    }
    r.contigs = std::move(input.contigs);
    it.contigs = r.contigs.size();
    it.total_bases = bio::total_contig_bases(r.contigs);
    it.n50 = bio::n50(r.contigs);
    r.iterations.push_back(it);
  }
  const dist::TrafficStats traffic = msg->traffic();
  {
    auto s = spans.scope("dist.teardown");
    table.reset();
    msg.reset();
    map.reset();
  }
  return summarize_dist(r, traffic);
}

}  // namespace

void run_metagenome(const RunConfig& cfg, Report& rep) {
  const simt::DeviceSpec device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions opts;
  opts.assembly.n_threads = kEngineThreads;
  pipeline::PipelineOptions opts1 = opts;
  opts1.assembly.n_threads = 1;

  const std::vector<Community> coms = setup_communities(rep, cfg.seed);

  const auto job = [&](std::size_t c, const pipeline::PipelineOptions& o) {
    std::istringstream is(coms[c].fastq);
    const bio::ReadSet reads = bio::read_fastq(is);
    return summarize(pipeline::run_pipeline(reads, device, o));
  };

  // Each community's first 4-thread job is the reference every later job
  // on it (1-thread, traced, repeated) must reproduce bit for bit.
  const Clock::time_point measured = Clock::now();
  std::vector<Output> refs;
  for (std::size_t c = 0; c < coms.size(); ++c) {
    refs.push_back(timed(rep, cfg.trace ? "untraced_run_s" : "run_s",
                         [&] { return job(c, opts); }));
    rep.op(refs.back().n50 > 0);
    rep.progress();
  }
  rep.detail("reference_fingerprint", std::to_string(refs.front().fp));
  set_assembly_metrics(rep, refs, coms, opts.k_iterations.size());

  // Jobs rotate through the communities, one per repetition of the steps.
  std::size_t turn = 0;
  const auto next = [&] { return turn++ % coms.size(); };
  std::size_t c = 0;

  if (!cfg.trace) {
    rep.on_emit(derive_batch_metrics);
    repeat_for(cfg.seconds, 3,
               {[&] {
                  c = next();
                  check(rep,
                        timed(rep, "serial_s", [&] { return job(c, opts1); }),
                        refs[c], "1-thread pipeline");
                },
                [&] {
                  check(rep, timed(rep, "run_s", [&] { return job(c, opts); }),
                        refs[c], "4-thread pipeline");
                }},
               measured);
    return;
  }

  Spans spans;
  const auto staged = [&](bool one_thread) {
    std::uint64_t job_id = 0;
    pipeline::PipelineResult r;
    KernelTally tally;
    rep.set_outstanding(1);
    {
      auto root = spans.job(&job_id);
      r = staged_pipeline(coms[c].fastq, device, one_thread ? opts1 : opts,
                          spans, &tally);
    }
    rep.set_outstanding(0);
    // The kernel counts of one job, the first community's.
    if (c == 0) tally.report(rep);
    sample_job_spans(rep, spans, job_id, one_thread ? "_1t" : "");
    check(rep, summarize(r), refs[c],
          one_thread ? "traced 1-thread staged pipeline"
                     : "traced staged pipeline");
  };
  const double windows =
      static_cast<double>(count_windows(coms.front().reads, opts.contig_k));
  const auto fastq_bytes = static_cast<double>(coms.front().fastq.size());
  rep.on_emit([windows, fastq_bytes](Report& r) {
    const double parse_s = r.median_of("bio.fastq_parse_s");
    const double count_s = r.median_of("pipeline.count_s");
    r.set("bio.fastq_mb_per_s", parse_s > 0 ? fastq_bytes / parse_s / 1e6 : 0);
    r.set("pipeline.count_mwindows_per_s",
          count_s > 0 ? windows / count_s / 1e6 : 0);
    derive_kernel_rates(r);
    derive_trace_overhead(r);
  });
  repeat_for(cfg.seconds, 3,
             {[&] {
                c = next();
                staged(false);
              },
              [&] { staged(true); },
              [&] {
                check(rep, timed(rep, "untraced_run_s",
                                 [&] { return job(c, opts); }),
                      refs[c], "4-thread pipeline");
              }},
             measured);
  write_trace(cfg, spans);
}

void run_distributed(const RunConfig& cfg, Report& rep) {
  const simt::DeviceSpec device = simt::DeviceSpec::a100();
  dist::DistOptions dopts;
  dopts.ranks = 4;
  dopts.pipeline.assembly.n_threads = kEngineThreads;
  pipeline::PipelineOptions oracle_opts;
  oracle_opts.assembly.n_threads = 1;

  const std::vector<Community> coms = setup_communities(rep, cfg.seed);

  const auto job = [&](std::size_t c) {
    const dist::DistResult d =
        dist::run_distributed(coms[c].reads, device, dopts);
    return summarize_dist(d.pipeline, d.traffic);
  };
  const auto oracle = [&](std::size_t c) {
    return summarize(
        pipeline::run_pipeline(coms[c].reads, device, oracle_opts));
  };

  // Per community the oracle, the single-rank single-thread pipeline on
  // the same reads, and the first distributed job, which every later one
  // must reproduce bit for bit.
  const Clock::time_point measured = Clock::now();
  std::vector<Output> wants;
  std::vector<DistOutput> refs;
  for (std::size_t c = 0; c < coms.size(); ++c) {
    wants.push_back(timed(rep, "serial_s", [&] { return oracle(c); }));
    rep.op(wants.back().n50 > 0);
    rep.progress();
    refs.push_back(timed(rep, cfg.trace ? "untraced_run_s" : "run_s",
                         [&] { return job(c); }));
    check(rep, refs.back().out, wants.back(), "distributed vs single-rank",
          true);
  }
  rep.detail("reference_fingerprint", std::to_string(refs.front().fp));
  std::vector<Output> outs;
  double msgs = 0, bytes = 0, batches = 0, network_ms = 0, kmers = 0;
  for (const DistOutput& d : refs) {
    outs.push_back(d.out);
    msgs += static_cast<double>(d.traffic.msgs);
    bytes += static_cast<double>(d.traffic.bytes);
    batches += static_cast<double>(d.traffic.batches);
    network_ms += d.traffic.network_s * 1e3;
    kmers += static_cast<double>(d.out.kmers_total);
  }
  set_assembly_metrics(rep, outs, coms,
                       dopts.pipeline.k_iterations.size());
  const auto n = static_cast<double>(refs.size());
  rep.set("dist.msgs", msgs / n);
  rep.set("dist.bytes", bytes / n);
  rep.set("dist.batches", batches / n);
  rep.set("dist.msgs_per_kmer", msgs / kmers);
  rep.set("dist.network_ms", network_ms / n);

  std::size_t turn = 0;
  const auto next = [&] { return turn++ % coms.size(); };
  std::size_t c = 0;
  const auto check_dist = [&](const DistOutput& got, const std::string& what) {
    const bool ok =
        got.fp == refs[c].fp && got.out.contigs_fp == wants[c].contigs_fp;
    if (!ok) rep.mismatch(what + " output differs from the reference");
    rep.op(ok);
    rep.progress();
  };

  if (!cfg.trace) {
    rep.on_emit(derive_batch_metrics);
    // The reference pass already gave six samples of both times and
    // often fills the window itself.
    repeat_for(cfg.seconds, 1,
               {[&] {
                  c = next();
                  check(rep, timed(rep, "serial_s", [&] { return oracle(c); }),
                        wants[c], "single-rank oracle");
                },
                [&] {
                  check_dist(timed(rep, "run_s", [&] { return job(c); }),
                             "distributed");
                }},
               measured);
    return;
  }

  Spans spans;
  const auto staged = [&] {
    c = next();
    std::uint64_t job_id = 0;
    DistOutput out;
    rep.set_outstanding(1);
    {
      auto root = spans.job(&job_id);
      out = staged_distributed(coms[c].reads, device, dopts, spans);
    }
    rep.set_outstanding(0);
    sample_job_spans(rep, spans, job_id, "");
    check_dist(out, "traced staged distributed");
  };
  rep.on_emit([](Report& r) {
    r.set("dist.rounds_s", r.median_of("dist.round_s"));
    derive_trace_overhead(r);
  });
  repeat_for(cfg.seconds, 3,
             {staged, [&] {
                check_dist(timed(rep, "untraced_run_s", [&] { return job(c); }),
                           "distributed");
              }},
             measured);
  write_trace(cfg, spans);
}

}  // namespace perfbench
