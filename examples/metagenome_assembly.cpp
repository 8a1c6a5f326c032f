// End-to-end mini-MetaHipMer run (Fig. 2 of the paper): synthesise a small
// metagenomic community (several genomes at log-normally skewed
// abundances), shotgun-sequence it, and assemble with k-mer analysis ->
// global de Bruijn contigs -> iterative {alignment -> local assembly} over
// the production ladder k = 21, 33, 55, 77 on a chosen device model.
//
//   ./metagenome_assembly [device] [num_species] [coverage] [threads]
// where [device] is any DeviceSpec::zoo() slug or alias (a100, mi250x,
// max1550, mi300x, gh200, cpu-simd, orin-nx, nvidia, amd, intel, ...).
//                         [--ranks N] [--trace t.json] [--metrics m.json]
//                         [--log-level LEVEL] [--flight-dir DIR]
//
// `--ranks` (or LASSM_RANKS) shards the k-mer table and de Bruijn graph
// across N simulated ranks with batched owner-computes messaging billed
// against the device's network model (default 1: the single-rank
// pipeline). Contigs are bit-identical at every rank count; a multi-rank
// run additionally reports the message-layer traffic. With a fault plan
// set, every run prints the faults it absorbed.
//
// `--trace` (or LASSM_TRACE) records the whole pipeline — stage spans, one
// sim timeline per k-round's launches, per-worker host tracks — as Chrome
// trace JSON for ui.perfetto.dev. `--log-level` (or LASSM_LOG) raises the
// structured-logging threshold from the default `warn`; `--flight-dir`
// (or LASSM_FLIGHT_DIR) redirects flight-recorder dumps.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "bio/fasta.hpp"
#include "bio/rng.hpp"
#include "dist/pipeline.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

std::string random_genome(lassm::bio::Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (char& c : s) {
    c = lassm::bio::code_to_base(static_cast<int>(rng.below(4)));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lassm;

  const trace::TraceCli tcli = trace::parse_trace_cli(argc, argv);
  // Positionals stop at the first `--flag`; flags may follow in any order.
  int npos = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      npos = i;
      break;
    }
  }
  simt::DeviceSpec device = simt::DeviceSpec::a100();
  if (npos > 1) {
    const simt::DeviceSpec* found = simt::DeviceSpec::find(argv[1]);
    if (found == nullptr) {
      std::cerr << "metagenome_assembly: unknown device '" << argv[1]
                << "' (try: " << simt::DeviceSpec::zoo_slugs() << ")\n";
      return 1;
    }
    device = *found;
  }
  const int n_species = npos > 2 ? std::atoi(argv[2]) : 4;
  const double coverage = npos > 3 ? std::atof(argv[3]) : 9.0;
  const unsigned n_threads =
      npos > 4 ? static_cast<unsigned>(std::atoi(argv[4])) : 0;

  std::uint32_t ranks = 1;
  if (const char* env = std::getenv("LASSM_RANKS")) {
    ranks = static_cast<std::uint32_t>(std::atoi(env));
  }
  for (int i = npos; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0) {
      ranks = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    }
  }
  if (ranks == 0) ranks = 1;

  // 1) A toy metagenomic community: genome sizes 4-12 kb, abundances
  //    log-normally skewed (the rare-species problem the paper's intro
  //    motivates co-assembly with).
  bio::Xoshiro256 rng(2024);
  std::vector<std::string> genomes;
  std::vector<double> abundance;
  for (int s = 0; s < n_species; ++s) {
    genomes.push_back(random_genome(rng, 4000 + rng.below(8000)));
    abundance.push_back(std::exp(rng.gaussian() * 0.7));
  }

  // 2) Shotgun sequencing: 130 bp reads, abundance-weighted.
  double total_w = 0;
  for (int s = 0; s < n_species; ++s) {
    total_w += abundance[s] * static_cast<double>(genomes[s].size());
  }
  bio::ReadSet reads;
  std::uint64_t total_bases = 0;
  for (const auto& g : genomes) total_bases += g.size();
  const auto n_reads =
      static_cast<std::uint64_t>(coverage * total_bases / 130.0);
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    double x = rng.uniform() * total_w;
    int s = 0;
    while (s + 1 < n_species &&
           x > abundance[s] * static_cast<double>(genomes[s].size())) {
      x -= abundance[s] * static_cast<double>(genomes[s].size());
      ++s;
    }
    const std::uint64_t start = rng.below(genomes[s].size() - 130);
    std::string frag = genomes[s].substr(start, 130);
    // 0.2% sequencing error.
    for (char& c : frag) {
      if (rng.uniform() < 0.002) {
        c = bio::code_to_base((bio::base_to_code(c) + 1 +
                               static_cast<int>(rng.below(3))) %
                              4);
      }
    }
    reads.append(frag, 35);
  }
  std::cout << "community: " << n_species << " species, " << total_bases
            << " genome bases, " << reads.size() << " reads @ ~" << coverage
            << "x\n\n";

  // 3) Assemble on the chosen device model — single-device, or sharded
  //    across a simulated rank fleet (bit-identical contigs either way).
  pipeline::PipelineOptions opts;
  opts.assembly.n_threads = n_threads;
  std::unique_ptr<trace::Tracer> tracer;
  if (tcli.enabled()) {
    tracer = std::make_unique<trace::Tracer>();
    opts.assembly.trace = tracer.get();
  }
  Result<std::optional<resilience::FaultPlan>> env_plan =
      resilience::FaultPlan::from_env();
  if (!env_plan) {
    std::cerr << "metagenome_assembly: bad LASSM_FAULTPLAN: "
              << env_plan.error().to_string() << "\n";
    return 1;
  }
  std::optional<resilience::FaultPlan> fault_plan = std::move(env_plan).take();
  if (fault_plan.has_value()) {
    opts.assembly.fault_plan = &*fault_plan;
    std::cout << "fault plan: " << fault_plan->to_spec() << "\n";
  }
  dist::DistOptions dopts;
  dopts.ranks = ranks;
  dopts.pipeline = opts;
  const dist::DistResult dr =
      dist::run_distributed(reads, device, dopts, &std::cout);
  const pipeline::PipelineResult& result = dr.pipeline;
  if (dr.ranks.size() > 1) {
    std::cout << "\ndistributed over " << dr.ranks.size() << " ranks on "
              << device.name << ": " << dr.traffic.msgs
              << " remote messages in " << dr.traffic.batches
              << " batches (" << dr.traffic.bytes << " bytes), modelled "
              << "network time " << dr.network_s * 1e3 << " ms\n";
  }
  if (fault_plan.has_value()) {
    std::cout << "failures: " << result.failures.summary() << "\n";
  }

  // 4) Summary + FASTA output.
  std::cout << "\nfinal assembly on " << device.name << ":\n";
  std::cout << "  contigs      : " << result.contigs.size() << "\n";
  std::cout << "  total bases  : " << bio::total_contig_bases(result.contigs)
            << " (" << 100.0 * bio::total_contig_bases(result.contigs) /
                           static_cast<double>(total_bases)
            << "% of community)\n";
  std::cout << "  N50          : " << bio::n50(result.contigs) << "\n";
  double kernel_ms = 0;
  for (const auto& it : result.iterations) kernel_ms += it.kernel_time_s * 1e3;
  std::cout << "  modelled GPU kernel time across iterations: " << kernel_ms
            << " ms\n";
  // Host per-stage wall clock goes to stderr: stdout is byte-identical at
  // every thread count (the repo's determinism spot-check), wall clock is
  // not. The same numbers land on the pipeline.stage_seconds.* gauges
  // with --metrics.
  double align_ms = 0;
  for (const auto& it : result.iterations) align_ms += it.align_time_s * 1e3;
  std::cerr << "  host front-end wall clock: "
            << result.frontend.count_s * 1e3 << " ms count, "
            << result.frontend.filter_s * 1e3 << " ms filter, "
            << result.frontend.dbg_s * 1e3 << " ms contigs, " << align_ms
            << " ms align\n";

  std::ofstream fasta("assembly.fasta");
  bio::write_fasta(fasta, result.contigs);
  std::cout << "  contigs written to assembly.fasta\n";

  if (tracer != nullptr) {
    if (!tcli.trace_path.empty() &&
        trace::write_chrome_trace_file(tcli.trace_path, *tracer)) {
      std::cout << "  trace written to " << tcli.trace_path
                << " (open at ui.perfetto.dev)\n";
    }
    if (!tcli.metrics_path.empty() &&
        trace::write_metrics_json_file(tcli.metrics_path,
                                       tracer->metrics().snapshot())) {
      std::cout << "  metrics written to " << tcli.metrics_path << "\n";
    }
  }
  return 0;
}
