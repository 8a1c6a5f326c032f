// The `kernel_grid` workload: the paper's study grid (Fig. 5) — the four
// Table II datasets at scale 0.2 on A100, MI250X and Max 1550, each
// device with its native programming model — through
// core::LocalAssembler::run.

#include <cmath>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "core/reference.hpp"
#include "workload/dataset.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 0.2;
constexpr const char* kDeviceMetric[] = {"a100", "mi250x", "max1550"};

/// The scaled Table II datasets, as model::run_study builds them.
std::vector<core::AssemblyInput> make_grid_datasets(std::uint64_t seed) {
  std::vector<core::AssemblyInput> out;
  for (const std::uint32_t k : workload::kTable2Ks) {
    workload::DatasetParams p = workload::table2_params(k);
    p.num_contigs = std::max<std::uint32_t>(
        50, static_cast<std::uint32_t>(std::llround(p.num_contigs * kScale)));
    p.num_reads = std::max<std::uint32_t>(
        100, static_cast<std::uint32_t>(std::llround(p.num_reads * kScale)));
    out.push_back(workload::generate_dataset(p, seed));
  }
  return out;
}

/// One device's assembler and its engine pool (null at one thread).
struct Cell {
  std::unique_ptr<core::LocalAssembler> assembler;
  std::unique_ptr<core::WarpExecutionEngine> engine;
};

std::vector<Cell> make_cells(unsigned threads) {
  std::vector<Cell> cells;
  core::AssemblyOptions opts;
  opts.n_threads = threads;
  for (const simt::DeviceSpec& dev : simt::DeviceSpec::study_devices()) {
    Cell c;
    c.assembler = std::make_unique<core::LocalAssembler>(dev, opts);
    if (threads > 1) c.engine = c.assembler->make_engine();
    cells.push_back(std::move(c));
  }
  return cells;
}

}  // namespace

void run_kernel_grid(const RunConfig& cfg, Report& rep) {
  // kReplicates independent sets of the four datasets; one grid runs one
  // set on the three devices.
  std::vector<std::vector<core::AssemblyInput>> sets;
  std::vector<Cell> cells;
  std::vector<Cell> cells1;
  for (int i = 0; i < 7; ++i) {
    sets.clear();
    cells.clear();
    cells1.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < kReplicates; ++r) {
      sets.push_back(make_grid_datasets(replicate_seed(cfg.seed, r)));
    }
    const double gen_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    cells = make_cells(kEngineThreads);
    cells1 = make_cells(1);
    rep.sample("core.engine_start_s", seconds_since(t1));
    rep.sample("workload.generate_s", gen_s);
    rep.sample("setup_s", seconds_since(t0));
  }
  std::uint64_t insertions = 0;
  for (const core::AssemblyInput& d : sets.front()) {
    insertions += d.total_insertions();
  }
  rep.detail_num("grid_insertions", static_cast<double>(insertions));

  // Oracle: the serial CPU reference, computed once outside the timed
  // region; every cell of every grid must reproduce it.
  const Clock::time_point tr = Clock::now();
  std::vector<std::vector<std::vector<bio::ContigExtension>>> oracle(
      sets.size());
  for (std::size_t r = 0; r < sets.size(); ++r) {
    for (const core::AssemblyInput& d : sets[r]) {
      oracle[r].push_back(core::reference_extend(d));
    }
  }
  rep.detail_num("oracle_s", seconds_since(tr));

  /// One whole grid on dataset set `r`: 3 devices x 4 datasets. Spans
  /// (traced runs) wrap each LocalAssembler::run.
  const auto grid = [&](std::vector<Cell>& cs, std::size_t r, Spans* spans) {
    std::vector<core::AssemblyResult> results;
    for (Cell& c : cs) {
      for (const core::AssemblyInput& d : sets[r]) {
        if (spans == nullptr) {
          results.push_back(c.assembler->run(d, c.engine.get()));
        } else {
          auto s = spans->scope("core.assemble.k" + std::to_string(d.kmer_len));
          results.push_back(c.assembler->run(d, c.engine.get()));
        }
      }
    }
    return results;
  };

  std::vector<std::uint64_t> ref_fp(sets.size(), 0);
  std::vector<bool> have_ref(sets.size(), false);
  /// Checks one grid on set `r` against the oracle and the set's first
  /// grid's modelled numbers.
  const auto check = [&](const std::vector<core::AssemblyResult>& results,
                         std::size_t r, const std::string& what) {
    std::size_t bad = 0;
    std::uint64_t fp = 14695981039346656037ULL;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::AssemblyResult& res = results[i];
      bad += extension_mismatches(res.extensions,
                                  oracle[r][i % sets[r].size()]);
      fp = mix_fingerprint(fp, double_bits(res.total_time_s));
      fp = mix_fingerprint(fp, res.stats.totals.intops);
      fp = mix_fingerprint(fp, res.stats.traffic.hbm_bytes());
      fp = mix_fingerprint(fp, res.total_extension_bases());
    }
    if (!have_ref[r]) {
      ref_fp[r] = fp;
      have_ref[r] = true;
    }
    if (bad != 0) {
      rep.mismatch(what + ": " + std::to_string(bad) +
                   " contig extensions differ from reference_extend");
    }
    if (fp != ref_fp[r]) rep.mismatch(what + ": modelled numbers differ");
    rep.op(bad == 0 && fp == ref_fp[r]);
    rep.progress();
  };
  const auto timed_grid = [&](std::vector<Cell>& cs, std::size_t r,
                              const char* metric, Spans* spans) {
    return timed(rep, metric, [&] { return grid(cs, r, spans); });
  };

  // The first 4-thread grid of each set gives the deterministic metrics,
  // averaged over the sets; the kernel counts are the first set's.
  double modeled_ms = 0.0;
  double device_ms[3] = {0.0, 0.0, 0.0};
  double extension_bases = 0.0;
  double n50 = 0.0;
  KernelTally tally;
  const Clock::time_point measured = Clock::now();
  for (std::size_t r = 0; r < sets.size(); ++r) {
    const std::vector<core::AssemblyResult> first = timed_grid(
        cells, r, cfg.trace ? "untraced_run_s" : "run_s", nullptr);
    check(first, r, "4-thread grid");
    const std::vector<core::AssemblyInput>& datasets = sets[r];
    for (std::size_t i = 0; i < first.size(); ++i) {
      modeled_ms += first[i].total_time_s * 1e3;
      device_ms[i / datasets.size()] += first[i].total_time_s * 1e3;
      extension_bases += static_cast<double>(first[i].total_extension_bases());
      if (r == 0) tally.add(first[i].stats);
    }
    // N50 of the four datasets' contigs after the (A100) extensions.
    bio::ContigSet extended;
    for (std::size_t i = 0; i < datasets.size(); ++i) {
      for (std::size_t c = 0; c < datasets[i].contigs.size(); ++c) {
        extended.push_back(datasets[i].contigs[c]);
        bio::apply_extension(extended.back(), first[i].extensions[c]);
      }
    }
    n50 += static_cast<double>(bio::n50(extended));
  }
  const auto n = static_cast<double>(sets.size());
  rep.set("modeled_ms", modeled_ms / n);
  rep.set("n50_bp", n50 / n);
  rep.set("extension_bases", extension_bases / n);
  for (int d = 0; d < 3; ++d) {
    rep.set(std::string("simt.modeled_ms.") + kDeviceMetric[d],
            device_ms[d] / n);
  }

  // Grids rotate through the sets, one per repetition of the steps.
  std::size_t turn = 0;
  std::size_t r = 0;
  const auto next = [&] { r = turn++ % sets.size(); };

  if (!cfg.trace) {
    rep.on_emit(derive_batch_metrics);
    repeat_for(cfg.seconds, 3,
               {[&] {
                  next();
                  check(timed_grid(cells1, r, "serial_s", nullptr), r,
                        "1-thread grid");
                },
                [&] {
                  check(timed_grid(cells, r, "run_s", nullptr), r,
                        "4-thread grid");
                }},
               measured);
    return;
  }

  Spans spans;
  const auto traced = [&](std::vector<Cell>& cs, const std::string& suffix) {
    std::uint64_t job = 0;
    std::vector<core::AssemblyResult> results;
    rep.set_outstanding(1);
    {
      auto root = spans.job(&job);
      results = grid(cs, r, &spans);
    }
    rep.set_outstanding(0);
    sample_job_spans(rep, spans, job, suffix);
    check(results, r, "traced grid" + suffix);
  };
  tally.report(rep);
  rep.on_emit([](Report& rp) {
    derive_kernel_rates(rp);
    derive_trace_overhead(rp);
  });
  repeat_for(cfg.seconds, 3,
             {[&] {
                next();
                traced(cells, "");
              },
              [&] { traced(cells1, "_1t"); },
              [&] {
                check(timed_grid(cells, r, "untraced_run_s", nullptr), r,
                      "4-thread grid");
              }},
             measured);
  write_trace(cfg, spans);
}

}  // namespace perfbench
