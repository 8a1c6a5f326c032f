#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/input.hpp"
#include "core/kernel.hpp"
#include "core/options.hpp"
#include "resilience/report.hpp"
#include "simt/perf_model.hpp"
#include "trace/attribution.hpp"
#include "trace/metrics.hpp"

namespace lassm::core {

class WarpExecutionEngine;

/// Stats and modelled time of one simulated kernel launch (one batch, one
/// extension direction).
struct LaunchBreakdown {
  Side side = Side::kRight;
  std::uint32_t batch = 0;
  simt::LaunchStats stats;
  simt::TimeBreakdown time;
};

/// Result of one local-assembly run on one device model.
struct AssemblyResult {
  /// Per input contig (same order), the bases to prepend/append.
  std::vector<bio::ContigExtension> extensions;
  /// Counters merged across all launches.
  simt::LaunchStats stats;
  /// Modelled kernel time over the merged (asynchronously overlapped)
  /// launch stream — Fig. 5's quantity.
  double total_time_s = 0.0;
  /// Breakdown of total_time_s (issue / memory / wave bound).
  simt::TimeBreakdown time;
  std::vector<LaunchBreakdown> launches;

  /// Failure accounting: every task fault the isolated launches absorbed,
  /// injected or organic. clean() when the plan injected nothing, nothing
  /// failed organically and the pool started in full.
  resilience::FailureReport failures;
  /// True when the simulated device was lost mid-run (FaultPlan device-loss
  /// event matched this run's fault_rank): the run returns early with every
  /// completed batch's extensions intact and the rest listed below.
  bool device_lost = false;
  /// (side, batch) launches completed before the loss (both sides counted).
  std::uint32_t completed_batches = 0;
  /// Indices into the input's contig list whose extensions are NOT final
  /// because the device died before all their launches ran. Empty unless
  /// device_lost.
  std::vector<std::uint32_t> unfinished_contigs;

  std::uint64_t total_extension_bases() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : extensions) n += e.left.size() + e.right.size();
    return n;
  }

  /// Achieved warp-level INTOP throughput (Fig. 6/7/8 y-quantity; see
  /// LaunchStats::intop_count for the counting convention).
  double gintops() const noexcept {
    return total_time_s <= 0.0
               ? 0.0
               : static_cast<double>(stats.intop_count()) / total_time_s / 1e9;
  }

  /// Achieved INTOP intensity: INTOPs per HBM byte (Fig. 6 x-quantity).
  double intop_intensity() const noexcept { return stats.intop_intensity(); }

  /// Total HBM gigabytes moved (Fig. 7b/8b quantity).
  double hbm_gbytes() const noexcept {
    return static_cast<double>(stats.traffic.hbm_bytes()) / 1e9;
  }
};

/// The public entry point of the library: simulates MetaHipMer's local
/// assembly GPU workflow (Fig. 3) on a modelled device.
///
///   LocalAssembler assembler(simt::DeviceSpec::a100(),
///                            simt::ProgrammingModel::kCuda);
///   AssemblyResult r = assembler.run(input);
///   LocalAssembler::apply(input, r);   // extends input.contigs in place
class LocalAssembler {
 public:
  LocalAssembler(simt::DeviceSpec dev, simt::ProgrammingModel pm,
                 AssemblyOptions opts = {});

  /// Convenience: run with the device's native programming model.
  explicit LocalAssembler(simt::DeviceSpec dev, AssemblyOptions opts = {});

  const simt::DeviceSpec& device() const noexcept { return dev_; }
  simt::ProgrammingModel model() const noexcept { return pm_; }
  const AssemblyOptions& options() const noexcept { return opts_; }

  /// Runs binning, batching and both extension kernels over the input.
  /// The input is not modified; use apply() to commit the extensions.
  /// Throws std::invalid_argument on a malformed input (mapping vectors
  /// not sized to the contigs, a read id out of range, zero kmer_len).
  ///
  /// Every launch is one isolated batch on an execution engine (see
  /// src/core/exec.hpp), parallel across the batch's independent warps
  /// with AssemblyOptions::n_threads workers; extensions, counters, traffic
  /// and the modelled time are bit-identical for every thread count. A
  /// task that throws is retried, then quarantined into
  /// AssemblyResult::failures, instead of failing the run.
  ///
  /// `engine` (optional) supplies an external thread pool to run on — one
  /// created by make_engine(), so its device/model/options match — letting
  /// a driver like the pipeline share a single pool across many runs and
  /// its own host stages instead of respawning threads per k-round.
  /// Without it, run() makes a run-local engine; at one thread that engine
  /// spawns nothing and runs every task inline. Results are bit-identical
  /// with or without it.
  AssemblyResult run(const AssemblyInput& in,
                     WarpExecutionEngine* engine = nullptr) const;

  /// Creates a thread pool compatible with run()'s `engine` parameter:
  /// same device, programming model and options as this assembler,
  /// n_threads resolved from AssemblyOptions::n_threads.
  std::unique_ptr<WarpExecutionEngine> make_engine() const;

  /// Applies extensions to in.contigs (index-aligned with run()'s input).
  static void apply(AssemblyInput& in, const AssemblyResult& result);

 private:
  simt::DeviceSpec dev_;
  simt::ProgrammingModel pm_;
  AssemblyOptions opts_;
};

/// Records a finished run's aggregate counters under the canonical metric
/// names (trace::names): kernel totals, memory traffic plus derived
/// per-level hit-rate gauges, launch counts and the warp-cycle
/// distribution. Called by LocalAssembler::run on the tracer's registry
/// when tracing, and by the vendor-profiler emulation to derive its
/// reports from the same registry nomenclature.
void record_run_metrics(const AssemblyResult& result,
                        trace::MetricsRegistry& registry);

/// Converts merged launch stats (plus their modelled seconds) into the
/// trace-layer counter vector used for per-span attribution. This is the
/// single bridge between simt/memsim counters and trace::CounterVector —
/// trace/ stays a leaf library with no simulator dependency.
trace::CounterVector counter_vector(const simt::LaunchStats& stats,
                                    double sim_time_s);

}  // namespace lassm::core
