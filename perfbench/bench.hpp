#pragma once

// Shared machinery of the repository benchmark: the run context, the
// result report (samples -> medians -> the final JSON line), outside-in
// layer spans, the watchdog that turns a hang into counted failures, and
// the output oracles.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bio/contig.hpp"
#include "simt/counters.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace lassm;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (trace runs); "" = none
};

/// Engine threads of every timed job (the host has 4 cores); the
/// in-binary references run at 1.
constexpr unsigned kEngineThreads = 4;

/// Independent input sets a batch workload draws from one seed. Jobs
/// rotate through them, and the deterministic metrics (modelled time, N50,
/// extension bases) are their mean: a single community's N50 and modelled
/// time varied 13% and 16% (interquartile range over median, 40 seeds)
/// between seeds, which no run length reduces; the mean of six varies
/// about 5% and 7%.
constexpr std::size_t kReplicates = 6;

/// The seed of replicate `r` of the workload seeded with `seed`.
std::uint64_t replicate_seed(std::uint64_t seed, std::size_t r);

// ---------------------------------------------------------------- metrics

/// One metric the benchmark can report: its name and unit exactly as
/// BENCHMARK.json lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (reported with --trace 0) and the per-layer
/// metrics (reported with --trace 1), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

double median(std::vector<double> v);
/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q);

/// Everything one run reports. Thread-safe: the workload thread adds
/// samples while the watchdog may, on expiry, emit the partial report.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Adds one measurement of `name`; the reported value is the median.
  void sample(const std::string& name, double v);
  /// Fixes the reported value of `name` (deterministic counts, derived
  /// values); overrides samples.
  void set(const std::string& name, double v);
  /// Median of the samples of `name` so far (0 when there are none).
  double median_of(const std::string& name) const;
  /// The value `name` would be reported with: fixed, else median, else 0.
  double value_of(const std::string& name) const;
  double quantile_of(const std::string& name, double q) const;
  std::size_t count_of(const std::string& name) const;

  /// One attempted operation (a timed job, a service request) and its
  /// outcome: `ok` false counts it as failed.
  void op(bool ok);
  /// An output check that failed: the run is no longer correct.
  void mismatch(const std::string& what);
  /// A failed operation without an output to check (typed error, shed,
  /// hang).
  void failure(const std::string& what);
  /// Called when an operation finishes, for the watchdog's stall clock.
  void progress() { progress_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t progress_count() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Free-form details printed on the line before the result, next to
  /// [count, min, median, max] of every sampled quantity.
  void detail(const std::string& key, const std::string& json_value);
  void detail_num(const std::string& key, double v);

  /// Operations started but not finished if the run is cut now.
  void set_outstanding(std::uint64_t n);

  /// Derived metrics are computed from the samples when the report is
  /// emitted (also on the watchdog's partial path).
  void on_emit(std::function<void(Report&)> derive);

  /// Prints the details line and the final result line. Emits at most
  /// once; returns false if already emitted. A non-empty `cut_reason`
  /// marks a run cut short (watchdog, crash): the outstanding operations
  /// are counted as failed.
  bool emit(const std::string& cut_reason = "");

 private:
  mutable std::recursive_mutex mu_;
  bool trace_;
  bool emitted_ = false;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> fixed_;
  std::map<std::string, std::string> details_;
  std::vector<std::string> problems_;
  std::function<void(Report&)> derive_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t outstanding_ = 0;
  bool correct_ = true;
  std::atomic<std::uint64_t> progress_{0};
};

// ---------------------------------------------------------------- watchdog

/// Bounds a run: when no operation finishes for `stall_s`, or the run
/// passes `limit_s`, the partial report is emitted with the outstanding
/// operations counted as failed and the process exits (status 0, since
/// the report is complete) without waiting for the stuck threads.
class Watchdog {
 public:
  Watchdog(Report& report, double stall_s, double limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop();
  Report& report_;
  double stall_s_;
  double limit_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------- spans

/// Outside-in layer spans: the benchmark opens a span around each call
/// into a module's public functions. Spans carry an id, a parent and a
/// job id, are kept in memory, and mirror onto a trace::Tracer for the
/// Chrome exporter. A span's layer is its name up to the first '.'; the
/// root span of each job is named "job" and belongs to no layer.
class Spans {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = none
    std::uint64_t job = 0;
    std::uint64_t request = 0;  ///< service request index + 1; 0 = none
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    double dur_s() const { return (t1_us - t0_us) * 1e-6; }
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  Spans();
  /// Opens the root span of a new job; returns its job id.
  Scope job(std::uint64_t* job_id);
  /// Opens a child of the innermost open span; `request` tags the span
  /// with one service request (index + 1) when a job serves many.
  Scope scope(std::string name, std::uint64_t request = 0) {
    return Scope(this, std::move(name), request);
  }

  /// Inclusive seconds per span name within one job.
  std::map<std::string, double> totals(std::uint64_t job) const;
  /// Wall seconds of the job's root span, and the part of it not covered
  /// by any layer's self time.
  double job_wall_s(std::uint64_t job) const;
  double job_unattributed_s(std::uint64_t job) const;

  trace::Tracer& tracer() { return tracer_; }

 private:
  friend class Scope;
  std::size_t open(std::string name, std::uint64_t request);
  void close(std::size_t index);

  trace::Tracer tracer_;
  std::uint32_t track_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t next_job_ = 1;
  std::uint64_t current_job_ = 0;
};

/// Turns one traced job's spans into per-layer samples: span "a.b" adds
/// to "a.b_s<suffix>", and "core.assemble.kNN" adds to both
/// "core.assemble_s.kNN<suffix>" and "core.assemble_s<suffix>". Also
/// samples "traced_wall_s<suffix>" and, for 4-thread jobs (no suffix),
/// trace.unattributed_frac.
void sample_job_spans(Report& rep, const Spans& spans, std::uint64_t job,
                      const std::string& suffix);

/// Writes the spans as a Chrome trace when the run asked for one.
void write_trace(const RunConfig& cfg, Spans& spans);

/// Modelled-kernel counters summed over the runs of one job, reported as
/// the simt and memsim layers' metrics.
struct KernelTally {
  simt::WarpCounters warp;
  memsim::TrafficStats traffic;
  std::uint64_t warps = 0;
  void add(const simt::LaunchStats& s);
  /// Sets simt.*, memsim.* and core.warp_tasks (deterministic counts).
  void report(Report& rep) const;
};

/// core.warp_tasks_per_s and memsim.lines_per_s: the job's counts over
/// the median core.assemble_s.
void derive_kernel_rates(Report& r);

// ---------------------------------------------------------------- oracles

/// FNV-1a over contig ids, bases and depth bits: any base flip changes it.
std::uint64_t contigs_fingerprint(const bio::ContigSet& contigs);
std::uint64_t mix_fingerprint(std::uint64_t h, std::uint64_t v);
std::uint64_t double_bits(double v);

/// Number of contigs whose extension differs from the oracle's (a length
/// difference counts every missing or extra contig).
std::size_t extension_mismatches(
    const std::vector<bio::ContigExtension>& got,
    const std::vector<bio::ContigExtension>& want);

/// Shows the oracles catch a single flipped base: flips one base of one
/// reference extension and one contig and checks both are detected.
/// Returns an empty string on success, else what went undetected.
std::string oracle_self_test();

// ---------------------------------------------------------------- run

/// Runs `step` repeatedly, in order, until `seconds` have passed since
/// `start` and each step ran at least `min_reps` times.
void repeat_for(double seconds, std::size_t min_reps,
                const std::vector<std::function<void()>>& steps,
                Clock::time_point start = Clock::now());

double peak_rss_mb();

/// Turns a fatal signal (SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT) into
/// the partial report with the outstanding operations counted as failed,
/// like a watchdog expiry. Best effort: the handler formats the report on
/// the faulting thread.
void emit_report_on_crash(Report& report);

/// Times one operation and adds its wall seconds to `metric`; the
/// operation counts as outstanding while it runs.
template <class F>
auto timed(Report& rep, const std::string& metric, F&& f) {
  rep.set_outstanding(1);
  const Clock::time_point t0 = Clock::now();
  auto out = f();
  rep.sample(metric, seconds_since(t0));
  rep.set_outstanding(0);
  return out;
}

/// Derives the end-to-end metrics of a batch workload, whose job is one
/// whole run: throughput 1/run_s and p50 the median job time.
void derive_batch_metrics(Report& r);
/// trace.overhead_frac: traced job wall time over the untraced run_s.
void derive_trace_overhead(Report& r);

/// The four workloads. Each fills the report; none prints the result.
void run_metagenome(const RunConfig& cfg, Report& rep);
void run_kernel_grid(const RunConfig& cfg, Report& rep);
void run_distributed(const RunConfig& cfg, Report& rep);
void run_service(const RunConfig& cfg, Report& rep);

}  // namespace perfbench
