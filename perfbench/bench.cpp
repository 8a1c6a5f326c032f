#include "bench.hpp"

#include <sys/resource.h>

#include <csignal>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/reference.hpp"
#include "trace/export.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"serial_s", "s"},
      {"throughput_jobs_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"modeled_ms", "sim_ms"},
      {"n50_bp", "bp"},
      {"extension_bases", "bp"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"workload.generate_s", "s"},
      {"core.engine_start_s", "s"},
      {"bio.fastq_parse_s", "s"},
      {"bio.fastq_mb_per_s", "MB/s"},
      {"pipeline.count_s", "s"},
      {"pipeline.count_s_1t", "s"},
      {"pipeline.count_mwindows_per_s", "Mwindow/s"},
      {"pipeline.filter_s", "s"},
      {"pipeline.kmers_kept_frac", "frac"},
      {"pipeline.dbg_s", "s"},
      {"pipeline.dbg_s_1t", "s"},
      {"pipeline.dbg_contigs", "count"},
      {"pipeline.align_s", "s"},
      {"pipeline.align_s_1t", "s"},
      {"pipeline.mapped_frac", "frac"},
      {"core.assemble_s", "s"},
      {"core.assemble_s_1t", "s"},
      {"core.assemble_s.k21", "s"},
      {"core.assemble_s.k33", "s"},
      {"core.assemble_s.k55", "s"},
      {"core.assemble_s.k77", "s"},
      {"core.warp_tasks", "count"},
      {"core.warp_tasks_per_s", "1/s"},
      {"simt.modeled_ms.a100", "sim_ms"},
      {"simt.modeled_ms.mi250x", "sim_ms"},
      {"simt.modeled_ms.max1550", "sim_ms"},
      {"simt.intops", "count"},
      {"simt.intop_intensity", "intop/B"},
      {"simt.probes_per_insertion", "ratio"},
      {"simt.mer_retries", "count"},
      {"memsim.hbm_bytes", "B"},
      {"memsim.l1_hit_rate", "frac"},
      {"memsim.l2_hit_rate", "frac"},
      {"memsim.lines_per_s", "1/s"},
      {"dist.count_s", "s"},
      {"dist.dbg_s", "s"},
      {"dist.rounds_s", "s"},
      {"dist.msgs", "count"},
      {"dist.bytes", "B"},
      {"dist.batches", "count"},
      {"dist.msgs_per_kmer", "ratio"},
      {"dist.network_ms", "sim_ms"},
      {"serve.latency_ms_p99", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.cache_hit_rate", "frac"},
      {"serve.coalesced_frac", "frac"},
      {"serve.engine_runs", "count"},
      {"serve.retries", "count"},
      {"serve.shed", "count"},
      {"serve.queue_depth_peak", "count"},
      {"trace.unattributed_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

namespace {

/// Shortest round-trip decimal form; non-finite values are not JSON.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

// ---------------------------------------------------------------- Report

void Report::sample(const std::string& name, double v) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  samples_[name].push_back(v);
}

void Report::set(const std::string& name, double v) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  fixed_[name] = v;
}

double Report::median_of(const std::string& name) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : median(it->second);
}

double Report::value_of(const std::string& name) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (const auto f = fixed_.find(name); f != fixed_.end()) return f->second;
  return median_of(name);
}

double Report::quantile_of(const std::string& name, double q) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : quantile(it->second, q);
}

std::size_t Report::count_of(const std::string& name) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0 : it->second.size();
}

void Report::op(bool ok) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::mismatch(const std::string& what) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  correct_ = false;
  problems_.push_back("mismatch: " + what);
}

void Report::failure(const std::string& what) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  problems_.push_back("failed: " + what);
}

void Report::detail(const std::string& key, const std::string& json_value) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  details_[key] = json_value;
}

void Report::detail_num(const std::string& key, double v) {
  detail(key, json_num(v));
}

void Report::set_outstanding(std::uint64_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  outstanding_ = n;
}

void Report::on_emit(std::function<void(Report&)> derive) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  derive_ = std::move(derive);
}

bool Report::emit(const std::string& cut_reason) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (emitted_) return false;
  emitted_ = true;
  if (derive_) derive_(*this);
  const bool cut = !cut_reason.empty();
  if (cut) {
    problems_.push_back(cut_reason + " with " + std::to_string(outstanding_) +
                        " operations outstanding");
    attempted_ += outstanding_;
    failed_ += outstanding_;
  }
  if (attempted_ == 0) {
    problems_.push_back("no operation completed");
    attempted_ = 1;
    failed_ = 1;
    correct_ = false;
  }

  std::string details = "{\"details\": {";
  bool first = true;
  for (const auto& [key, value] : details_) {
    details += (first ? "" : ", ") + json_str(key) + ": " + value;
    first = false;
  }
  details += std::string(first ? "" : ", ") + "\"samples\": {";
  first = true;
  for (const auto& [name, values] : samples_) {
    details += (first ? "" : ", ") + json_str(name) + ": [" +
               std::to_string(values.size()) + ", " +
               json_num(quantile(values, 0.0)) + ", " +
               json_num(quantile(values, 0.5)) + ", " +
               json_num(quantile(values, 1.0)) + "]";
    first = false;
  }
  details += "}, \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    details += (i == 0 ? "" : ", ") + json_str(problems_[i]);
  }
  details += "], \"cut\": " + std::string(cut ? "true" : "false") + "}}";

  std::string result = "{\"correct\": " +
                       std::string(correct_ ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
  const auto& defs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const std::string name = defs[i].name;
    double v = 0.0;
    if (const auto f = fixed_.find(name); f != fixed_.end()) {
      v = f->second;
    } else if (const auto s = samples_.find(name); s != samples_.end()) {
      v = median(s->second);
    }
    result += (i == 0 ? "" : ", ") + json_str(name) + ": {\"value\": " +
              json_num(v) + ", \"unit\": " + json_str(defs[i].unit) + "}";
  }
  result += "}}";

  std::fputs((details + "\n" + result + "\n").c_str(), stdout);
  std::fflush(stdout);
  return true;
}

// ---------------------------------------------------------------- Watchdog

Watchdog::Watchdog(Report& report, double stall_s, double limit_s)
    : report_(report), stall_s_(stall_s), limit_s_(limit_s) {
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::loop() {
  const Clock::time_point start = Clock::now();
  Clock::time_point last_change = start;
  std::uint64_t last_seen = report_.progress_count();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(200));
    if (stop_) return;
    const std::uint64_t seen = report_.progress_count();
    if (seen != last_seen) {
      last_seen = seen;
      last_change = Clock::now();
    }
    if (seconds_since(last_change) > stall_s_ ||
        seconds_since(start) > limit_s_) {
      // The stuck threads cannot be joined; the report is all that is
      // left to deliver.
      if (report_.emit("watchdog expired")) std::_Exit(0);
      return;
    }
  }
}

// ---------------------------------------------------------------- Spans

Spans::Spans() { track_ = tracer_.track("perfbench", "driver"); }

Spans::Scope::Scope(Spans* spans, std::string name, std::uint64_t request)
    : spans_(spans) {
  index_ = spans_->open(std::move(name), request);
}

Spans::Scope::~Scope() { spans_->close(index_); }

Spans::Scope Spans::job(std::uint64_t* job_id) {
  current_job_ = next_job_++;
  *job_id = current_job_;
  return Scope(this, "job", 0);
}

std::size_t Spans::open(std::string name, std::uint64_t request) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  s.job = current_job_;
  s.request = request;
  s.name = std::move(name);
  s.t0_us = tracer_.host_now_us();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t index) {
  Span& s = spans_[index];
  s.t1_us = tracer_.host_now_us();
  stack_.pop_back();
  trace::Event e;
  e.track = track_;
  e.name = s.name;
  e.cat = "host";
  e.ts_us = s.t0_us;
  e.dur_us = s.t1_us - s.t0_us;
  e.args = {trace::Arg::n("span", static_cast<double>(s.id)),
            trace::Arg::n("parent", static_cast<double>(s.parent)),
            trace::Arg::n("job", static_cast<double>(s.job))};
  if (s.request != 0) {
    e.args.push_back(trace::Arg::n("request", static_cast<double>(s.request)));
  }
  tracer_.record(std::move(e));
}

std::map<std::string, double> Spans::totals(std::uint64_t job) const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.job == job && s.name != "job") out[s.name] += s.dur_s();
  }
  return out;
}

double Spans::job_wall_s(std::uint64_t job) const {
  for (const Span& s : spans_) {
    if (s.job == job && s.name == "job") return s.dur_s();
  }
  return 0.0;
}

double Spans::job_unattributed_s(std::uint64_t job) const {
  // Spans nest on one thread, so the layers' self times add up to the
  // summed durations of the root's children; the root's own self time is
  // what no layer accounts for.
  std::uint64_t root = 0;
  double wall = 0.0;
  for (const Span& s : spans_) {
    if (s.job == job && s.name == "job") {
      root = s.id;
      wall = s.dur_s();
    }
  }
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.job == job && s.parent == root) covered += s.dur_s();
  }
  return wall - covered;
}

void sample_job_spans(Report& rep, const Spans& spans, std::uint64_t job,
                      const std::string& suffix) {
  double assemble_s = 0.0;
  bool assembled = false;
  for (const auto& [name, seconds] : spans.totals(job)) {
    static const std::string kAssemble = "core.assemble";
    if (name.rfind(kAssemble, 0) == 0) {
      assemble_s += seconds;
      assembled = true;
      if (name.size() > kAssemble.size()) {
        rep.sample("core.assemble_s" + name.substr(kAssemble.size()) + suffix,
                   seconds);
      }
    } else {
      rep.sample(name + "_s" + suffix, seconds);
    }
  }
  if (assembled) rep.sample("core.assemble_s" + suffix, assemble_s);
  const double wall = spans.job_wall_s(job);
  rep.sample("traced_wall_s" + suffix, wall);
  if (suffix.empty() && wall > 0.0) {
    rep.sample("trace.unattributed_frac", spans.job_unattributed_s(job) / wall);
  }
}

void write_trace(const RunConfig& cfg, Spans& spans) {
  if (cfg.trace_out.empty()) return;
  if (Status s = trace::write_chrome_trace_file(cfg.trace_out, spans.tracer());
      !s) {
    std::fprintf(stderr, "perfbench: %s\n", s.to_string().c_str());
  }
}

void KernelTally::add(const simt::LaunchStats& s) {
  warp.merge(s.totals);
  traffic.add(s.traffic);
  warps += s.num_warps;
}

void KernelTally::report(Report& rep) const {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto lines = static_cast<double>(traffic.lines_touched);
  const auto l1_hits = static_cast<double>(traffic.l1_hits);
  rep.set("core.warp_tasks", static_cast<double>(warps));
  rep.set("simt.intops", static_cast<double>(warp.intops));
  rep.set("simt.intop_intensity",
          ratio(static_cast<double>(warp.instructions),
                static_cast<double>(traffic.hbm_bytes())));
  rep.set("simt.probes_per_insertion",
          ratio(static_cast<double>(warp.probes),
                static_cast<double>(warp.insertions)));
  rep.set("simt.mer_retries", static_cast<double>(warp.mer_retries));
  rep.set("memsim.hbm_bytes", static_cast<double>(traffic.hbm_bytes()));
  rep.set("memsim.l1_hit_rate", ratio(l1_hits, lines));
  rep.set("memsim.l2_hit_rate",
          ratio(static_cast<double>(traffic.l2_hits), lines - l1_hits));
  rep.set("memsim.lines_touched", lines);
}

void derive_kernel_rates(Report& r) {
  const double assemble_s = r.median_of("core.assemble_s");
  if (assemble_s <= 0.0) return;
  r.set("core.warp_tasks_per_s", r.value_of("core.warp_tasks") / assemble_s);
  r.set("memsim.lines_per_s", r.value_of("memsim.lines_touched") / assemble_s);
}

// ---------------------------------------------------------------- oracles

std::uint64_t replicate_seed(std::uint64_t seed, std::size_t r) {
  return mix_fingerprint(mix_fingerprint(14695981039346656037ULL, seed), r);
}

std::uint64_t mix_fingerprint(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t contigs_fingerprint(const bio::ContigSet& contigs) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const bio::Contig& c : contigs) {
    h = mix_fingerprint(h, c.id);
    h = mix_fingerprint(h, double_bits(c.depth));
    for (const char b : c.seq) {
      h ^= static_cast<unsigned char>(b);
      h *= 1099511628211ULL;
    }
    h = mix_fingerprint(h, c.seq.size());
  }
  return h;
}

std::size_t extension_mismatches(
    const std::vector<bio::ContigExtension>& got,
    const std::vector<bio::ContigExtension>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::size_t bad = std::max(got.size(), want.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i].contig_id != want[i].contig_id ||
        got[i].left != want[i].left || got[i].right != want[i].right) {
      ++bad;
    }
  }
  return bad;
}

std::string oracle_self_test() {
  workload::DatasetParams p;
  p.num_contigs = 24;
  p.num_reads = 200;
  p.read_len = 100;
  const core::AssemblyInput in = workload::generate_dataset(p, 7);
  const std::vector<bio::ContigExtension> want = core::reference_extend(in);
  if (extension_mismatches(want, want) != 0) {
    return "identical extensions reported as different";
  }
  std::vector<bio::ContigExtension> got = want;
  bool flipped = false;
  for (bio::ContigExtension& e : got) {
    std::string& side = e.right.empty() ? e.left : e.right;
    if (side.empty()) continue;
    side[side.size() / 2] = side[side.size() / 2] == 'A' ? 'C' : 'A';
    flipped = true;
    break;
  }
  if (!flipped) return "no non-empty extension to flip";
  if (extension_mismatches(got, want) != 1) {
    return "a flipped extension base went undetected";
  }
  bio::ContigSet contigs = in.contigs;
  const std::uint64_t before = contigs_fingerprint(contigs);
  contigs[0].seq[0] = contigs[0].seq[0] == 'A' ? 'C' : 'A';
  if (contigs_fingerprint(contigs) == before) {
    return "a flipped contig base went undetected";
  }
  return "";
}

// ---------------------------------------------------------------- run

void repeat_for(double seconds, std::size_t min_reps,
                const std::vector<std::function<void()>>& steps,
                Clock::time_point start) {
  for (std::size_t reps = 1;; ++reps) {
    for (const auto& step : steps) step();
    if (reps >= min_reps && seconds_since(start) >= seconds) return;
  }
}

void derive_batch_metrics(Report& r) {
  if (r.count_of("run_s") == 0) return;
  const double run = r.median_of("run_s");
  r.set("throughput_jobs_per_s", run > 0.0 ? 1.0 / run : 0.0);
  r.set("p50_ms", run * 1e3);
  r.set("peak_rss_mb", peak_rss_mb());
}

void derive_trace_overhead(Report& r) {
  const double untraced = r.median_of("untraced_run_s");
  if (untraced > 0.0 && r.count_of("traced_wall_s") > 0) {
    r.set("trace.overhead_frac", r.median_of("traced_wall_s") / untraced - 1.0);
  }
}

namespace {
Report* crash_report = nullptr;

extern "C" void on_fatal_signal(int sig) {
  if (crash_report != nullptr &&
      crash_report->emit("crashed with signal " + std::to_string(sig))) {
    std::_Exit(0);
  }
  std::_Exit(128 + sig);
}
}  // namespace

void emit_report_on_crash(Report& report) {
  crash_report = &report;
  struct sigaction sa {};
  sa.sa_handler = on_fatal_signal;
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
