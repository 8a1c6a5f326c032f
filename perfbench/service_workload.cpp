// The `service` workload: a closed loop against serve::AssemblyService.
// One generator thread keeps four jobs in flight over 2000 small jobs per
// loop; a third of the jobs repeat the dataset of the job 224 places
// earlier, so hits and misses are fixed by the schedule, not by timing.

#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "bench.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 2000;
constexpr std::size_t kInFlight = 4;
/// A repeat looks up a dataset first submitted this many jobs earlier. The
/// ResultCache keeps the 256 most recently used entries, and every job in
/// between touches a different dataset, so a gap under 256 always hits.
constexpr std::size_t kRepeatGap = 224;

/// Dataset index of every job: jobs 2, 5, 8, ... (from kRepeatGap on)
/// repeat the job kRepeatGap earlier; all others are fresh datasets.
std::vector<std::uint32_t> make_schedule(std::uint32_t* distinct) {
  std::vector<std::uint32_t> schedule(kJobs);
  std::uint32_t fresh = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    schedule[j] = (j % 3 == 2 && j >= kRepeatGap) ? schedule[j - kRepeatGap]
                                                  : fresh++;
  }
  *distinct = fresh;
  return schedule;
}

struct Oracle {
  std::vector<std::vector<bio::ContigExtension>> extensions;
  std::vector<double> modeled_ms;
  std::vector<std::uint64_t> extension_bases;
};

}  // namespace

void run_service(const RunConfig& cfg, Report& rep) {
  std::uint32_t distinct = 0;
  const std::vector<std::uint32_t> schedule = make_schedule(&distinct);

  serve::ServiceConfig scfg;
  scfg.assembly.n_threads = kEngineThreads;
  serve::LoadGenConfig lg;
  lg.distinct_datasets = distinct;
  lg.seed = mix_fingerprint(14695981039346656037ULL, cfg.seed);

  std::vector<core::AssemblyInput> pool;
  std::unique_ptr<serve::AssemblyService> service;
  for (int i = 0; i < 7; ++i) {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    pool = serve::make_job_pool(lg);
    const double gen_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    service = std::make_unique<serve::AssemblyService>(scfg);
    rep.sample("core.engine_start_s", seconds_since(t1));
    rep.sample("workload.generate_s", gen_s);
    rep.sample("setup_s", seconds_since(t0));
  }
  rep.detail_num("distinct_datasets", distinct);
  rep.detail_num("jobs_per_loop", kJobs);

  // Oracle and serial baseline: every distinct dataset through a direct
  // single-thread LocalAssembler::run (no service, no cache), the result
  // the service must return. serial_s is the median seconds of one such
  // job; the spans around each call give core.assemble_s.
  core::AssemblyOptions oracle_opts;
  oracle_opts.n_threads = 1;
  const core::LocalAssembler direct(scfg.device, scfg.pm, oracle_opts);
  Oracle oracle;
  Spans spans;
  std::uint64_t oracle_job = 0;
  {
    auto root = spans.job(&oracle_job);
    for (const core::AssemblyInput& in : pool) {
      auto s = spans.scope("core.assemble");
      core::AssemblyResult r =
          timed(rep, "serial_s", [&] { return direct.run(in); });
      oracle.modeled_ms.push_back(r.total_time_s * 1e3);
      oracle.extension_bases.push_back(r.total_extension_bases());
      oracle.extensions.push_back(std::move(r.extensions));
      rep.progress();
    }
  }
  rep.op(true);
  if (cfg.trace) {
    rep.set("core.assemble_s", spans.totals(oracle_job)["core.assemble"]);
  }

  double modeled_ms = 0.0;
  std::uint64_t extension_bases = 0;
  for (const std::uint32_t d : schedule) {
    modeled_ms += oracle.modeled_ms[d];
    extension_bases += oracle.extension_bases[d];
  }
  bio::ContigSet extended;
  for (std::size_t d = 0; d < pool.size(); ++d) {
    for (std::size_t c = 0; c < pool[d].contigs.size(); ++c) {
      extended.push_back(pool[d].contigs[c]);
      bio::apply_extension(extended.back(), oracle.extensions[d][c]);
    }
  }
  rep.set("modeled_ms", modeled_ms);
  rep.set("n50_bp", static_cast<double>(bio::n50(extended)));
  rep.set("extension_bases", static_cast<double>(extension_bases));

  /// One closed loop of kJobs on a fresh service (the set-up one first).
  const auto loop = [&](Spans* spans) {
    if (!service) service = std::make_unique<serve::AssemblyService>(scfg);
    std::deque<std::pair<std::size_t, serve::TicketPtr>> inflight;
    std::vector<double> total_ms, queue_ms, exec_ms;
    std::uint64_t completed = 0, coalesced = 0;
    const auto finish = [&] {
      auto [j, ticket] = std::move(inflight.front());
      inflight.pop_front();
      serve::JobOutcome out;
      if (spans == nullptr) {
        out = ticket->wait();
      } else {
        auto s = spans->scope("serve.wait", j + 1);
        out = ticket->wait();
      }
      rep.set_outstanding(inflight.size());
      total_ms.push_back(out.stats.total_ms);
      queue_ms.push_back(out.stats.queue_ms);
      exec_ms.push_back(out.stats.total_ms - out.stats.queue_ms);
      bool ok = out.state == serve::JobState::kCompleted;
      if (!ok) {
        rep.failure(std::string("job ") + serve::job_state_name(out.state) +
                    ": " + out.status.to_string());
      } else {
        ++completed;
        if (out.stats.coalesced) ++coalesced;
        if (extension_mismatches(out.extensions,
                                 oracle.extensions[schedule[j]]) != 0) {
          rep.mismatch("job " + std::to_string(j) +
                       " differs from the direct LocalAssembler::run");
          ok = false;
        }
      }
      rep.op(ok);
      rep.progress();
    };

    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = 0; j < kJobs; ++j) {
      if (inflight.size() == kInFlight) finish();
      serve::TicketPtr t;
      if (spans == nullptr) {
        t = service->submit("bench", pool[schedule[j]]);
      } else {
        auto s = spans->scope("serve.submit", j + 1);
        t = service->submit("bench", pool[schedule[j]]);
      }
      inflight.emplace_back(j, std::move(t));
      rep.set_outstanding(inflight.size());
    }
    while (!inflight.empty()) finish();
    const double wall = seconds_since(t0);

    const serve::ServiceCounters c = service->counters();
    service.reset();
    rep.sample("run_s", wall);
    rep.sample("throughput_jobs_per_s", static_cast<double>(kJobs) / wall);
    rep.sample("p50_ms", quantile(total_ms, 0.50));
    rep.sample("serve.latency_ms_p99", quantile(total_ms, 0.99));
    rep.sample("serve.queue_ms_p50", quantile(queue_ms, 0.50));
    rep.sample("serve.queue_ms_p99", quantile(queue_ms, 0.99));
    rep.sample("serve.exec_ms_p50", quantile(exec_ms, 0.50));
    rep.sample("serve.cache_hit_rate",
               static_cast<double>(c.cache_hits) / static_cast<double>(kJobs));
    rep.sample("serve.coalesced_frac",
               completed > 0 ? static_cast<double>(coalesced) /
                                   static_cast<double>(completed)
                             : 0.0);
    rep.sample("serve.engine_runs", static_cast<double>(c.engine_runs));
    rep.sample("serve.retries", static_cast<double>(c.retries));
    rep.sample("serve.shed", static_cast<double>(c.shed_total()));
    rep.sample("serve.queue_depth_peak",
               static_cast<double>(c.queue_depth_peak));
    rep.sample("cache_hits", static_cast<double>(c.cache_hits));
    return wall;
  };

  if (!cfg.trace) {
    rep.on_emit([](Report& r) { r.set("peak_rss_mb", peak_rss_mb()); });
    repeat_for(cfg.seconds, 3, {[&] { loop(nullptr); }});
    return;
  }

  rep.on_emit(derive_trace_overhead);
  repeat_for(cfg.seconds, 3,
             {[&] { rep.sample("untraced_run_s", loop(nullptr)); },
              [&] {
                std::uint64_t job = 0;
                {
                  auto root = spans.job(&job);
                  loop(&spans);
                }
                sample_job_spans(rep, spans, job, "");
              }});
  write_trace(cfg, spans);
}

}  // namespace perfbench
