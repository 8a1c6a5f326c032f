// Benchmark driver: runs one workload for a fixed time and prints the
// result as the last line of stdout (see perfbench/README.md).
//
//   perfbench_driver --workload <metagenome|kernel_grid|distributed|service>
//                    --seed N --seconds S --trace 0|1 [--trace-out PATH]
//                    [--commit SHA] [--source-digest HEX]
//   perfbench_driver --self-test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Cumulative CPU ticks of the whole machine from /proc/stat: all states,
/// and the ones a hypervisor took from this guest (steal).
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit SHA] "
               "[--source-digest HEX]\n"
               "       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const std::string err = oracle_self_test();
      std::printf("oracle self-test: %s\n",
                  err.empty() ? "a flipped base is caught" : err.c_str());
      return err.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v != "0";
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--source-digest") {
      digest = v;
    } else {
      return usage();
    }
  }
  void (*run)(const RunConfig&, Report&) = nullptr;
  if (cfg.workload == "metagenome") run = run_metagenome;
  if (cfg.workload == "kernel_grid") run = run_kernel_grid;
  if (cfg.workload == "distributed") run = run_distributed;
  if (cfg.workload == "service") run = run_service;
  if (!have_workload || run == nullptr || cfg.seconds <= 0.0) return usage();

  Report rep(cfg.trace);
  // Host fingerprint and provenance ride along with every result.
  const std::uint64_t held_out = cfg.seed ^ 0x5EED5EEDULL;
  rep.detail("provenance",
             "{\"cpu\": " + quoted(cpu_model()) +
                 ", \"nproc\": " +
                 std::to_string(std::thread::hardware_concurrency()) +
                 ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
                 ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                 ", \"commit\": " + quoted(commit) +
                 ", \"source_digest\": " + quoted(digest) +
                 ", \"workload\": " + quoted(cfg.workload) +
                 ", \"seed\": " + std::to_string(cfg.seed) +
                 ", \"held_out_seed\": " + std::to_string(held_out) +
                 ", \"engine_threads\": " + std::to_string(kEngineThreads) +
                 ", \"seconds\": " + std::to_string(cfg.seconds) + "}");

  const std::string self_test = oracle_self_test();
  if (!self_test.empty()) rep.mismatch("oracle self-test: " + self_test);
  emit_report_on_crash(rep);
  const CpuTicks ticks0 = cpu_ticks();
  {
    // No operation takes more than about 5 s (a 1-thread grid); 15 s
    // without progress is a hang. The hard limit keeps the run inside its
    // 180 s budget.
    Watchdog watchdog(rep, /*stall_s=*/15.0, /*limit_s=*/150.0);
    try {
      run(cfg, rep);
    } catch (const std::exception& e) {
      // A typed error out of the library fails the operation in flight.
      rep.failure(std::string("exception: ") + e.what());
      rep.op(false);
    }
  }
  // Time the hypervisor took from the machine during the run: a run on a
  // noisy host is slower for reasons no change to the program explains.
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    rep.detail_num("host_steal_frac", (ticks1.steal - ticks0.steal) /
                                          (ticks1.total - ticks0.total));
  }
  rep.emit();
  return 0;
}
