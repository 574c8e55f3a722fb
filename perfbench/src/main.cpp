// perfbench — end-to-end curation benchmark executable.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>] [--tiny]
//             [--wrong-reference]
//
// Prints the run context as one `context: {...}` line, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a separate traced run. Workloads and
// metrics are described in perfbench/README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "probe.hpp"
#include "workload.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"round_s_p50", "s"},     {"curated_mb_s", "MB/s"},
    {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
    {"cases_per_s", "1/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reads 0 (see README.md).
constexpr MetricSpec kPerLayer[] = {
    {"flow.next_s", "s"},
    {"flow.snapshots", "count"},
    {"store.append_s", "s"},
    {"store.close_s", "s"},
    {"store.compression_ratio", "ratio"},
    {"store.writer_peak_mb", "MB"},
    {"store.cache_hit_ratio", "ratio"},
    {"store.blocks_decoded", "count"},
    {"store.io_mb_read", "MB"},
    {"store.prefetch_wasted", "count"},
    {"select.s", "s"},
    {"sample.s", "s"},
    {"sample.points_per_s", "1/s"},
    {"pool.busy_s", "s"},
    {"pool.queue_wait_s", "s"},
    {"pool.utilization", "ratio"},
    {"train.s", "s"},
    {"train.examples_per_s", "1/s"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.refused", "count"},
    {"serve.shared_cache_hit_ratio", "ratio"},
    {"energy.model_kj", "kJ"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// CPUs this process may run on (what `nproc` prints).
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<stream_ingest|curate_subsample|train_full|serve_closed> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--git-sha <sha>] [--tiny] [--wrong-reference]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--wrong-reference") {
      opts.wrong_reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  opts.nproc = available_cpus();
  if (opts.work_dir.empty()) opts.work_dir = ".bench_build/work";
  opts.work_dir = (std::filesystem::absolute(opts.work_dir) /
                   ("run_" + std::to_string(::getpid())))
                      .string();
  std::filesystem::create_directories(opts.work_dir);

  Outcome out;
  try {
    if (opts.workload == "stream_ingest") {
      out = perfbench::run_stream_ingest(opts);
    } else if (opts.workload == "curate_subsample") {
      out = perfbench::run_curate_subsample(opts);
    } else if (opts.workload == "train_full") {
      out = perfbench::run_train_full(opts);
    } else if (opts.workload == "serve_closed") {
      out = perfbench::run_serve_closed(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(opts.work_dir);
    return 1;
  }
  std::filesystem::remove_all(opts.work_dir);
  out.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();

  std::string ctx = "{\"workload\": \"" + opts.workload +
                    "\", \"seed\": " + std::to_string(opts.seed) +
                    ", \"trace\": " + (opts.trace ? "1" : "0") +
                    ", \"nproc\": " + std::to_string(opts.nproc) +
                    ", \"hardware_concurrency\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"compiler\": \"" PERFBENCH_COMPILER
                    "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                    "\", \"git_sha\": \"" + git_sha + "\"";
  for (const auto& [k, v] : out.context) ctx += ", \"" + k + "\": " + number(v);
  std::printf("context: %s}\n", ctx.c_str());

  std::string metrics;
  const auto emit = [&](const MetricSpec& m, double v) {
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(m.name).append("\": {\"value\": ");
    metrics.append(number(v)).append(", \"unit\": \"").append(m.unit);
    metrics.append("\"}");
  };
  if (opts.trace) {
    for (const auto& m : kPerLayer) {
      const auto it = out.metrics.find(m.name);
      emit(m, it == out.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const auto& m : kEndToEnd) {
      const auto it = out.metrics.find(m.name);
      if (it == out.metrics.end()) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                     m.name);
        return 1;
      }
      emit(m, it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              out.attempted, out.failed, metrics.c_str());
  return 0;
}
