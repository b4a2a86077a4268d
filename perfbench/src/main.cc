// rlc_perfbench: the repository's end-to-end benchmark program.
//
//   rlc_perfbench --workload <paper_index|community_read|churn_durable|
//                             hash_spill>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny]
//                 [--inject-wrong]
//
// One single-threaded client drives the public API in a closed loop (the
// next call is sent when the previous one returns). The workload's inputs
// are generated from --seed; every answer is verified after the timed
// phase, and a wrong answer exits 1 without printing metrics. With
// --trace 0 the last output line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics (PerLayerMetrics()). See
// perfbench/README.md for the workloads and metric definitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_util.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"indexer.build_s", "s"},
      {"indexer.entries", "count"},
      {"kernel.batch_ns_per_probe", "ns"},
      {"kernel.query_ns", "ns"},
      {"kernel.sig_refuted_share", "1"},
      {"router.resolve_ns", "ns"},
      {"router.route_ns", "ns"},
      {"router.shard_kernel_ns", "ns"},
      {"router.intra_true_share", "1"},
      {"router.refuted_share", "1"},
      {"router.composed_share", "1"},
      {"router.query_ns", "ns"},
      {"partition.s", "s"},
      {"partition.boundary_share", "1"},
      {"partition.mb", "MB"},
      {"compose.probe_p50_ns", "ns"},
      {"compose.probe_tail_ns", "ns"},
      {"compose.frontier_hit_share", "1"},
      {"compose.skeleton_hops_per_probe", "count"},
      {"compose.expanded_per_probe", "count"},
      {"compose.table_rows_built", "count"},
      {"compose.invalidations", "count"},
      {"compose.mb", "MB"},
      {"compose.cached_frontiers", "count"},
      {"compose.cold_pass_s", "s"},
      {"dyn.insert_p50_ns", "ns"},
      {"dyn.delete_p50_ns", "ns"},
      {"dyn.delete_tail_ns", "ns"},
      {"dyn.reseals", "count"},
      {"dyn.reseal_merge_ns", "ns"},
      {"dyn.entries_growth", "1"},
      {"wal.fsync_p50_ns", "ns"},
      {"wal.bytes_per_mutation", "B"},
      {"checkpoint.count", "count"},
      {"checkpoint.p50_ms", "ms"},
      {"recover.replayed_records", "count"},
      {"pool.runs_per_batch", "count"},
      {"update_p50_ms", "ms"},
      {"update_tail_ms", "ms"},
      {"updates_per_s", "1/s"},
      {"recover_s", "s"},
      {"trace.overhead", "1"},
  };
  return kMetrics;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"batch_mean_ms", "ms"},
      {"batch_tail_ms", "ms"},   {"probes_per_s", "1/s"},
      {"query_us", "us"},        {"service_mb", "MB"},
      {"rss_peak_mb", "MB"},
  };
  return kMetrics;
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "rlc_perfbench: %s\nusage: rlc_perfbench --workload "
               "<paper_index|community_read|churn_durable|hash_spill> --seed "
               "<n> --seconds <s> --trace <0|1> [--tiny] [--inject-wrong]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() != "0";
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--inject-wrong") {
      args.inject_wrong = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  const char* work = std::getenv("PERFBENCH_WORK_DIR");
  args.work_dir = work != nullptr ? work : ".bench_build/perfbench/work";
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Outcome out;
  try {
    if (args.workload == "paper_index") {
      RunPaperIndex(args, out);
    } else if (args.workload == "community_read") {
      RunCommunityRead(args, out);
    } else if (args.workload == "churn_durable") {
      RunChurnDurable(args, out);
    } else if (args.workload == "hash_spill") {
      RunHashSpill(args, out);
    } else {
      Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlc_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (!out.correct()) {
    std::fprintf(stderr, "rlc_perfbench: %s: wrong answers, no metrics\n",
                 args.workload.c_str());
    return 1;
  }
  // Fix the key set and order: every metric of the selected mode, once.
  const auto& names = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, unit] : names) {
    if (!out.Has(name)) {
      if (!args.trace) {
        std::fprintf(stderr, "rlc_perfbench: metric %s not measured\n",
                     name.c_str());
        return 1;
      }
      out.Metric(name, 0.0, unit);  // layer not exercised by the workload
    }
  }
  out.Print(names);
  return 0;
}
