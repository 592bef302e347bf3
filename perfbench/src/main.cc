// estate_bench: one workload of the capplan estate benchmark per run.
//
//   estate_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>]
//
// Workloads: olap_steady_durable, oltp_steady_ingest, oltp_refit_wave,
// query_mix_live (see perfbench/README.md). Prints one human-readable line
// per metric (name, value, unit, sample count) and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 0 when the run completed (correct or not), non-zero on a
// usage or set-up error, without a result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "spans.h"

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: estate_bench --workload "
               "<olap_steady_durable|oltp_steady_ingest|oltp_refit_wave|"
               "query_mix_live> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !(options.seconds > 0)) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "estate_bench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  spans::Enable(options.trace);

  Report report;
  const auto steal0 = CpuSteal();
  try {
    if (options.workload == "oltp_refit_wave") {
      RunRefitWave(options, &report);
    } else if (options.workload == "olap_steady_durable") {
      RunSteadyDurable(options, &report);
    } else if (options.workload == "oltp_steady_ingest") {
      RunSteadyIngest(options, &report);
    } else if (options.workload == "query_mix_live") {
      RunQueryMix(options, &report);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "estate_bench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto steal1 = CpuSteal();
  const double steal_frac = Ratio(steal1.first - steal0.first,
                                  steal1.second - steal0.second);
  report.Layer("host.steal_frac", steal_frac, 1);
  report.Note("host: " + std::to_string(100.0 * steal_frac) +
              "% of CPU time stolen by the hypervisor during the run");
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  // Every metric of the run's table, in table order; a layer the workload's
  // cycle does not use reads 0, an end-to-end metric it did not measure
  // fails the run.
  std::vector<std::pair<MetricSpec, Value>> metrics;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.layers.find(spec.name);
      metrics.push_back(
          {spec, it == report.layers.end() ? Value{} : it->second});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.e2e.find(spec.name);
      report.Check(it != report.e2e.end(),
                   std::string("end-to-end metric not measured: ") +
                       spec.name);
      metrics.push_back({spec, it == report.e2e.end() ? Value{} : it->second});
    }
  }
  for (const auto& [spec, v] : metrics) {
    std::printf("%-34s %14.6g %-6s n=%zu\n", spec.name, v.value, spec.unit,
                v.samples);
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("failed_frac %.6g (%llu of %llu)\n", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  bool correct = report.failures.empty() && report.attempted > 0;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const auto& [spec, v] : metrics) {
    if (!std::isfinite(v.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", spec.name);
      correct = false;
      continue;
    }
    if (!body.empty()) body += ", ";
    body += std::string("\"") + spec.name + "\": {\"value\": " +
            JsonNumber(v.value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
