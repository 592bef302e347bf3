#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the estate benchmark: run options, the metric report
// every workload fills, the metric tables and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "repo/repository.h"
#include "service/estate_service.h"
#include "spans.h"
#include "workload/cluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  // How long a run measures, wall clock: query_mix_live's query phase; the
  // other workloads start cycles (waves, estates) within it.
  double seconds = 10.0;
  bool trace = false;    // per-layer run (span recorder on)
  std::string work_dir;  // scratch space inside the checkout
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them, measured with
// the span recorder off. How each workload defines throughput and latency
// is in perfbench/README.md.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms.p50", "ms"},
    {"forecast_mape_pct", "%"},
};

// Per-layer metrics of the traced run. Every workload prints all of them; a
// layer its cycle does not use reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    // Share of the workload's cycle time each layer accounts for.
    {"agent.collect.share", "ratio"},
    {"repo.append.share", "ratio"},
    {"quality.score.share", "ratio"},
    {"serve.view_publish.share", "ratio"},
    {"service.checkpoint.share", "ratio"},
    {"repo.save_segments.share", "ratio"},
    {"quality.repair.share", "ratio"},
    {"core.pipeline.share", "ratio"},
    {"serve.handle.share", "ratio"},
    {"serve.http.share", "ratio"},
    // Ingest and durability.
    {"agent.collect_us", "us"},
    {"repo.append_us", "us"},
    {"quality.score_ns", "ns"},
    {"service.tick_ms.p50", "ms"},
    {"service.tick_ms.p99", "ms"},
    {"service.checkpoint_ms", "ms"},
    {"repo.save_segments_ms", "ms"},
    {"service.journal_bytes_per_tick", "B"},
    {"store.snapshot_bytes", "B"},
    {"repo.load_segments_ms", "ms"},
    {"service.recover_ms", "ms"},
    {"store.compression_ratio", "ratio"},
    // Selection.
    {"quality.repair_ms", "ms"},
    {"core.route_ms", "ms"},
    {"core.pipeline_ms.p50", "ms"},
    {"core.pipeline_ms.max", "ms"},
    {"core.candidates_evaluated", "count"},
    {"core.candidates_pruned", "count"},
    {"core.candidates_useful_frac", "ratio"},
    {"models.tbats_filter_runs", "count"},
    {"service.drain_ms", "ms"},
    {"service.queue_depth.max", "count"},
    {"service.pool_busy_frac", "ratio"},
    // Serving.
    {"serve.handle_us.forecast", "us"},
    {"serve.handle_us.breach", "us"},
    {"serve.handle_us.headroom", "us"},
    {"serve.handle_us.decompose", "us"},
    {"serve.handle_us.estate", "us"},
    {"serve.render_us.forecast", "us"},
    {"serve.render_us.decompose", "us"},
    {"serve.response_bytes.forecast", "B"},
    {"serve.response_bytes.breach", "B"},
    {"serve.response_bytes.headroom", "B"},
    {"serve.response_bytes.decompose", "B"},
    {"serve.response_bytes.estate", "B"},
    {"serve.http_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.view_swaps", "count"},
    {"serve.throttled", "count"},
    {"tsa.mstl_ms", "ms"},
    {"common.json_number_ns", "ns"},
    // The recorder itself, and the host it ran on.
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.spans", "count"},
    {"host.steal_frac", "ratio"},
};

struct Value {
  double value = 0.0;
  std::size_t samples = 0;  // measurements behind the value
};

// What one workload run produced. `attempted`/`failed` count the user-facing
// operations (refits, ticks, queries); `failures` lists correctness checks
// that did not hold.
struct Report {
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layers;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // human-readable context lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void E2e(const std::string& name, double value, std::size_t samples) {
    e2e[name] = {value, samples};
  }
  void Layer(const std::string& name, double value, std::size_t samples) {
    layers[name] = {value, samples};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty input.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// High-water resident set of this process, in MB.
double PeakRssMb();

// Cumulative (steal, total) CPU time of the host from /proc/stat, in ticks.
// On a virtual machine, steal is time the hypervisor gave to other guests;
// a run that saw much of it measured a slower machine.
std::pair<double, double> CpuSteal();

// Byte-exact equality of two double vectors.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

// Total size in bytes of the regular files under `dir` (recursive).
std::uint64_t DirBytes(const std::string& dir);

// A simulated cluster plus the estate service watching it.
struct Estate {
  std::unique_ptr<capplan::workload::ClusterSimulator> cluster;
  std::vector<capplan::service::WatchConfig> watches;
  std::unique_ptr<capplan::service::EstateService> service;
};

// Watches cpu, memory and logical IOPS on the first `n_instances` instances.
// Each breach threshold sits at 1.1x the metric's peak over the last warmup
// week, so growing series raise alerts during a run and flat ones do not.
std::vector<capplan::service::WatchConfig> WatchEstate(
    const capplan::workload::ClusterSimulator& cluster, int n_instances,
    int warmup_days);

// Builds and starts an estate on a fresh simulator; throws on failure.
Estate StartEstate(const capplan::workload::WorkloadScenario& scenario,
                   std::uint64_t seed, int n_instances,
                   const capplan::service::EstateServiceConfig& config);

// Replays the ingest half of a tick outside the service, for the traced
// run: the agent poll and the repository append each watch goes through, on
// a shadow repository that holds the same history as the service's. Each
// call is one "agent.collect" / "repo.append" span booked to the service
// call it explains.
class IngestReplay {
 public:
  // Backfills the history the service holds up to `until_epoch`: the
  // warmup window Start ingests plus any ticks since.
  IngestReplay(const Estate& estate,
               const capplan::service::EstateServiceConfig& config,
               std::int64_t until_epoch);

  // Replays one tick's ingest, up to `to_epoch`, in spans.
  void Tick(std::int64_t to_epoch, std::uint64_t booked_to);
  // Brings the shadow repository up to `to_epoch` without spans.
  void CatchUp(std::int64_t to_epoch);

  capplan::repo::MetricsRepository& repository() { return repository_; }

 private:
  const Estate* estate_;
  std::int64_t poll_seconds_;
  std::int64_t cursor_ = 0;  // ingested up to here
  std::vector<capplan::agent::MonitoringAgent> agents_;
  std::vector<std::string> keys_;
  capplan::repo::MetricsRepository repository_;
};

// Ends a traced run: drains every recorded span, writes them to
// <work_dir>/trace-<workload>-<seed>.json and returns their profile.
spans::Profile DrainTrace(const RunOptions& options);

// Throws std::runtime_error carrying `what` and the status when !ok.
void Require(const capplan::Status& status, const std::string& what);

// What a serving phase measured (query_mix.cc).
struct ServeResult {
  std::vector<double> latency_ms;         // requests of untraced stretches
  std::vector<double> traced_latency_ms;  // requests of traced stretches
  std::vector<double> window_rates;       // answers/s per second (untraced)
  std::vector<double> tick_ms;            // ticks of untraced stretches
  std::vector<double> traced_tick_ms;
  std::vector<double> bytes;                 // response bytes per endpoint
  std::vector<std::uint64_t> answers;        // responses per endpoint
  double peak_rss_mb = 0.0;
  std::uint64_t throttled = 0;
  std::uint64_t view_swaps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t json_numbers = 0;  // doubles written by the JsonWriter probe
};

// Serves the estate over HTTP for `seconds`: two keep-alive closed-loop
// clients against an HttpServer on its view channel while a third thread
// ticks it, every `verify_every`-th answer checked against a direct Handle
// (see query_mix.cc). A traced run alternates untraced and traced quarters
// and also times MstlDecompose and JsonWriter on the final view.
ServeResult ServeEstate(Estate& e, const RunOptions& options, double seconds,
                        int verify_every, Report* report);

// The serve.*, tsa.mstl_ms and common.json_number_ns per-layer metrics.
void ReportServeLayers(const spans::Profile& trace, const ServeResult& served,
                       Report* report);

// The four workloads. Each fills `report`: with options.trace off the
// end-to-end metrics, with it on the per-layer metrics. Both runs perform
// the correctness checks.
void RunRefitWave(const RunOptions& options, Report* report);
void RunSteadyDurable(const RunOptions& options, Report* report);
void RunSteadyIngest(const RunOptions& options, Report* report);
void RunQueryMix(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
