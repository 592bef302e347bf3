#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

using namespace capplan;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::pair<double, double> CpuSteal() {
  std::ifstream stat("/proc/stat");  // absent: no steal, no total
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  double total = 0.0;
  double steal = 0.0;
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

spans::Profile DrainTrace(const RunOptions& options) {
  const std::vector<spans::SpanRecord> recorded = spans::Drain();
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!spans::WriteChromeTrace(path, recorded)) {
    throw std::runtime_error("cannot write " + path);
  }
  return spans::Profile(recorded);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

std::vector<service::WatchConfig> WatchEstate(
    const workload::ClusterSimulator& cluster, int n_instances,
    int warmup_days) {
  constexpr workload::Metric kMetrics[] = {workload::Metric::kCpu,
                                           workload::Metric::kMemory,
                                           workload::Metric::kLogicalIops};
  const std::int64_t warmup_end =
      cluster.start_epoch() + static_cast<std::int64_t>(warmup_days) * 86400;
  std::vector<service::WatchConfig> watches;
  for (int instance = 0; instance < n_instances; ++instance) {
    for (workload::Metric metric : kMetrics) {
      double peak = 0.0;
      for (std::int64_t t = warmup_end - 7 * 86400; t < warmup_end;
           t += 3600) {
        peak = std::max(peak, cluster.SampleAt(instance, t).Get(metric));
      }
      watches.emplace_back(instance, metric, 1.1 * peak);
    }
  }
  return watches;
}

Estate StartEstate(const workload::WorkloadScenario& scenario,
                   std::uint64_t seed, int n_instances,
                   const service::EstateServiceConfig& config) {
  Estate estate;
  workload::WorkloadScenario sized = scenario;
  sized.n_instances = n_instances;
  estate.cluster = std::make_unique<workload::ClusterSimulator>(sized, seed);
  estate.watches =
      WatchEstate(*estate.cluster, n_instances, config.warmup_days);
  estate.service = std::make_unique<service::EstateService>(
      estate.cluster.get(), estate.watches, config);
  Require(estate.service->Start(), "EstateService::Start");
  return estate;
}

IngestReplay::IngestReplay(const Estate& estate,
                           const service::EstateServiceConfig& config,
                           std::int64_t until_epoch)
    : estate_(&estate),
      poll_seconds_(config.poll_seconds),
      cursor_(estate.cluster->start_epoch()) {
  for (const service::WatchConfig& watch : estate.watches) {
    agents_.emplace_back(estate.cluster.get(),
                         watch.faults.value_or(agent::FaultModel{}),
                         config.poll_seconds);
    keys_.push_back(service::EstateService::KeyFor(*estate.cluster, watch));
  }
  CatchUp(until_epoch);
}

void IngestReplay::CatchUp(std::int64_t to_epoch) {
  const bool tracing = spans::Enabled();
  spans::Enable(false);
  Tick(to_epoch, 0);
  spans::Enable(tracing);
}

void IngestReplay::Tick(std::int64_t to_epoch, std::uint64_t booked_to) {
  if (to_epoch <= cursor_) return;
  const std::size_t n_polls =
      static_cast<std::size_t>((to_epoch - cursor_) / poll_seconds_);
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const service::WatchConfig& watch = estate_->watches[i];
    Result<tsa::TimeSeries> chunk = [&] {
      spans::Span span("agent.collect");
      span.BookTo(booked_to);
      return agents_[i].Collect(watch.instance, watch.metric, cursor_,
                                n_polls);
    }();
    Require(chunk.status(), "MonitoringAgent::Collect");
    chunk->set_name(keys_[i]);
    spans::Span span("repo.append");
    span.BookTo(booked_to);
    Require(repository_.Append(keys_[i], *chunk),
            "MetricsRepository::Append");
  }
  cursor_ = to_epoch;
}

}  // namespace perfbench
