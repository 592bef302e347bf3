#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct Buffer {
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mu

thread_local Buffer* t_buffer = nullptr;
thread_local Span* t_current = nullptr;

Buffer* ThisThreadBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->spans.reserve(1 << 14);
    t_buffer = g_buffers.back().get();
  }
  return t_buffer;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t NewTraceId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (!Enabled()) return;
  record_.name = name;
  if (t_current != nullptr) {
    record_.trace_id = t_current->record_.trace_id;
    record_.parent_id = t_current->record_.span_id;
  } else {
    record_.trace_id = NewTraceId();
  }
  Open();
}

Span::Span(const char* name, std::uint64_t trace_id, std::uint64_t parent_id) {
  if (!Enabled()) return;
  record_.name = name;
  record_.trace_id = trace_id != 0 ? trace_id : NewTraceId();
  record_.parent_id = parent_id;
  Open();
}

void Span::Open() {
  record_.span_id = NewTraceId();
  outer_ = t_current;
  t_current = this;
  open_ = true;
  record_.start_ns = NowNs();
}

void Span::End() {
  if (!open_) return;
  record_.end_ns = NowNs();
  open_ = false;
  // Spans close innermost first on their own thread; restore the outer one.
  if (t_current == this) t_current = outer_;
  ThisThreadBuffer()->spans.push_back(record_);
}

std::vector<SpanRecord> Drain() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"booked_to\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_id),
                 static_cast<unsigned long long>(s.booked_to));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, NameStats> Analyze(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].span_id] = i;
  }
  // Time each span's children cover: nested children clipped to the
  // parent's interval, booked replays at their full duration.
  std::vector<double> covered_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.booked_to != 0) {
      const auto it = index.find(s.booked_to);
      if (it != index.end()) {
        covered_ns[it->second] += static_cast<double>(s.end_ns - s.start_ns);
      }
      continue;
    }
    if (s.parent_id == 0) continue;
    const auto it = index.find(s.parent_id);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered_ns[it->second] += static_cast<double>(hi - lo);
  }
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    NameStats& stats = out[s.name];
    ++stats.count;
    stats.total_ms += dur / 1e6;
    stats.self_ms += std::max(0.0, dur - covered_ns[i]) / 1e6;
    stats.durations_ms.push_back(dur / 1e6);
  }
  return out;
}

}  // namespace perfbench::spans
