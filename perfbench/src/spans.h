#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Bench-side span recorder for the traced run. The benchmark wraps its own
// calls into each capplan module's public functions in spans; nothing is
// recorded inside the library. Each span keeps its name, start, end, parent
// span and the id of the cycle (tick, refit wave or request) it belongs to.
// Spans go to a per-thread buffer in memory and are written out when the
// run ends.
//
// The estate service runs a tick or a refit wave as one call, so its inner
// layers cannot be wrapped from outside. The traced run therefore replays
// each layer's public call on the same inputs right after the service call
// and books the replay against it (Span::BookTo). A booked replay counts as
// a child of the call it is booked to: the call's self time is what the
// replays do not explain, which is the unattributed share.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::spans {

struct SpanRecord {
  const char* name = "";        // static string
  std::uint64_t trace_id = 0;   // cycle id shared by every span of a cycle
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root of its cycle
  std::uint64_t booked_to = 0;  // replay: the opaque span it explains
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void Enable(bool on);
bool Enabled();
std::uint64_t NewTraceId();

class Span {
 public:
  // Child of this thread's innermost open span; a new cycle when none.
  explicit Span(const char* name);
  // Explicit placement, for spans that continue a cycle on another thread.
  Span(const char* name, std::uint64_t trace_id, std::uint64_t parent_id);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();
  // Books this replay span against the opaque call `span_id`.
  void BookTo(std::uint64_t span_id) { record_.booked_to = span_id; }

  std::uint64_t id() const { return record_.span_id; }
  std::uint64_t trace_id() const { return record_.trace_id; }

 private:
  void Open();

  SpanRecord record_;
  bool open_ = false;
  Span* outer_ = nullptr;
};

// Every span recorded so far, across threads, and clears the buffers. Call
// only while no other thread is recording.
std::vector<SpanRecord> Drain();

// Writes `spans` as Chrome trace-event JSON (chrome://tracing, Perfetto).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

struct NameStats {
  std::size_t count = 0;
  double total_ms = 0.0;  // summed durations
  double self_ms = 0.0;   // minus nested children and booked replays
  std::vector<double> durations_ms;
};

// Per-name counts, durations and self time.
std::map<std::string, NameStats> Analyze(const std::vector<SpanRecord>& spans);

// Analyze's result with lookups that read 0 for a name never recorded.
class Profile {
 public:
  explicit Profile(const std::vector<SpanRecord>& spans)
      : stats_(Analyze(spans)), spans_(spans.size()) {}

  std::size_t count(const std::string& name) const { return Get(name).count; }
  double total_ms(const std::string& name) const {
    return Get(name).total_ms;
  }
  double self_ms(const std::string& name) const { return Get(name).self_ms; }
  // Mean duration per span, in microseconds.
  double mean_us(const std::string& name) const {
    const NameStats& s = Get(name);
    return s.count == 0 ? 0.0 : 1e3 * s.total_ms / static_cast<double>(s.count);
  }
  const std::vector<double>& durations_ms(const std::string& name) const {
    return Get(name).durations_ms;
  }
  std::size_t spans() const { return spans_; }

 private:
  const NameStats& Get(const std::string& name) const {
    static const NameStats kNone;
    const auto it = stats_.find(name);
    return it == stats_.end() ? kNone : it->second;
  }

  std::map<std::string, NameStats> stats_;
  std::size_t spans_;
};

}  // namespace perfbench::spans

#endif  // PERFBENCH_SPANS_H_
