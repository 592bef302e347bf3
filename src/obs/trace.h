#ifndef CAPPLAN_OBS_TRACE_H_
#define CAPPLAN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>

#include "obs/ring.h"

namespace capplan::obs {

// Low-overhead tracing for answering "where did this refit spend its 40
// seconds?". RAII TraceSpans record complete events into the per-thread
// rings of obs/ring.h; the global Tracer drains every ring into one
// timeline that the Chrome-trace exporter (obs/export.h) turns into a
// chrome://tracing / Perfetto flame view of a whole service run.
//
// Cost model: with tracing disabled a span is one relaxed atomic load and a
// branch (safe to leave in per-candidate grid loops); enabled it is two
// obs::NowNs() reads plus a ~64-byte ring write behind an uncontended
// per-thread mutex — O(100ns). Rings are fixed-capacity and overwrite their
// oldest events when full (dropped() counts the overwrites).

struct TraceEvent {
  const char* name = "";      // static string: span site, e.g. "service.tick"
  const char* category = "";  // static string: subsystem, e.g. "service"
  const char* tag = nullptr;  // optional static annotation ("pruned", "ok")
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t span_id = 0;    // unique per span, 1-based
  std::uint64_t parent_id = 0;  // enclosing span on the same thread, 0 = root
  std::uint32_t tid = 0;        // obs::ThisThreadId() of the recording thread
};

// The span recorder: a RingRecorder of TraceEvents (Enable/Disable, Drain,
// drop counts) plus the process-wide span-id counter.
class Tracer : public RingRecorder<TraceEvent> {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  static Tracer& Instance();

 private:
  friend class TraceSpan;
  Tracer() : RingRecorder(kDefaultRingCapacity) {}
  std::uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::atomic<std::uint64_t> next_span_id_{0};
};

// Innermost active span id on the calling thread (0 when none). Journal
// events are stamped with this so a failure in the event log can be located
// in the trace timeline.
std::uint64_t CurrentSpanId();

// RAII span: construction opens it (when tracing is enabled), destruction
// records the complete event. Name/category/tag must be static strings —
// spans never allocate.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "task");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Annotates the event, e.g. the prune/ok/error outcome of a candidate.
  void set_tag(const char* tag) { tag_ = tag; }
  // Closes the span now instead of at scope exit (the destructor becomes a
  // no-op). For back-to-back stages inside one scope.
  void End();
  // 0 when tracing was disabled at construction.
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  const char* category_;
  const char* tag_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_TRACE_H_
