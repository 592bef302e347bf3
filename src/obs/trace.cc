#include "obs/trace.h"

#include <vector>

namespace capplan::obs {

namespace {

// Innermost open span per thread; spans nest strictly (RAII), so a plain
// stack of ids is enough to give children their parent.
struct SpanStack {
  std::vector<std::uint64_t> ids;
};

SpanStack& ThisThreadSpans() {
  thread_local SpanStack stack;
  return stack;
}

}  // namespace

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all threads
  return *tracer;
}

std::uint64_t CurrentSpanId() {
  const SpanStack& stack = ThisThreadSpans();
  return stack.ids.empty() ? 0 : stack.ids.back();
}

TraceSpan::TraceSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  Tracer& tracer = Tracer::Instance();
  if (!tracer.enabled()) return;
  id_ = tracer.NextSpanId();
  parent_id_ = CurrentSpanId();
  ThisThreadSpans().ids.push_back(id_);
  start_ns_ = NowNs();
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::End() {
  if (id_ == 0) return;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.tag = tag_;
  event.start_ns = start_ns_;
  const std::uint64_t end_ns = NowNs();
  event.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  event.span_id = id_;
  event.parent_id = parent_id_;
  event.tid = ThisThreadId();
  SpanStack& stack = ThisThreadSpans();
  if (!stack.ids.empty() && stack.ids.back() == id_) stack.ids.pop_back();
  id_ = 0;  // the destructor (or a second End) becomes a no-op
  // Record even if tracing was disabled mid-span: the open event is more
  // useful than a hole in the timeline.
  Tracer::Instance().Record(event);
}

}  // namespace capplan::obs
