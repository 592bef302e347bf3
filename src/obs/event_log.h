#ifndef CAPPLAN_OBS_EVENT_LOG_H_
#define CAPPLAN_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/ring.h"

namespace capplan::obs {

// Flight recorder: one *wide event* per unit of work, kept in the bounded
// per-thread rings of obs/ring.h. Where a TraceSpan answers "where did the
// time go inside this operation?", a wide event answers "which operations
// happened, to which key, with what outcome?" — one self-contained record per HTTP
// request, refit, promotion/rollback, quality repair, tick overrun or store
// seal/flush, carrying the ids (span, journal seq) needed to pivot into the
// trace timeline and the journal. The /v1/debug/* handlers serve a merged
// snapshot of the rings, so the last few thousand units of work are always
// queryable on-box without any external pipeline.
//
// Cost model matches obs::Tracer: disabled emission is one relaxed load and
// a branch; enabled it is one obs::NowNs() read plus one ~160-byte ring
// write behind an uncontended per-thread mutex. Rings overwrite their oldest
// events when full; dropped()/total_dropped() count the overwrites.

enum class WideEventKind : std::uint8_t {
  kHttpRequest = 0,
  kRefit,
  kPromotion,
  kRollback,
  kQualityRepair,
  kTickOverrun,
  kStoreSeal,
  kStoreFlush,
};

// Stable lowercase names ("http_request", "refit", ...) used by the JSON
// debug surface and its ?kind= filter.
const char* WideEventKindName(WideEventKind kind);
bool WideEventKindFromName(std::string_view name, WideEventKind* out);

struct WideEvent {
  static constexpr std::size_t kKeyCapacity = 64;  // incl. NUL, truncating
  static constexpr std::size_t kMaxAttrs = 6;

  struct Attr {
    const char* name = "";  // static string
    double value = 0.0;
  };

  std::uint64_t id = 0;  // assigned by Emit(), 1-based, monotone
  WideEventKind kind = WideEventKind::kHttpRequest;
  char key[kKeyCapacity] = {};  // "<instance>/<metric>" or request path
  std::int32_t shard = -1;      // -1 when not shard-scoped
  std::uint64_t span_id = 0;    // enclosing trace span, 0 = none
  std::uint64_t journal_seq = 0;  // journal append seq, 0 = not journalled
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  const char* outcome = "ok";  // static string: "ok", "error", "rejected"...
  std::uint32_t tid = 0;  // obs::ThisThreadId() of the emitting thread
  std::uint8_t n_attrs = 0;
  Attr attrs[kMaxAttrs] = {};

  void set_key(std::string_view k) {
    const std::size_t n = k.size() < kKeyCapacity - 1 ? k.size()
                                                      : kKeyCapacity - 1;
    std::memcpy(key, k.data(), n);
    key[n] = '\0';
  }
  void AddAttr(const char* name, double value) {
    if (n_attrs < kMaxAttrs) attrs[n_attrs++] = {name, value};
  }
};

// The wide-event recorder: a RingRecorder of WideEvents (Enable/Disable,
// Snapshot, Drain, drop counts) plus the process-wide event-id counter.
class EventLog : public RingRecorder<WideEvent> {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  static EventLog& Instance();

  // The emission path for a unit of work that just finished after `dur_ms`
  // (measured by the caller). When enabled: builds a WideEvent of `kind`,
  // lets `fill(WideEvent&)` set key, outcome, attrs and ids, stamps
  // start_ns = NowNs() - dur from one clock read, and records it. Returns
  // the assigned event id; 0 when disabled, in which case `fill` never runs.
  template <typename Fill>
  std::uint64_t EmitFinished(WideEventKind kind, double dur_ms, Fill&& fill) {
    if (!enabled()) return 0;
    WideEvent event;
    event.kind = kind;
    event.dur_ns = static_cast<std::uint64_t>(dur_ms * 1e6);
    std::forward<Fill>(fill)(event);
    const std::uint64_t now_ns = NowNs();
    event.start_ns = now_ns > event.dur_ns ? now_ns - event.dur_ns : 0;
    return Emit(event);
  }

  // Records an already-stamped `event` (filling id, tid, and span_id when
  // unset) into the calling thread's ring. Returns the assigned event id,
  // 0 when disabled.
  std::uint64_t Emit(WideEvent event);

 private:
  EventLog() : RingRecorder(kDefaultRingCapacity) {}

  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_EVENT_LOG_H_
