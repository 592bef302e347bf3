#ifndef CAPPLAN_SERVICE_JOURNAL_H_
#define CAPPLAN_SERVICE_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/fields.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "models/model.h"
#include "quality/sentinel.h"
#include "repo/model_store.h"

namespace capplan::service {

// Append-only event journal — the durability backbone of the estate
// planning daemon. Every state transition that matters for recovery (clock
// ticks, fit outcomes, quarantines, alert raises/clears, snapshot markers)
// is appended as one line and flushed, so that after a crash the service can
// reload the last snapshot and replay the journal suffix to rebuild its
// schedule, model registry and alert state exactly.
//
// Two layers: JournalEvent is one line with its payload as raw string
// fields; Event is the same line with a typed payload — one struct per
// EventKind below, whose Fields() member declares the field layout once for
// both encoding and decoding. The estate service only ever builds, journals
// and applies typed Events.

// One per typed payload (EventPayload below), in the same order.
enum class EventKind {
  kTick, kFitOk, kFitFail, kQuarantine, kRelease, kAlert, kAlertClear,
  kSnapshot, kQuality, kPromotion, kRollback
};

const char* EventKindName(EventKind kind);
Result<EventKind> ParseEventKind(const std::string& name);

struct JournalEvent {
  std::int64_t epoch = 0;  // simulated time of the event
  EventKind kind = EventKind::kTick;
  std::string key;         // subject series; empty for tick/snapshot
  std::vector<std::string> fields;
  // Trace span active when the event was journalled (obs::CurrentSpanId();
  // 0 = none). Links a journal line to the matching span in a Chrome-trace
  // dump, so a replayed failure can be located in the timeline. Declared
  // after `fields` to keep `{epoch, kind, key, {fields}}` initializers valid.
  std::uint64_t span_id = 0;

  // One line, 'v2|epoch|kind|span|key|field...'. Separator and newline
  // characters inside fields are replaced with '/' (model specs never
  // contain them). Parse also accepts the pre-trace 'v1|epoch|kind|key|...'
  // layout, yielding span_id 0.
  std::string Serialize() const;
  static Result<JournalEvent> Parse(const std::string& line);
};

// A cached forecast: what the alert feed and the serving layer read for a
// key. Its field layout is shared by fit_ok, rollback and the
// snapshot.forecasts.csv row; `spec` travels separately (the journal
// derives it from technique + spec, the snapshot row has its own column).
struct CachedForecast {
  models::Forecast forecast;
  std::int64_t start_epoch = 0;  // timestamp of forecast step 1
  std::int64_t step_seconds = 3600;
  std::string spec;
  // Ladder rung that produced this forecast; consumers treat anything
  // above kFull as provisional capacity guidance.
  core::DegradationLevel degradation = core::DegradationLevel::kFull;

  // The forecast mean for the step covering epoch `t`; null outside.
  const double* MeanAt(std::int64_t t) const {
    if (step_seconds <= 0 || t < start_epoch) return nullptr;
    const auto i = static_cast<std::size_t>((t - start_epoch) / step_seconds);
    return i < forecast.mean.size() ? &forecast.mean[i] : nullptr;
  }

  template <class F>
  void Fields(F& f) {
    f(start_epoch, step_seconds, forecast.level, forecast.mean,
      forecast.lower, forecast.upper,
      Enum{degradation, core::DegradationLevel::kBaseline});
  }
};

// ---- Typed payloads, one per EventKind, in enum order. ----

struct NoFields {
  template <class F>
  void Fields(F&) {}
};

struct TickEvent : NoFields {};        // clock (and cursor) at the epoch
struct QuarantineEvent : NoFields {};  // key out of the dispatch rotation
struct ReleaseEvent : NoFields {};     // back in, due at the epoch
struct AlertClearEvent : NoFields {};  // breach prognosis cleared
struct SnapshotEvent : NoFields {};    // replay starts after the last one

// A finished refit installed as champion. The displaced champion (if any)
// moves to the registry's rollback slot, stamped with its final live MAPE.
struct FitOkEvent {
  repo::StoredModel model;  // key and live_mape unused
  CachedForecast forecast;  // spec unused
  double quality_score = 0.0;
  double demoted_live_mape = -1.0;  // percent; -1 = none
  // 11 = pre-ladder (no degradation, quality score), 13 = pre-lineage (no
  // generation, promoted_at: replays as a lineage-neutral Put), 15 = no
  // coefficients, periods or demoted live MAPE.
  static constexpr std::size_t kLegacyArities[] = {11, 13, 15};

  template <class F>
  void Fields(F& f) {
    f(model.technique, model.spec, model.test_rmse, model.test_mape,
      model.fitted_at_epoch);
    forecast.Fields(f);
    f(quality_score, model.generation, model.promoted_at_epoch,
      model.ar_coef, model.ma_coef, model.periods, demoted_live_mape);
  }
};

// A failed refit: the retry ladder's verdict.
struct FitFailEvent {
  int consecutive_failures = 0;
  std::int64_t next_due = -1;  // -1 = quarantined
  std::string message;

  template <class F>
  void Fields(F& f) {
    f(consecutive_failures, next_due, message);
  }
};

struct AlertEvent {  // breach alert raised
  bool upper_only = false;
  std::int64_t predicted_breach_epoch = 0;

  template <class F>
  void Fields(F& f) {
    f(Flag{upper_only, "upper", "mean"}, predicted_breach_epoch);
  }
};

// The data-quality sentinel's view of the key's fit window. Only score,
// trainable and verdict are journalled; the live service keeps the full
// report it was handed.
struct QualityEvent {
  quality::QualityReport report;

  template <class F>
  void Fields(F& f) {
    f(report.score, Flag{report.trainable, "1", "0"}, report.verdict);
  }
};

// Promotion-gate verdict on a challenger (accepted ones are kFitOk).
struct PromotionEvent {
  std::string decision = "reject";
  std::string technique;
  std::string spec;
  double challenger_mape = 0.0;
  double champion_live_mape = -1.0;
  std::int64_t next_due = 0;

  template <class F>
  void Fields(F& f) {
    f(decision, technique, spec, challenger_mape, champion_live_mape,
      next_due);
  }
};

// Champion rolled back to the previous generation. Self-contained: the
// full restored model and forecast, so replay needs no in-memory lineage.
struct RollbackEvent {
  repo::StoredModel model;  // key unused
  CachedForecast forecast;  // spec unused
  std::int64_t next_due = -1;  // the key's due time after the rollback
  // 18 = without the restored model's periods (trailing).
  static constexpr std::size_t kLegacyArities[] = {18};

  template <class F>
  void Fields(F& f) {
    f(model.technique, model.spec, model.test_rmse, model.test_mape,
      model.fitted_at_epoch, model.generation, model.promoted_at_epoch,
      model.live_mape, model.ar_coef, model.ma_coef);
    forecast.Fields(f);
    f(next_due, model.periods);
  }
};

using EventPayload =
    std::variant<TickEvent, FitOkEvent, FitFailEvent, QuarantineEvent,
                 ReleaseEvent, AlertEvent, AlertClearEvent, SnapshotEvent,
                 QualityEvent, PromotionEvent, RollbackEvent>;

// One typed journal event.
struct Event {
  std::int64_t epoch = 0;
  std::string key;  // empty for tick/snapshot
  EventPayload payload;
  std::uint64_t span_id = 0;

  EventKind kind() const { return static_cast<EventKind>(payload.index()); }
  // The journal line (no newline), the same layout as
  // JournalEvent::Serialize, encoded straight from the typed payload.
  void AppendLine(std::string* line) const;
  std::string Serialize() const;
  // IoError for a payload that does not match its kind's layout.
  static Result<Event> Parse(const std::string& line);
};

// The append side. Writes are flushed per event so that at most the final,
// torn line is lost on a crash.
class EventJournal {
 public:
  // Opens `path` for appending, creating it if absent.
  static Result<EventJournal> Open(const std::string& path);

  Status Append(const Event& event);
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  void Close() { file_.reset(); }

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::string path_;
  std::unique_ptr<std::FILE, Closer> file_;
  std::string line_;  // reused across appends
};

// Reads every well-formed event from `path`. A torn final line (crash during
// append) is skipped; a missing file yields an empty vector. ReadEvents also
// decodes each payload, treating a final line that fails to decode as torn.
Result<std::vector<JournalEvent>> ReadJournal(const std::string& path);
Result<std::vector<Event>> ReadEvents(const std::string& path);

}  // namespace capplan::service

#endif  // CAPPLAN_SERVICE_JOURNAL_H_
