#include "obs/event_log.h"

#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace capplan::obs {
namespace {

// The EventLog is a process-wide singleton; every test starts from a known
// state and leaves the recorder disabled and empty for its neighbours.
class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::Instance().Disable();
    EventLog::Instance().Clear();
  }
  void TearDown() override {
    EventLog::Instance().Disable();
    EventLog::Instance().Clear();
    SetClockForTest(nullptr);
  }
};

WideEvent Event(WideEventKind kind, const char* key) {
  WideEvent ev;
  ev.kind = kind;
  ev.set_key(key);
  return ev;
}

TEST_F(EventLogTest, DisabledEmitIsANoOp) {
  EventLog& log = EventLog::Instance();
  EXPECT_EQ(log.Emit(Event(WideEventKind::kRefit, "k")), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST_F(EventLogTest, EmitAssignsMonotoneIdsAndFillsThreadId) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  const std::uint64_t a = log.Emit(Event(WideEventKind::kRefit, "a"));
  const std::uint64_t b = log.Emit(Event(WideEventKind::kPromotion, "b"));
  ASSERT_GT(a, 0u);
  EXPECT_GT(b, a);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, a);
  EXPECT_EQ(events[1].id, b);
  EXPECT_GT(events[0].tid, 0u);
  EXPECT_STREQ(events[0].key, "a");
}

TEST_F(EventLogTest, EmitStampsEnclosingTraceSpanWhenUnset) {
  Tracer::Instance().Enable();
  EventLog& log = EventLog::Instance();
  log.Enable();
  {
    TraceSpan span("test.work", "test");
    log.Emit(Event(WideEventKind::kRefit, "implicit"));
    WideEvent explicit_ev = Event(WideEventKind::kRefit, "explicit");
    explicit_ev.span_id = 777;
    log.Emit(explicit_ev);
    const auto events = log.Snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].span_id, span.id());
    EXPECT_EQ(events[1].span_id, 777u);
  }
  Tracer::Instance().Disable();
  Tracer::Instance().Clear();
}

TEST_F(EventLogTest, KeyTruncatesAtCapacityWithNulTermination) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  const std::string longest(200, 'x');
  log.Emit(Event(WideEventKind::kHttpRequest, longest.c_str()));
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].key), WideEvent::kKeyCapacity - 1);
}

TEST_F(EventLogTest, AttrsCapAtMaxAttrs) {
  WideEvent ev = Event(WideEventKind::kRefit, "k");
  for (int i = 0; i < 10; ++i) ev.AddAttr("a", static_cast<double>(i));
  EXPECT_EQ(ev.n_attrs, WideEvent::kMaxAttrs);
  EXPECT_EQ(ev.attrs[WideEvent::kMaxAttrs - 1].value,
            static_cast<double>(WideEvent::kMaxAttrs - 1));
}

// A thread's ring capacity is latched when the ring is created, so the
// capped recordings below run on fresh threads: the test thread's ring may
// already exist when every test shares one process.
TEST_F(EventLogTest, FullRingOverwritesOldestAndCountsDrops) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/4);
  std::vector<std::uint64_t> ids;
  std::thread emitter([&] {
    for (int i = 0; i < 10; ++i) {
      ids.push_back(log.Emit(Event(WideEventKind::kRefit, "k")));
    }
  });
  emitter.join();
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first unwrap: the survivors are the last four emitted, in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].id, ids[6 + i]);
  }
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_GE(log.total_dropped(), 6u);
}

TEST_F(EventLogTest, SnapshotIsNonDestructiveDrainClears) {
  EventLog& log = EventLog::Instance();
  log.Enable();
  log.Emit(Event(WideEventKind::kStoreSeal, "k"));
  EXPECT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot().size(), 1u);  // still there
  EXPECT_EQ(log.Drain().size(), 1u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST_F(EventLogTest, TotalDroppedSurvivesDrain) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/2);
  std::thread emitter([&log] {
    for (int i = 0; i < 5; ++i) log.Emit(Event(WideEventKind::kRefit, "k"));
  });
  emitter.join();
  EXPECT_EQ(log.dropped(), 3u);
  const std::uint64_t total_before = log.total_dropped();
  (void)log.Drain();
  EXPECT_EQ(log.dropped(), 0u);  // per-drain counter reset
  EXPECT_EQ(log.total_dropped(), total_before);  // cumulative keeps going
}

TEST_F(EventLogTest, KindNamesRoundTrip) {
  const WideEventKind kinds[] = {
      WideEventKind::kHttpRequest, WideEventKind::kRefit,
      WideEventKind::kPromotion,   WideEventKind::kRollback,
      WideEventKind::kQualityRepair, WideEventKind::kTickOverrun,
      WideEventKind::kStoreSeal,   WideEventKind::kStoreFlush,
  };
  for (const WideEventKind kind : kinds) {
    WideEventKind parsed;
    ASSERT_TRUE(WideEventKindFromName(WideEventKindName(kind), &parsed))
        << WideEventKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  WideEventKind unused;
  EXPECT_FALSE(WideEventKindFromName("nope", &unused));
  EXPECT_FALSE(WideEventKindFromName("", &unused));
}

TEST_F(EventLogTest, InjectedClockDrivesTimestamps) {
  SetClockForTest(+[]() -> std::uint64_t { return 123456789ull; });
  EXPECT_EQ(NowNs(), 123456789ull);
  SetClockForTest(nullptr);
  EXPECT_GT(NowNs(), 0u);
}

// The one emission path: the caller's measured duration, one clock read,
// start_ns back-dated from it, and nothing built while disabled.
TEST_F(EventLogTest, EmitFinishedStampsStartFromOneClockRead) {
  EventLog& log = EventLog::Instance();
  bool filled = false;
  EXPECT_EQ(log.EmitFinished(WideEventKind::kStoreFlush, 1.0,
                             [&filled](WideEvent&) { filled = true; }),
            0u);
  EXPECT_FALSE(filled);  // disabled: the fill never runs

  static std::atomic<int> reads{0};
  reads.store(0);
  SetClockForTest(+[]() -> std::uint64_t {
    reads.fetch_add(1);
    return 10'000'000ull;
  });
  log.Enable();
  const std::uint64_t id = log.EmitFinished(
      WideEventKind::kStoreFlush, 0.004, [](WideEvent& ev) {
        ev.set_key("flushed");
        ev.outcome = "error";
      });
  EXPECT_EQ(reads.load(), 1);
  ASSERT_GT(id, 0u);
  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, id);
  EXPECT_EQ(events[0].kind, WideEventKind::kStoreFlush);
  EXPECT_STREQ(events[0].key, "flushed");
  EXPECT_STREQ(events[0].outcome, "error");
  EXPECT_EQ(events[0].dur_ns, 4000u);
  EXPECT_EQ(events[0].start_ns, 10'000'000u - 4000u);
  EXPECT_EQ(events[0].tid, ThisThreadId());

  // A duration longer than the clock's reading clamps the start to 0.
  log.EmitFinished(WideEventKind::kStoreFlush, 20.0, [](WideEvent&) {});
  EXPECT_EQ(log.Snapshot().at(0).start_ns, 0u);
}

// Hammer for TSan: many pool threads emitting concurrently with snapshot
// readers and a drain. The assertions are deliberately coarse (no lost
// ids among survivors + drop accounting consistent); the point is that
// TSan sees concurrent Emit/Snapshot/Drain on shared rings.
TEST_F(EventLogTest, ConcurrentEmitSnapshotDrainFromThreadPool) {
  EventLog& log = EventLog::Instance();
  log.Enable(/*events_per_thread=*/256);
  const std::uint64_t dropped_before = log.total_dropped();  // cumulative
  constexpr int kJobs = 32;
  constexpr int kEventsPerJob = 200;

  ThreadPool pool(8);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = log.Snapshot();
      for (const WideEvent& e : snap) {
        ASSERT_GT(e.id, 0u);
      }
    }
  });

  std::vector<std::future<void>> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(pool.Submit([&log, j] {
      for (int i = 0; i < kEventsPerJob; ++i) {
        WideEvent ev;
        ev.kind = WideEventKind::kRefit;
        ev.set_key(("job/" + std::to_string(j)).c_str());
        ev.AddAttr("i", static_cast<double>(i));
        log.Emit(ev);
      }
    }));
  }
  for (auto& f : jobs) f.get();
  stop.store(true);
  reader.join();

  const auto events = log.Drain();
  std::set<std::uint64_t> ids;
  for (const WideEvent& e : events) ids.insert(e.id);
  EXPECT_EQ(ids.size(), events.size());  // ids unique across all rings
  EXPECT_EQ(events.size() + (log.total_dropped() - dropped_before),
            static_cast<std::size_t>(kJobs) * kEventsPerJob);
}

}  // namespace
}  // namespace capplan::obs
