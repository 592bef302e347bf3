#include "obs/ring.h"

#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/trace.h"

namespace capplan::obs {
namespace {

// Ring mechanics, tested once on the primitive and instantiated for both
// record types it backs (trace spans and wide events). Each test owns a
// private RingRecorder, so the process-global Tracer/EventLog are untouched.
// Records share one start_ns so the merge's stable sort keeps ring order,
// and carry their sequence number in the record's id field.
template <typename T>
struct RecordTraits;

template <>
struct RecordTraits<TraceEvent> {
  static TraceEvent Make(std::uint64_t seq) {
    TraceEvent e;
    e.span_id = seq;
    return e;
  }
  static std::uint64_t Seq(const TraceEvent& e) { return e.span_id; }
};

template <>
struct RecordTraits<WideEvent> {
  static WideEvent Make(std::uint64_t seq) {
    WideEvent e;
    e.id = seq;
    return e;
  }
  static std::uint64_t Seq(const WideEvent& e) { return e.id; }
};

template <typename T>
class TraceRingTest : public ::testing::Test {
 protected:
  using Traits = RecordTraits<T>;

  static std::vector<std::uint64_t> Seqs(const std::vector<T>& records) {
    std::vector<std::uint64_t> out;
    for (const T& r : records) out.push_back(Traits::Seq(r));
    return out;
  }
  void RecordRange(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t i = first; i <= last; ++i) {
      recorder_.Record(Traits::Make(i));
    }
  }

  RingRecorder<T> recorder_{/*default_capacity=*/16};
};

class RecordTypeNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, TraceEvent> ? "TraceEvent" : "WideEvent";
  }
};

using RecordTypes = ::testing::Types<TraceEvent, WideEvent>;
TYPED_TEST_SUITE(TraceRingTest, RecordTypes, RecordTypeNames);

TYPED_TEST(TraceRingTest, EnableAndDisableToggleTheFlag) {
  EXPECT_FALSE(this->recorder_.enabled());
  this->recorder_.Enable();
  EXPECT_TRUE(this->recorder_.enabled());
  this->recorder_.Disable();
  EXPECT_FALSE(this->recorder_.enabled());
}

TYPED_TEST(TraceRingTest, FullRingKeepsNewestOldestFirst) {
  this->recorder_.Enable(/*capacity_per_thread=*/4);
  this->RecordRange(1, 6);
  const std::vector<std::uint64_t> expected = {3, 4, 5, 6};
  EXPECT_EQ(this->Seqs(this->recorder_.Snapshot()), expected);
  this->RecordRange(7, 9);  // the cursor keeps wrapping
  const std::vector<std::uint64_t> wrapped = {6, 7, 8, 9};
  EXPECT_EQ(this->Seqs(this->recorder_.Drain()), wrapped);
}

TYPED_TEST(TraceRingTest, DropsCountPerDrainAndInTotal) {
  this->recorder_.Enable(/*capacity_per_thread=*/2);
  this->RecordRange(1, 5);
  EXPECT_EQ(this->recorder_.dropped(), 3u);
  EXPECT_EQ(this->recorder_.total_dropped(), 3u);
  EXPECT_EQ(this->recorder_.Drain().size(), 2u);
  EXPECT_EQ(this->recorder_.dropped(), 0u);  // reset by the drain
  EXPECT_EQ(this->recorder_.total_dropped(), 3u);  // cumulative
  this->RecordRange(6, 8);
  EXPECT_EQ(this->recorder_.dropped(), 1u);
  EXPECT_EQ(this->recorder_.total_dropped(), 4u);
}

TYPED_TEST(TraceRingTest, SnapshotLeavesTheRingIntact) {
  this->recorder_.Enable(/*capacity_per_thread=*/2);
  this->RecordRange(1, 3);
  const std::vector<std::uint64_t> expected = {2, 3};
  EXPECT_EQ(this->Seqs(this->recorder_.Snapshot()), expected);
  EXPECT_EQ(this->Seqs(this->recorder_.Snapshot()), expected);
  EXPECT_EQ(this->recorder_.dropped(), 1u);  // not reset by a snapshot
  EXPECT_EQ(this->Seqs(this->recorder_.Drain()), expected);
  EXPECT_TRUE(this->recorder_.Snapshot().empty());
  EXPECT_TRUE(this->recorder_.Drain().empty());
}

TYPED_TEST(TraceRingTest, DrainReclaimsTheRingOfAnExitedThread) {
  this->recorder_.Enable();
  this->RecordRange(1, 1);  // the calling thread's ring stays registered
  std::thread worker([this] { this->RecordRange(2, 3); });
  worker.join();
  EXPECT_EQ(this->recorder_.ring_count(), 2u);
  // The exited thread's records are still reachable...
  EXPECT_EQ(this->recorder_.Snapshot().size(), 3u);
  EXPECT_EQ(this->recorder_.ring_count(), 2u);
  // ...until a drain collects them and forgets the dead ring.
  EXPECT_EQ(this->recorder_.Drain().size(), 3u);
  EXPECT_EQ(this->recorder_.ring_count(), 1u);
  this->RecordRange(4, 4);  // the live ring keeps recording
  EXPECT_EQ(this->Seqs(this->recorder_.Drain()),
            std::vector<std::uint64_t>{4});
}

TYPED_TEST(TraceRingTest, MergesThreadsByStartTime) {
  this->recorder_.Enable();
  auto at = [](std::uint64_t seq, std::uint64_t start_ns) {
    TypeParam r = RecordTraits<TypeParam>::Make(seq);
    r.start_ns = start_ns;
    return r;
  };
  this->recorder_.Record(at(1, 30));
  std::thread worker([&] {
    this->recorder_.Record(at(2, 10));
    this->recorder_.Record(at(3, 40));
  });
  worker.join();
  this->recorder_.Record(at(4, 20));
  const std::vector<std::uint64_t> expected = {2, 4, 1, 3};
  EXPECT_EQ(this->Seqs(this->recorder_.Drain()), expected);
}

TYPED_TEST(TraceRingTest, CapacityIsLatchedWhenAThreadsRingIsCreated) {
  this->recorder_.Enable(/*capacity_per_thread=*/2);
  this->RecordRange(1, 1);
  this->recorder_.Enable(/*capacity_per_thread=*/8);
  this->RecordRange(2, 4);  // this thread's ring still holds 2
  EXPECT_EQ(this->recorder_.Snapshot().size(), 2u);
  std::thread worker([this] { this->RecordRange(5, 8); });  // a new ring
  worker.join();
  EXPECT_EQ(this->recorder_.Drain().size(), 6u);
}

TEST(TraceRingRecorderTest, RecordersOfOneTypeKeepSeparateRings) {
  RingRecorder<WideEvent> a(4), b(4);
  a.Record(RecordTraits<WideEvent>::Make(1));
  b.Record(RecordTraits<WideEvent>::Make(2));
  b.Record(RecordTraits<WideEvent>::Make(3));
  EXPECT_EQ(a.Drain().size(), 1u);
  EXPECT_EQ(b.Drain().size(), 2u);
}

}  // namespace
}  // namespace capplan::obs
