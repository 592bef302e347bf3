#include "store/tiered_store.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/metrics.h"

namespace capplan::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TieredStoreOptions SmallBlocks() {
  TieredStoreOptions options;
  options.series.seal_threshold = 16;
  return options;
}

void FillStore(TieredStore* store, std::size_t n_series, std::size_t n) {
  for (std::size_t s = 0; s < n_series; ++s) {
    SeriesStore& series = store->GetOrCreate("series/" + std::to_string(s), 0,
                                             tsa::Frequency::kHourly);
    for (std::size_t i = 0; i < n; ++i) {
      series.Append(static_cast<double>(s * 1000 + i));
    }
  }
}

TEST(TieredStoreTest, RegistryBasics) {
  TieredStore store(SmallBlocks());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Find("a"), nullptr);
  FillStore(&store, 3, 40);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.Contains("series/1"));
  EXPECT_EQ(store.Keys().size(), 3u);
  ASSERT_NE(store.Find("series/2"), nullptr);
  EXPECT_EQ(store.Find("series/2")->size(), 40u);
  store.Erase("series/1");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Contains("series/1"));
  // Erase released its bytes from the accounting.
  store.Erase("series/0");
  store.Erase("series/2");
  EXPECT_EQ(store.stats().hot_bytes, 0u);
  EXPECT_EQ(store.stats().sealed_bytes, 0u);
}

TEST(TieredStoreTest, FlushOpenRoundTrip) {
  const std::string path = TempPath("tiered_roundtrip.capseg");
  TieredStore store(SmallBlocks());
  FillStore(&store, 5, 100);
  ASSERT_TRUE(store.Flush(path).ok());

  TieredStore reopened(SmallBlocks());
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(reopened.size(), 5u);
  for (std::size_t s = 0; s < 5; ++s) {
    const SeriesStore* series = reopened.Find("series/" + std::to_string(s));
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->size(), 100u);
    auto values = series->ReadWindow(0, 100);
    ASSERT_TRUE(values.ok());
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_DOUBLE_EQ((*values)[i], static_cast<double>(s * 1000 + i));
    }
  }
  // Accounting was rebuilt on reopen.
  EXPECT_GT(reopened.stats().sealed_bytes, 0u);
  EXPECT_EQ(reopened.stats().sealed_raw_bytes,
            store.stats().sealed_raw_bytes);
}

// Flush writes each sealed block's seal-time CRC: a block whose payload
// was changed in memory after sealing comes back quarantined (NaN), not
// persisted under a fresh CRC as if it were valid.
TEST(TieredStoreTest, PayloadCorruptedAfterSealIsQuarantinedAtReopen) {
  const std::string path = TempPath("tiered_corrupt_in_memory.capseg");
  TieredStore store(SmallBlocks());
  FillStore(&store, 2, 40);
  SeriesStore* series = store.Find("series/1");
  ASSERT_NE(series, nullptr);
  ASSERT_GE(series->blocks().size(), 2u);
  // A stray write into sealed memory.
  const_cast<SealedBlock&>(series->blocks()[1]).payload[3] ^= 0x10;
  ASSERT_TRUE(store.Flush(path).ok());

  TieredStore reopened(SmallBlocks());
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(reopened.stats().blocks_quarantined, 1u);
  const SeriesStore* back = reopened.Find("series/1");
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->size(), 40u);
  auto values = back->ReadWindow(0, 40);
  ASSERT_TRUE(values.ok());
  for (std::size_t i = 0; i < 40; ++i) {
    if (i >= 16 && i < 32) {
      EXPECT_TRUE(std::isnan((*values)[i])) << i;
    } else {
      EXPECT_DOUBLE_EQ((*values)[i], static_cast<double>(1000 + i)) << i;
    }
  }
  // The other series is whole.
  auto other = reopened.Find("series/0")->ReadWindow(0, 40);
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ((*other)[20], 20.0);
}

TEST(TieredStoreTest, MetricsBindAndUpdate) {
  obs::MetricsRegistry registry;
  TieredStore store(SmallBlocks());
  store.BindMetrics(&registry, "raw");
  FillStore(&store, 2, 50);
  store.SealAll();

  const obs::LabelSet labels = {{"tier", "raw"}};
  EXPECT_GT(registry.GetGauge("capplan_store_sealed_bytes", labels).value(),
            0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("capplan_store_hot_bytes", labels).value(),
                   0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("capplan_store_sealed_raw_bytes", labels).value(),
      100.0 * 8.0);
  EXPECT_GT(
      registry.GetGauge("capplan_store_compression_ratio", labels).value(),
      1.0);
  EXPECT_GT(
      registry.GetCounter("capplan_store_blocks_sealed_total", labels).value(),
      0u);
  EXPECT_GT(registry.GetHistogram("capplan_store_seal_ms", {}, labels).count(),
            0u);
}

TEST(TieredStoreTest, FlushFaultFailsWithoutTouchingDisk) {
  const std::string path = TempPath("tiered_fault.capseg");
  TieredStore store(SmallBlocks());
  FillStore(&store, 2, 40);
  {
    ScopedFault fault("store.flush", FaultPlan::FailN(1));
    EXPECT_FALSE(store.Flush(path).ok());
  }
  // The retry (next snapshot tick, in service terms) succeeds.
  ASSERT_TRUE(store.Flush(path).ok());
  TieredStore reopened(SmallBlocks());
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(reopened.size(), 2u);
}

TEST(TieredStoreTest, ReopenFaultLeavesStoreEmpty) {
  const std::string path = TempPath("tiered_reopen_fault.capseg");
  TieredStore store(SmallBlocks());
  FillStore(&store, 2, 40);
  ASSERT_TRUE(store.Flush(path).ok());

  TieredStore reopened(SmallBlocks());
  {
    ScopedFault fault("store.reopen", FaultPlan::FailN(1));
    EXPECT_FALSE(reopened.Open(path).ok());
  }
  EXPECT_EQ(reopened.size(), 0u);  // caller falls back to a full re-poll
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(reopened.size(), 2u);
}

TEST(TieredStoreTest, OpenReplacesPreviousContent) {
  const std::string path = TempPath("tiered_replace.capseg");
  TieredStore first(SmallBlocks());
  FillStore(&first, 1, 30);
  ASSERT_TRUE(first.Flush(path).ok());

  TieredStore store(SmallBlocks());
  store.GetOrCreate("leftover", 0, tsa::Frequency::kHourly).Append(1.0);
  ASSERT_TRUE(store.Open(path).ok());
  EXPECT_FALSE(store.Contains("leftover"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().hot_bytes,
            store.Find("series/0")->hot_bytes());
}

}  // namespace
}  // namespace capplan::store
