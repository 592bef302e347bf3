#include "service/journal.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace capplan::service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(JournalEventTest, SerializeParseRoundTripAllKinds) {
  const std::vector<JournalEvent> events = {
      {1000, EventKind::kTick, "", {}},
      {1001,
       EventKind::kFitOk,
       "cdbm011/cpu",
       {"HES", "ETS(A,Ad,A)[24]", "1.5", "3.2", "900", "1000", "3600", "0.95",
        "1;2;3", "0.5;1.5;2.5", "1.5;2.5;3.5"}},
      {1002, EventKind::kFitFail, "cdbm012/io", {"2", "5000", "fit blew up"}},
      {1003, EventKind::kQuarantine, "cdbm012/io", {}},
      {1004, EventKind::kRelease, "cdbm012/io", {}},
      {1005, EventKind::kAlert, "cdbm011/cpu", {"mean", "9999"}},
      {1006, EventKind::kAlertClear, "cdbm011/cpu", {}},
      {1007, EventKind::kSnapshot, "", {}},
  };
  for (const auto& event : events) {
    auto parsed = JournalEvent::Parse(event.Serialize());
    ASSERT_TRUE(parsed.ok()) << event.Serialize();
    EXPECT_EQ(parsed->epoch, event.epoch);
    EXPECT_EQ(parsed->kind, event.kind);
    EXPECT_EQ(parsed->key, event.key);
    EXPECT_EQ(parsed->fields, event.fields);
  }
}

TEST(JournalEventTest, SeparatorCharactersAreSanitized) {
  JournalEvent event{7, EventKind::kFitFail, "a|b", {"line1\nline2"}};
  const std::string line = event.Serialize();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = JournalEvent::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->key, "a/b");
  ASSERT_EQ(parsed->fields.size(), 1u);
  EXPECT_EQ(parsed->fields[0], "line1/line2");
}

TEST(JournalEventTest, MalformedLinesRejected) {
  EXPECT_FALSE(JournalEvent::Parse("").ok());
  EXPECT_FALSE(JournalEvent::Parse("v1|123").ok());           // too short
  EXPECT_FALSE(JournalEvent::Parse("v2|123|tick|").ok());     // bad version
  EXPECT_FALSE(JournalEvent::Parse("v1|xyz|tick|").ok());     // bad epoch
  EXPECT_FALSE(JournalEvent::Parse("v1|123|frobnicate|").ok());  // bad kind
}

TEST(EventJournalTest, AppendThenReadBack) {
  const std::string path = TempPath("journal_roundtrip.log");
  std::remove(path.c_str());
  {
    auto journal = EventJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(Event{1, "", TickEvent{}}).ok());
    ASSERT_TRUE(
        journal->Append(Event{2, "k", AlertEvent{false, 77}}).ok());
  }
  // Reopening appends rather than truncating.
  {
    auto journal = EventJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(Event{3, "", TickEvent{}}).ok());
  }
  auto events = ReadJournal(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].epoch, 1);
  EXPECT_EQ((*events)[1].kind, EventKind::kAlert);
  EXPECT_EQ((*events)[1].fields[1], "77");
  EXPECT_EQ((*events)[2].epoch, 3);
  std::remove(path.c_str());
}

TEST(EventJournalTest, MissingFileReadsEmpty) {
  auto events = ReadJournal(TempPath("no_such_journal.log"));
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(EventJournalTest, TornFinalLineIsTolerated) {
  const std::string path = TempPath("journal_torn.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << JournalEvent{2, EventKind::kTick, "", {}}.Serialize() << "\n";
    out << "v1|3|ti";  // crash mid-append: no newline, truncated kind
  }
  auto events = ReadJournal(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].epoch, 2);
  std::remove(path.c_str());
}

TEST(EventJournalTest, MalformedInteriorLineIsAnError) {
  const std::string path = TempPath("journal_garbage.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "this is not a journal\n";
    out << JournalEvent{1, EventKind::kTick, "", {}}.Serialize() << "\n";
  }
  EXPECT_FALSE(ReadJournal(path).ok());
  std::remove(path.c_str());
}

// One valid v2 line per event kind, in the encoder's exact formatting.
const std::vector<std::string>& ValidLines() {
  static const std::vector<std::string> lines = {
      "v2|1000|tick|0|",
      "v2|1001|fit_ok|7|cdbm011/cpu|HES|ETS(A,Ad,A)[24]|1.5|3.25|900|1000|"
      "3600|0.94999999999999996|1;2;3|0.5;1.5;2.5|1.5;2.5;3.5|1|0.75|2|1001|"
      "0.25;-0.5||24;168|4.5",
      "v2|1002|fit_fail|7|cdbm012/io|2|5000|fit blew up",
      "v2|1003|quarantine|7|cdbm012/io",
      "v2|1004|release|0|cdbm012/io",
      "v2|1005|alert|0|cdbm011/cpu|upper|9999",
      "v2|1006|alert_clear|0|cdbm011/cpu",
      "v2|1007|snapshot|0|",
      "v2|1008|quality|7|cdbm011/cpu|0.875|0|missing=12;long_outages=1",
      "v2|1009|promotion|7|cdbm011/cpu|reject|HES|ETS(A,N,N)|1000000|4.5|"
      "1200",
      "v2|1010|rollback|3|cdbm011/cpu|HES|ETS(A,N,N)|1.5|3.25|900|1|950|4.5|"
      "0.25||1000|3600|0.94999999999999996|1;2|0.5;1.5|1.5;2.5|2|-1|24",
  };
  return lines;
}

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> parts;
  std::stringstream in(line);
  std::string part;
  while (std::getline(in, part, '|')) parts.push_back(part);
  if (!line.empty() && line.back() == '|') parts.push_back("");
  return parts;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += '|';
    out += parts[i];
  }
  return out;
}

// The valid line of `kind` with payload field `index` replaced.
std::string WithField(EventKind kind, std::size_t index,
                      const std::string& value) {
  auto parts = Split(ValidLines()[static_cast<std::size_t>(kind)]);
  parts.at(5 + index) = value;
  return Join(parts);
}

std::string WithExtraField(EventKind kind) {
  return ValidLines()[static_cast<std::size_t>(kind)] + "|1";
}

std::string WithoutLastField(EventKind kind) {
  auto parts = Split(ValidLines()[static_cast<std::size_t>(kind)]);
  parts.pop_back();
  return Join(parts);
}

TEST(JournalDecodeTest, EveryKindDecodesAndReencodesByteEqual) {
  ASSERT_EQ(ValidLines().size(),
            static_cast<std::size_t>(EventKind::kRollback) + 1);
  for (std::size_t i = 0; i < ValidLines().size(); ++i) {
    const std::string& line = ValidLines()[i];
    auto event = Event::Parse(line);
    ASSERT_TRUE(event.ok()) << line << ": " << event.status().ToString();
    EXPECT_EQ(static_cast<std::size_t>(event->kind()), i) << line;
    EXPECT_EQ(event->Serialize(), line);
  }
}

TEST(JournalDecodeTest, TypedFieldsLandInTheirMembers) {
  auto fit = Event::Parse(ValidLines()[1]);
  ASSERT_TRUE(fit.ok());
  const auto& ok = std::get<FitOkEvent>(fit->payload);
  EXPECT_EQ(fit->span_id, 7u);
  EXPECT_EQ(ok.model.spec, "ETS(A,Ad,A)[24]");
  EXPECT_EQ(ok.forecast.forecast.mean, (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(ok.forecast.degradation, core::DegradationLevel::kHesOnly);
  EXPECT_EQ(ok.model.generation, 2);
  EXPECT_EQ(ok.model.ar_coef, (std::vector<double>{0.25, -0.5}));
  EXPECT_TRUE(ok.model.ma_coef.empty());
  EXPECT_EQ(ok.model.periods, (std::vector<double>{24, 168}));
  EXPECT_EQ(ok.demoted_live_mape, 4.5);

  auto rollback = Event::Parse(ValidLines()[10]);
  ASSERT_TRUE(rollback.ok());
  const auto& rb = std::get<RollbackEvent>(rollback->payload);
  EXPECT_EQ(rb.model.generation, 1);
  EXPECT_EQ(rb.model.live_mape, 4.5);
  EXPECT_EQ(rb.forecast.degradation, core::DegradationLevel::kSes);
  EXPECT_EQ(rb.next_due, -1);
  EXPECT_EQ(rb.model.periods, (std::vector<double>{24}));
  // 18 fields: the layout before periods rode along.
  auto pre_periods = Event::Parse(WithoutLastField(EventKind::kRollback));
  ASSERT_TRUE(pre_periods.ok()) << pre_periods.status().ToString();
  EXPECT_TRUE(std::get<RollbackEvent>(pre_periods->payload)
                  .model.periods.empty());

  auto alert = Event::Parse(ValidLines()[5]);
  ASSERT_TRUE(alert.ok());
  EXPECT_TRUE(std::get<AlertEvent>(alert->payload).upper_only);
}

TEST(JournalDecodeTest, HostileFieldsAreIoErrorsNeverAborts) {
  using K = EventKind;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"tick extra field", WithExtraField(K::kTick)},
      {"quarantine extra field", WithExtraField(K::kQuarantine)},
      {"release extra field", WithExtraField(K::kRelease)},
      {"alert_clear extra field", WithExtraField(K::kAlertClear)},
      {"snapshot extra field", WithExtraField(K::kSnapshot)},
      {"fit_ok 20 fields", WithExtraField(K::kFitOk)},
      {"fit_ok 18 fields", WithoutLastField(K::kFitOk)},
      {"fit_ok 12 fields",
       "v2|1|fit_ok|0|k|HES|s|1|2|3|4|3600|0.95|1|1|1|0"},
      {"fit_ok non-numeric rmse", WithField(K::kFitOk, 2, "1.5x")},
      {"fit_ok blank-padded epoch", WithField(K::kFitOk, 4, " 900")},
      {"fit_ok empty number", WithField(K::kFitOk, 3, "")},
      {"fit_ok empty mean element", WithField(K::kFitOk, 8, "1;;3")},
      {"fit_ok trailing separator", WithField(K::kFitOk, 9, "0.5;")},
      {"fit_ok lone separator", WithField(K::kFitOk, 10, ";")},
      {"fit_ok degradation too high", WithField(K::kFitOk, 11, "4")},
      {"fit_ok degradation negative", WithField(K::kFitOk, 11, "-1")},
      {"fit_ok degradation not a number", WithField(K::kFitOk, 11, "full")},
      {"fit_ok generation overflow",
       WithField(K::kFitOk, 13, "99999999999999999999")},
      {"fit_ok non-numeric coefficient", WithField(K::kFitOk, 15, "0.25;x")},
      {"fit_ok non-numeric demoted mape", WithField(K::kFitOk, 18, "none")},
      {"fit_fail 2 fields", WithoutLastField(K::kFitFail)},
      {"fit_fail 4 fields", WithExtraField(K::kFitFail)},
      {"fit_fail non-numeric count", WithField(K::kFitFail, 0, "two")},
      {"fit_fail fractional due", WithField(K::kFitFail, 1, "5000.5")},
      {"alert 1 field", WithoutLastField(K::kAlert)},
      {"alert 3 fields", WithExtraField(K::kAlert)},
      {"alert unknown bound", WithField(K::kAlert, 0, "sideways")},
      {"alert non-numeric epoch", WithField(K::kAlert, 1, "99x")},
      {"quality 2 fields", WithoutLastField(K::kQuality)},
      {"quality bad flag", WithField(K::kQuality, 1, "yes")},
      {"quality empty score", WithField(K::kQuality, 0, "")},
      {"promotion 5 fields", WithoutLastField(K::kPromotion)},
      {"promotion non-numeric mape", WithField(K::kPromotion, 3, "abc")},
      {"promotion non-numeric due", WithField(K::kPromotion, 5, "soon")},
      {"rollback 17 fields",
       "v2|1|rollback|0|k|HES|s|1|2|3|1|3|4|||1000|3600|0.95|1|1|1|2"},
      {"rollback 20 fields", WithExtraField(K::kRollback)},
      {"rollback non-numeric generation", WithField(K::kRollback, 5, "1.5")},
      {"rollback bad live mape", WithField(K::kRollback, 7, "1e")},
      {"rollback empty ma element", WithField(K::kRollback, 9, "1;")},
      {"rollback degradation out of range", WithField(K::kRollback, 16, "9")},
      {"rollback non-numeric next_due", WithField(K::kRollback, 17, "-")},
      {"rollback empty period element", WithField(K::kRollback, 18, "24;")},
  };
  for (const auto& [why, line] : cases) {
    ASSERT_TRUE(JournalEvent::Parse(line).ok()) << why << ": " << line;
    auto event = Event::Parse(line);
    ASSERT_FALSE(event.ok()) << why << ": " << line;
    EXPECT_EQ(event.status().code(), StatusCode::kIoError) << why;
  }
}

TEST(JournalDecodeTest, LegacyFitOkLayoutsKeepDecoding) {
  const std::string head =
      "|fit_ok|0|k|HES|ETS(A,N,N)|1.5|3.25|900|1000|3600|0.95|1;2|0.5;1.5|"
      "1.5;2.5";
  // 11 fields: the pre-ladder layout, full rung, no lineage.
  auto pre_ladder = Event::Parse("v2|1001" + head);
  ASSERT_TRUE(pre_ladder.ok()) << pre_ladder.status().ToString();
  const auto& a = std::get<FitOkEvent>(pre_ladder->payload);
  EXPECT_EQ(a.forecast.degradation, core::DegradationLevel::kFull);
  EXPECT_EQ(a.model.generation, 0);
  EXPECT_EQ(a.demoted_live_mape, -1.0);
  // 13 fields: degradation + quality score, still no lineage.
  auto pre_lineage = Event::Parse("v2|1001" + head + "|2|0.5");
  ASSERT_TRUE(pre_lineage.ok());
  const auto& b = std::get<FitOkEvent>(pre_lineage->payload);
  EXPECT_EQ(b.forecast.degradation, core::DegradationLevel::kSes);
  EXPECT_EQ(b.quality_score, 0.5);
  EXPECT_EQ(b.model.generation, 0);
  // 15 fields: lineage, but no coefficients, periods or demoted live MAPE.
  auto pre_warm = Event::Parse("v2|1001" + head + "|2|0.5|3|1001");
  ASSERT_TRUE(pre_warm.ok());
  const auto& c = std::get<FitOkEvent>(pre_warm->payload);
  EXPECT_EQ(c.model.generation, 3);
  EXPECT_EQ(c.model.promoted_at_epoch, 1001);
  EXPECT_TRUE(c.model.ar_coef.empty());
  EXPECT_TRUE(c.model.periods.empty());
  EXPECT_EQ(c.demoted_live_mape, -1.0);
  // Re-encoding writes the current 19-field layout.
  EXPECT_EQ(JournalEvent::Parse(pre_warm->Serialize())->fields.size(), 19u);
}

TEST(JournalDecodeTest, V1LinesDecodeWithoutSpan) {
  auto fit = Event::Parse(
      "v1|1001|fit_ok|k|HES|ETS(A,N,N)|1.5|3.25|900|1000|3600|0.95|1;2|"
      "0.5;1.5|1.5;2.5");
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->span_id, 0u);
  EXPECT_EQ(fit->key, "k");
  EXPECT_EQ(std::get<FitOkEvent>(fit->payload).model.fitted_at_epoch, 900);
  auto alert = Event::Parse("v1|1005|alert|k|mean|9999");
  ASSERT_TRUE(alert.ok());
  EXPECT_EQ(std::get<AlertEvent>(alert->payload).predicted_breach_epoch,
            9999);
  // Re-encoding upgrades to v2 with span 0.
  EXPECT_EQ(alert->Serialize(), "v2|1005|alert|0|k|mean|9999");
}

TEST(JournalDecodeTest, ReadEventsTreatsUndecodableTailAsTorn) {
  const std::string path = TempPath("journal_typed_torn.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << ValidLines()[0] << "\n" << ValidLines()[5] << "\n";
    // A crash mid-append can cut a line inside its payload: the line still
    // splits, but the payload is short.
    out << "v2|1009|fit_ok|0|k|HES|ETS";
  }
  auto events = ReadEvents(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].kind(), EventKind::kAlert);
  {
    std::ofstream out(path, std::ios::app);
    out << "\n" << ValidLines()[0] << "\n";  // now an interior line
  }
  EXPECT_FALSE(ReadEvents(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capplan::service
