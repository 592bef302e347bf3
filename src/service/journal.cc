#include "service/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/fault.h"

namespace capplan::service {

namespace {

constexpr char kSeparator = '|';
constexpr const char* kVersionV1 = "v1";  // epoch|kind|key|fields...
constexpr const char* kVersion = "v2";    // epoch|kind|span|key|fields...

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> parts;
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(line.find(kSeparator, begin), line.size());
    parts.push_back(line.substr(begin, end - begin));
    if (end == line.size()) return parts;
    begin = end + 1;
  }
}

template <std::size_t I = 0>
Result<EventPayload> DecodePayload(EventKind kind,
                                   const std::vector<std::string>& fields) {
  if constexpr (I < std::variant_size_v<EventPayload>) {
    if (static_cast<std::size_t>(kind) != I) {
      return DecodePayload<I + 1>(kind, fields);
    }
    using T = std::variant_alternative_t<I, EventPayload>;
    auto payload = DecodeFields<T>(fields);
    if (!payload.ok()) {
      return Status::IoError("journal: " + std::string(EventKindName(kind)) +
                             ": " + payload.status().message());
    }
    return EventPayload(std::in_place_index<I>, std::move(*payload));
  } else {
    return Status::IoError("journal: unknown event kind");
  }
}

// Shared by both readers: only the torn tail of a crashed append may fail to
// parse; a bad line followed by good ones means the file is not a journal.
template <class T>
Result<std::vector<T>> ReadLines(const std::string& path,
                                 Result<T> (*parse)(const std::string&)) {
  std::ifstream in(path);
  std::vector<T> events;
  if (!in.is_open()) return events;  // no journal yet: nothing to replay
  std::string line;
  bool saw_garbage = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto event = parse(line);
    if (!event.ok()) {
      saw_garbage = true;
      continue;
    }
    if (saw_garbage) {
      return Status::IoError("journal: malformed interior line in " + path);
    }
    events.push_back(std::move(*event));
  }
  return events;
}

// Indexed by EventKind, like EventPayload's alternatives.
constexpr const char* kKindNames[] = {
    "tick",        "fit_ok",   "fit_fail", "quarantine", "release",  "alert",
    "alert_clear", "snapshot", "quality",  "promotion",  "rollback"};
static_assert(std::size(kKindNames) == std::variant_size_v<EventPayload> &&
                  std::size(kKindNames) == 1 + int(EventKind::kRollback),
              "one name and one typed payload per EventKind");

// The line's head: version, epoch, kind, span id and key.
FieldWriter BeginLine(std::string* line, std::int64_t epoch, EventKind kind,
                      std::uint64_t span_id, const std::string& key) {
  FieldWriter fields(line, FieldFormat::kJournal);
  fields(kVersion, epoch, EventKindName(kind), span_id, key);
  return fields;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i] : "?";
}

Result<EventKind> ParseEventKind(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  return Status::InvalidArgument("journal: unknown event kind '" + name + "'");
}

std::string JournalEvent::Serialize() const {
  std::string line;
  FieldWriter out = BeginLine(&line, epoch, kind, span_id, key);
  for (const std::string& f : fields) out(f);
  return line;
}

Result<JournalEvent> JournalEvent::Parse(const std::string& line) {
  std::vector<std::string> parts = SplitLine(line);
  const bool v1 = !parts.empty() && parts[0] == kVersionV1;
  const bool v2 = !parts.empty() && parts[0] == kVersion;
  if ((!v1 && !v2) || parts.size() < (v2 ? 5u : 4u)) {
    return Status::InvalidArgument("journal: malformed line");
  }
  JournalEvent event;
  if (!ParseNumber(parts[1], &event.epoch)) {
    return Status::InvalidArgument("journal: bad epoch in line");
  }
  CAPPLAN_ASSIGN_OR_RETURN(event.kind, ParseEventKind(parts[2]));
  const std::size_t key_at = v2 ? 4 : 3;
  if (v2 && !ParseNumber(parts[3], &event.span_id)) {
    return Status::InvalidArgument("journal: bad span id in line");
  }
  event.key = parts[key_at];
  event.fields.assign(parts.begin() + static_cast<std::ptrdiff_t>(key_at) + 1,
                      parts.end());
  return event;
}

void Event::AppendLine(std::string* line) const {
  FieldWriter out = BeginLine(line, epoch, kind(), span_id, key);
  std::visit([&](const auto& p) { out(p); }, payload);
}

std::string Event::Serialize() const {
  std::string line;
  AppendLine(&line);
  return line;
}

Result<Event> Event::Parse(const std::string& line) {
  CAPPLAN_ASSIGN_OR_RETURN(JournalEvent raw, JournalEvent::Parse(line));
  CAPPLAN_ASSIGN_OR_RETURN(EventPayload payload,
                           DecodePayload(raw.kind, raw.fields));
  return Event{raw.epoch, raw.key, std::move(payload), raw.span_id};
}

Result<EventJournal> EventJournal::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("journal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  EventJournal journal;
  journal.path_ = path;
  journal.file_.reset(f);
  return journal;
}

Status EventJournal::Append(const Event& event) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal: not open");
  }
  CAPPLAN_RETURN_NOT_OK(FaultHit("journal.append"));
  line_.clear();
  event.AppendLine(&line_);
  line_.push_back('\n');
  if (FaultFires("journal.torn")) {
    // A crash mid-append: a prefix of the line reaches the disk with no
    // newline, and the caller sees the write fail. ReadJournal must treat
    // the torn tail as absent.
    std::fwrite(line_.data(), 1, line_.size() / 2, file_.get());
    std::fflush(file_.get());
    return Status::IoError("journal: torn write to " + path_);
  }
  if (std::fwrite(line_.data(), 1, line_.size(), file_.get()) !=
      line_.size()) {
    return Status::IoError("journal: short write to " + path_);
  }
  if (std::fflush(file_.get()) != 0) {
    return Status::IoError("journal: flush failed for " + path_);
  }
  return Status::OK();
}

Result<std::vector<JournalEvent>> ReadJournal(const std::string& path) {
  return ReadLines<JournalEvent>(path, &JournalEvent::Parse);
}

Result<std::vector<Event>> ReadEvents(const std::string& path) {
  return ReadLines<Event>(path, &Event::Parse);
}

}  // namespace capplan::service
