#ifndef CAPPLAN_COMMON_FIELDS_H_
#define CAPPLAN_COMMON_FIELDS_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/number_format.h"
#include "common/result.h"

namespace capplan {

// Field codecs for the durable line and row formats (journal events,
// snapshot and registry CSV rows). A record declares its layout once, in a
// Fields(f) member that lists its fields in order — f(a, b, ...) — and the
// visitors below walk that one list to encode, decode or count; a member
// that is itself a record contributes its own fields in place. The writer
// appends straight into the caller's line or row buffer. Numbers are
// written by std::to_chars at 17 significant digits, which gives the same
// bytes as printf's %.17g (doubles round-trip exactly; see
// common/number_format.h); vectors are ';'-joined ("" = empty). The reader
// is strict: anything but exactly one number per field or vector element,
// an out-of-range enum or an unknown flag word is an IoError, never an
// abort.

// A bool written as one of two words.
struct Flag {
  bool& value;
  const char* if_true;
  const char* if_false;
};

// An enum written as its integer value, valid in [0, max].
template <class E>
struct Enum {
  E& value;
  E max;
};

// Exactly one number spanning all of `text` (no blanks, no trailing bytes).
template <class T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

// A record that lays its fields out through Fields(F&).
template <class T, class F>
concept HasFields = requires(T& record, F& f) { record.Fields(f); };

// The two line formats, each with its separator and its way of keeping a
// text field from breaking the line.
enum class FieldFormat {
  kCsv,      // ','; a field holding ',', '"' or '\n' is quoted, '"' doubled
  kJournal,  // '|'; '|', '\n' and '\r' inside a field become '/'
};

// Appends fields to `*out`, separated per `format`; the first field gets
// no separator before it.
class FieldWriter {
 public:
  FieldWriter(std::string* out, FieldFormat format)
      : out_(out), format_(format) {}
  template <class... T>
  void operator()(const T&... v) {
    (Write(v), ...);
  }

 private:
  void Separate() {
    if (any_) out_->push_back(format_ == FieldFormat::kCsv ? ',' : '|');
    any_ = true;
  }
  void Write(std::string_view v);
  void Write(double v) {
    Separate();
    AppendDouble(out_, v);
  }
  template <class T>
    requires std::is_integral_v<T>
  void Write(T v) {
    Separate();
    AppendInteger(out_, v);
  }
  void Write(const std::vector<double>& v);
  void Write(const Flag& v) { Write(v.value ? v.if_true : v.if_false); }
  template <class E>
  void Write(const Enum<E>& v) {
    Write(static_cast<int>(v.value));
  }
  // Fields() serves both directions, hence non-const; the writer only reads.
  template <class R>
    requires HasFields<R, FieldWriter>
  void Write(const R& record) {
    const_cast<R&>(record).Fields(*this);
  }

  std::string* out_;
  FieldFormat format_;
  bool any_ = false;
};

// Counts the fields of a layout.
class FieldCounter {
 public:
  template <class... T>
  void operator()(const T&... v) {
    (Count(v), ...);
  }
  std::size_t count() const { return count_; }

 private:
  template <class T>
  void Count(const T& v) {
    if constexpr (HasFields<T, FieldCounter>) {
      const_cast<T&>(v).Fields(*this);
    } else {
      ++count_;
    }
  }
  std::size_t count_ = 0;
};

class FieldReader {
 public:
  explicit FieldReader(const std::vector<std::string>& fields)
      : fields_(fields) {}
  template <class... T>
  void operator()(T&&... v) {
    (Read(v), ...);
  }
  const Status& status() const { return status_; }

 private:
  void Read(std::string& v);
  template <class T>
    requires std::is_arithmetic_v<T>
  void Read(T& v) {
    if (const std::string* f = Next(); f && !ParseNumber(*f, &v)) {
      Fail("number");
    }
  }
  void Read(std::vector<double>& v);
  void Read(const Flag& v);
  template <class R>
    requires HasFields<R, FieldReader>
  void Read(R& record) {
    record.Fields(*this);
  }
  template <class E>
  void Read(const Enum<E>& v) {
    int i = static_cast<int>(v.value);
    Read(i);  // unchanged when the line has ended or the field failed
    if (i < 0 || i > static_cast<int>(v.max)) return Fail("enum value");
    v.value = static_cast<E>(i);
  }
  // The next field, or null once the line has ended (a shorter legacy
  // layout: the remaining members keep their defaults) or a field failed.
  const std::string* Next();
  void Fail(const std::string& what);

  const std::vector<std::string>& fields_;
  std::size_t pos_ = 0;
  Status status_;
};

// Whether `n` fields is T's full layout or one of T::kLegacyArities, the
// older, shorter layouts T still decodes (trailing members keep defaults).
template <class T>
bool KnownArity(std::size_t n) {
  FieldCounter full;
  T().Fields(full);
  bool known = n == full.count();
  if constexpr (requires { T::kLegacyArities; }) {
    for (std::size_t legacy : T::kLegacyArities) known |= n == legacy;
  }
  return known;
}

template <class T>
Result<T> DecodeFields(const std::vector<std::string>& fields) {
  if (!KnownArity<T>(fields.size())) {
    return Status::IoError("unexpected field count " +
                           std::to_string(fields.size()));
  }
  T record;
  FieldReader reader(fields);
  record.Fields(reader);
  if (!reader.status().ok()) return reader.status();
  return record;
}

}  // namespace capplan

#endif  // CAPPLAN_COMMON_FIELDS_H_
