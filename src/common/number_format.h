#ifndef CAPPLAN_COMMON_NUMBER_FORMAT_H_
#define CAPPLAN_COMMON_NUMBER_FORMAT_H_

#include <charconv>
#include <cstddef>
#include <string>
#include <type_traits>

namespace capplan {

// The two ways numbers become text.
//
// Durable formats (journal lines, snapshot and registry CSVs, series CSVs)
// write every double at 17 significant digits, so it reads back exactly:
// std::to_chars(general, 17), which the standard defines as printf's
// "%.17g" (same bytes, "nan"/"-nan"/"inf"/"-inf" included) at a fraction of
// its cost. Integers are plain decimal.
//
// Text expositions (JSON, Prometheus) write the shortest "%.*g" that reads
// back as the same double, and integral values below 1e15 as "%.0f".

// Room for any one number either function below writes.
inline constexpr std::size_t kNumberChars = 32;

inline void AppendDouble(std::string* out, double v) {
  char buf[kNumberChars];
  const auto r = std::to_chars(buf, buf + kNumberChars, v,
                               std::chars_format::general, 17);
  out->append(buf, static_cast<std::size_t>(r.ptr - buf));
}

template <class T>
  requires std::is_integral_v<T>
void AppendInteger(std::string* out, T v) {
  char buf[kNumberChars];
  const auto r = std::to_chars(buf, buf + kNumberChars, v);
  out->append(buf, static_cast<std::size_t>(r.ptr - buf));
}

// Writes finite `v` at `first` (kNumberChars of room) and returns the end:
// "%.0f" for an integral value below 1e15, otherwise "%.*g" at the least
// precision in [1, 16] that reads back as `v`, else "%.17g".
char* FormatShortest(char* first, double v);

}  // namespace capplan

#endif  // CAPPLAN_COMMON_NUMBER_FORMAT_H_
