#include "common/number_format.h"

#include <cmath>

namespace capplan {

namespace {

// Significant digits of a shortest scientific form ("1.25e-07": 3).
int SignificantDigits(const char* first, const char* last) {
  int digits = 0;
  for (const char* p = first; p != last && *p != 'e'; ++p) {
    digits += *p >= '0' && *p <= '9';
  }
  return digits;
}

}  // namespace

char* FormatShortest(char* first, double v) {
  char* const last = first + kNumberChars;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_chars(first, last, v, std::chars_format::fixed, 0).ptr;
  }
  // No precision below the shortest round-trip form's digit count can read
  // back as `v`, so the probe starts there.
  const char* const shortest =
      std::to_chars(first, last, v, std::chars_format::scientific).ptr;
  for (int p = SignificantDigits(first, shortest); p < 17; ++p) {
    char* const end =
        std::to_chars(first, last, v, std::chars_format::general, p).ptr;
    double back = 0.0;
    std::from_chars(first, end, back);
    if (back == v) return end;
  }
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}

}  // namespace capplan
