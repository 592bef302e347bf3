#include "common/number_format.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// The durable encoder must write exactly what printf("%.17g") writes, and
// the shortest-form helper exactly what the probe loop it replaced wrote:
// journals, snapshots and scrape bodies keep their bytes. printf and the
// old loop stay here as the references.

namespace capplan {
namespace {

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Printf17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The JSON writer's and the Prometheus exporter's former formatter, for
// finite values.
std::string ProbeLoop(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec < 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Shortest(double v) {
  char buf[kNumberChars];
  return std::string(buf, FormatShortest(buf, v));
}

std::string Durable(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

// Values whose shortest forms are short, and the edges of the encoders.
std::vector<double> EdgeValues() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, inf, -inf, std::nan(""), -std::nan(""),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      9007199254740992.0, 1e15, 1e15 - 1, 1e15 + 0.5, 1e16, 1e17, 1e22,
      1e23, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.95, 5e-324, 1e-310,
      123456.789, 0.000123, 1e-7, 2.5, -2.5, 0.5, 100.25};
  return values;
}

TEST(NumberFormatTest, DurableDoubleMatchesPrintf17gBytes) {
  std::mt19937_64 rng(20261019);
  std::size_t checked = 0;
  for (double v : EdgeValues()) {
    ASSERT_EQ(Durable(v), Printf17g(v)) << "edge value " << Printf17g(v);
    ++checked;
  }
  // Random bit patterns: every exponent, subnormals, NaN payloads.
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    const double v = FromBits(bits);
    ASSERT_EQ(Durable(v), Printf17g(v)) << "bits " << std::hex << bits;
    ++checked;
  }
  // Small decimals, the values a capacity estate mostly holds.
  std::uniform_int_distribution<int> digits(0, 999999);
  std::uniform_int_distribution<int> scale(-12, 12);
  for (int i = 0; i < 100'000; ++i) {
    const double v = digits(rng) * std::pow(10.0, scale(rng));
    ASSERT_EQ(Durable(v), Printf17g(v)) << Printf17g(v);
    ASSERT_EQ(Durable(-v), Printf17g(-v)) << Printf17g(-v);
    checked += 2;
  }
  EXPECT_GE(checked, 1'000'000u);
}

TEST(NumberFormatTest, IntegersAreDecimal) {
  std::string out;
  AppendInteger(&out, std::int64_t{-1563152400});
  out += ' ';
  AppendInteger(&out, std::numeric_limits<std::uint64_t>::max());
  out += ' ';
  AppendInteger(&out, 0);
  EXPECT_EQ(out, "-1563152400 18446744073709551615 0");
}

TEST(NumberFormatTest, ShortestMatchesTheProbeLoop) {
  for (double v : EdgeValues()) {
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(Shortest(v), ProbeLoop(v)) << "edge value " << Printf17g(v);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const double v = FromBits(rng());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(Shortest(v), ProbeLoop(v)) << Printf17g(v);
  }
  std::uniform_int_distribution<int> digits(0, 99999);
  std::uniform_int_distribution<int> scale(-20, 20);
  std::uniform_real_distribution<double> unit(0.0, 1000.0);
  for (int i = 0; i < 50'000; ++i) {
    const double v = digits(rng) * std::pow(10.0, scale(rng));
    ASSERT_EQ(Shortest(v), ProbeLoop(v)) << Printf17g(v);
    ASSERT_EQ(Shortest(-v), ProbeLoop(-v)) << Printf17g(-v);
    const double u = unit(rng);  // latencies, ratios: full-precision noise
    ASSERT_EQ(Shortest(u), ProbeLoop(u)) << Printf17g(u);
  }
}

}  // namespace
}  // namespace capplan
