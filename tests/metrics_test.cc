// Metrics tests: recorders, registry warmup reset, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "log_histogram_ref.h"
#include "metrics/recorders.h"
#include "metrics/report.h"
#include "simcore/rng.h"

namespace atcsim::metrics {
namespace {

using namespace sim::time_literals;

TEST(DurationRecorderTest, MeanAndSamples) {
  DurationRecorder r;
  r.record(10_ms);
  r.record(30_ms);
  EXPECT_DOUBLE_EQ(r.mean_seconds(), 0.02);
  EXPECT_EQ(r.count(), 2u);
  EXPECT_EQ(r.histogram().total(), 2u);
  EXPECT_DOUBLE_EQ(r.stats().min(), 0.01);
  EXPECT_DOUBLE_EQ(r.stats().max(), 0.03);
  r.reset();
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.histogram().total(), 0u);
}

TEST(LogHistogramTest, QuantilesWithinQuantizationBound) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 0.001);  // 1ms .. 1s uniform
  // Bucket midpoints are within ±1/(2*kSubBuckets) relative error.
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = 0.001 * (1.0 + q * 999.0);
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.012) << "q=" << q;
  }
}

TEST(LogHistogramTest, OutOfRangeSamplesStayCounted) {
  LogHistogram h;
  h.add(0.0);     // underflow
  h.add(-1.0);    // underflow
  h.add(1e300);   // overflow
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);  // underflow bucket midpoint
  EXPECT_DOUBLE_EQ(h.quantile(1.0), std::ldexp(1.0, LogHistogram::kMaxExp));
}

// ------------------------------------- differential: dense reference walk

/// Seconds drawn log-uniformly over [2^-45, 2^30] s, with about one sample
/// in eight replaced by an edge case: zero, negative, NaN, infinities,
/// subnormals and overflowing values (2^24 s or more).
double draw_seconds(sim::Rng& rng) {
  constexpr double kEdges[] = {
      0.0,
      -1.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      1e-310,
      0x1p24,
      0x1.8p27,
      std::numeric_limits<double>::max(),
  };
  constexpr std::size_t kEdgeCount = sizeof kEdges / sizeof kEdges[0];
  if (rng.next_double() < 0.125) {
    return kEdges[static_cast<std::size_t>(rng.next_double() * kEdgeCount)];
  }
  return std::exp2(rng.uniform(-45.0, 30.0));
}

/// Equal totals and bit-equal quantiles at 1001 evenly spaced q.
void expect_same_quantiles(const LogHistogram& h, const DenseLogHistogram& ref) {
  ASSERT_EQ(h.total(), ref.total());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    ASSERT_EQ(h.quantile(q), ref.quantile(q))
        << "q=" << q << " total=" << h.total();
  }
}

void expect_same_quantiles(const DurationRecorder& r,
                           const DenseDurationRecorder& ref) {
  ASSERT_EQ(r.count(), ref.count());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    ASSERT_EQ(r.quantile_seconds(q), ref.quantile_seconds(q))
        << "q=" << q << " count=" << r.count();
  }
}

TEST(LogHistogramDifferentialTest, MatchesDenseReferenceAcrossReset) {
  LogHistogram h;
  DenseLogHistogram ref;
  ASSERT_NO_FATAL_FAILURE(expect_same_quantiles(h, ref));
  for (const std::uint64_t seed : {11u, 12u}) {
    sim::Rng rng(seed);
    // Small totals put the nearest rank on every edge of the walk; the
    // long stream spans every octave, both out-of-range counters and more
    // octaves than the histogram reserves.
    for (int n = 1; n <= 20'000; ++n) {
      const double v = draw_seconds(rng);
      h.add(v);
      ref.add(v);
      if (n <= 16 || n % 4'000 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_same_quantiles(h, ref))
            << "seed " << seed << " after " << n << " samples";
      }
    }
    h.reset();
    ref.reset();
    ASSERT_NO_FATAL_FAILURE(expect_same_quantiles(h, ref));
  }
}

TEST(LogHistogramDifferentialTest, RecorderQuantilesMatchDenseReference) {
  DurationRecorder r;
  DenseDurationRecorder ref;
  for (const std::uint64_t seed : {21u, 22u}) {
    sim::Rng rng(seed);
    for (int n = 1; n <= 20'000; ++n) {
      // Whole nanoseconds from -1 ns to SimTime's largest value.
      const double v = draw_seconds(rng);
      sim::SimTime d = std::numeric_limits<sim::SimTime>::max();
      if (!(v > 0.0)) {
        d = v == 0.0 ? 0 : -1;
      } else if (v < 0x1p33) {
        d = static_cast<sim::SimTime>(v * 1e9);
      }
      r.record(d);
      ref.record(d);
      if (n <= 16 || n % 4'000 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_same_quantiles(r, ref))
            << "seed " << seed << " after " << n << " samples";
      }
    }
    r.reset();
    ref.reset();
    ASSERT_NO_FATAL_FAILURE(expect_same_quantiles(r, ref));
  }
}

TEST(RateCounterTest, RateAgainstSimTime) {
  sim::Simulation s;
  RateCounter c(s);
  c.add(5.0);
  s.run_until(2_s);
  EXPECT_DOUBLE_EQ(c.per_second(), 2.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.per_second(), 0.0);
  c.add(1.0);
  s.run_until(3_s);
  EXPECT_DOUBLE_EQ(c.per_second(), 1.0);  // baselined at reset
}

TEST(RegistryTest, NamedRecordersAreStable) {
  sim::Simulation s;
  MetricsRegistry reg(s);
  reg.durations("a").record(1_ms);
  EXPECT_EQ(&reg.durations("a"), &reg.durations("a"));
  EXPECT_EQ(reg.durations("a").count(), 1u);
  EXPECT_TRUE(reg.has_durations("a"));
  EXPECT_FALSE(reg.has_durations("b"));
}

TEST(RegistryTest, FindersNeverCreate) {
  sim::Simulation s;
  MetricsRegistry reg(s);
  reg.durations("d").record(1_ms);
  reg.latency("l").record(2_ms);
  const MetricsRegistry& readers = reg;
  EXPECT_EQ(readers.find_durations("d"), &reg.durations("d"));
  EXPECT_EQ(readers.find_latency("l"), &reg.latency("l"));
  EXPECT_EQ(readers.find_durations("l"), nullptr);
  EXPECT_EQ(readers.find_latency("d"), nullptr);
  EXPECT_FALSE(reg.has_durations("l"));
}

TEST(RegistryTest, ResetAllClearsEverything) {
  sim::Simulation s;
  MetricsRegistry reg(s);
  reg.durations("d").record(1_ms);
  reg.latency("l").record(2_ms);
  reg.rate("r").add(3.0);
  reg.reset_all();
  EXPECT_EQ(reg.durations("d").count(), 0u);
  EXPECT_EQ(reg.latency("l").count(), 0u);
  EXPECT_DOUBLE_EQ(reg.rate("r").units(), 0.0);
}

TEST(TableTest, AlignedRendering) {
  Table t("demo", {"app", "value"});
  t.add_row({"lu", "0.15"});
  t.add_row({"is", "0.62"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("lu"), std::string::npos);
  EXPECT_NE(out.find("0.62"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t("demo", {"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(),
            "== demo ==\n"
            "a     b  c  \n"
            "------------\n"
            "only        \n"
            "\n");
}

TEST(FmtTest, Formatting) {
  EXPECT_EQ(fmt(0.12345), "0.123");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt_ms(0.3), "0.3ms");
  EXPECT_EQ(fmt_ms(30), "30ms");
}

TEST(FmtTest, RatioIsNotAvailableUnlessBothOperandsArePositive) {
  EXPECT_EQ(fmt_ratio(1.0, 4.0), "0.250");
  EXPECT_EQ(fmt_ratio(3.0, 2.0, 1), "1.5");
  EXPECT_EQ(fmt_ratio(1.0, 0.0), "n/a");
  EXPECT_EQ(fmt_ratio(0.0, 1.0), "n/a");
  EXPECT_EQ(fmt_ratio(0.0, 0.0), "n/a");
  EXPECT_EQ(fmt_ratio(-1.0, 2.0), "n/a");
  EXPECT_EQ(fmt_ratio(std::nan(""), 1.0), "n/a");
}

}  // namespace
}  // namespace atcsim::metrics
