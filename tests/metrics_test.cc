// Metrics tests: recorders, registry warmup reset, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "metrics/recorders.h"
#include "metrics/report.h"

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
