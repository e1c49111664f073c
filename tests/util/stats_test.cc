#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace lupine {
namespace {

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
}

TEST(AccumulatorTest, MeanMinMaxSum) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(PercentileTest, NearestRankInterpolation) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
}

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(StreamingPercentilesTest, ExactUnderCapacity) {
  StreamingPercentiles sp(100);
  for (int i = 1; i <= 100; ++i) {
    sp.Add(static_cast<double>(i));
  }
  EXPECT_EQ(sp.count(), 100u);
  EXPECT_EQ(sp.retained(), 100u);
  // Retained everything: quantiles match the exact Percentile helper.
  EXPECT_DOUBLE_EQ(sp.p50(), 50.5);
  EXPECT_NEAR(sp.p95(), 95.0, 0.1);
  EXPECT_NEAR(sp.p99(), 99.0, 0.1);
}

TEST(StreamingPercentilesTest, EmptyQuantilesAreZero) {
  StreamingPercentiles sp;
  EXPECT_EQ(sp.count(), 0u);
  EXPECT_EQ(sp.Quantile(50), 0.0);
}

TEST(StreamingPercentilesTest, DecimationBoundsMemoryAndStaysAccurate) {
  constexpr size_t kCapacity = 256;
  StreamingPercentiles sp(kCapacity);
  constexpr int kN = 100000;
  for (int i = 1; i <= kN; ++i) {
    sp.Add(static_cast<double>(i));
  }
  EXPECT_EQ(sp.count(), static_cast<size_t>(kN));
  EXPECT_LE(sp.retained(), kCapacity);
  EXPECT_GT(sp.retained(), kCapacity / 4);  // Decimation keeps, not discards.
  // Systematic sampling over a uniform ramp: quantiles stay within a couple
  // of strides of the true values.
  EXPECT_NEAR(sp.p50(), kN * 0.50, kN * 0.02);
  EXPECT_NEAR(sp.p95(), kN * 0.95, kN * 0.02);
  EXPECT_NEAR(sp.p99(), kN * 0.99, kN * 0.02);
}

TEST(StreamingPercentilesTest, DeterministicAcrossIdenticalStreams) {
  StreamingPercentiles a(64), b(64);
  for (int i = 0; i < 10000; ++i) {
    const double x = static_cast<double>((i * 37) % 1000);
    a.Add(x);
    b.Add(x);
  }
  EXPECT_EQ(a.retained(), b.retained());
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p95(), b.p95());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
}

TEST(StreamingPercentilesTest, TinyCapacityNeverOverflows) {
  StreamingPercentiles sp(1);
  for (int i = 0; i < 100; ++i) {
    sp.Add(static_cast<double>(i));
  }
  EXPECT_LE(sp.retained(), 1u);
  EXPECT_EQ(sp.count(), 100u);
}

}  // namespace
}  // namespace lupine
