#include "src/util/prng.h"

#include <gtest/gtest.h>

#include <set>

namespace lupine {
namespace {

TEST(PrngTest, DeterministicForSameSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(PrngTest, NextBelowStaysInRange) {
  Prng rng(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, BoolProbabilityRoughlyRespected) {
  Prng rng(9);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) {
      ++trues;
    }
  }
  EXPECT_NEAR(trues / 10000.0, 0.25, 0.03);
}

TEST(PrngTest, ForkProducesIndependentStream) {
  Prng a(5);
  Prng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

}  // namespace
}  // namespace lupine
