#include "src/util/vclock.h"

#include <gtest/gtest.h>

namespace lupine {
namespace {

TEST(VirtualClockTest, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.Advance(0);
  EXPECT_EQ(clock.now(), 100);
}

TEST(VirtualClockTest, AdvanceToNeverMovesBackwards) {
  VirtualClock clock;
  clock.Advance(500);
  clock.AdvanceTo(300);  // In the past: no-op.
  EXPECT_EQ(clock.now(), 500);
  clock.AdvanceTo(700);
  EXPECT_EQ(clock.now(), 700);
}

}  // namespace
}  // namespace lupine
