#include "src/util/fiber.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <vector>

namespace lupine {
namespace {

TEST(FiberTest, RunsToCompletion) {
  int x = 0;
  Fiber fiber([&] { x = 42; });
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(x, 42);
}

TEST(FiberTest, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber fiber([&] {
    order.push_back(1);
    Fiber::Yield();
    order.push_back(3);
    Fiber::Yield();
    order.push_back(5);
  });
  fiber.Resume();
  order.push_back(2);
  fiber.Resume();
  order.push_back(4);
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, NestedFibers) {
  std::vector<int> order;
  Fiber inner([&] {
    order.push_back(2);
    Fiber::Yield();
    order.push_back(4);
  });
  Fiber outer([&] {
    order.push_back(1);
    inner.Resume();
    order.push_back(3);
    inner.Resume();
    order.push_back(5);
  });
  outer.Resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, ManyFibersInterleave) {
  constexpr int kFibers = 100;
  int counter = 0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&] {
      ++counter;
      Fiber::Yield();
      ++counter;
    }));
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(counter, kFibers);
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(counter, 2 * kFibers);
  for (auto& f : fibers) {
    EXPECT_TRUE(f->finished());
  }
}

TEST(FiberTest, StackLocalStatePersistsAcrossYields) {
  int out = 0;
  Fiber fiber([&] {
    int local = 7;
    Fiber::Yield();
    local += 10;
    Fiber::Yield();
    out = local;
  });
  fiber.Resume();
  fiber.Resume();
  fiber.Resume();
  EXPECT_EQ(out, 17);
}

TEST(FiberTest, RoundingModeStaysWithItsFiber) {
  const int outer = std::fegetround();
  ASSERT_NE(outer, FE_UPWARD);
  int after_yield = -1;
  Fiber fiber([&] {
    std::fesetround(FE_UPWARD);
    Fiber::Yield();
    after_yield = std::fegetround();
  });
  fiber.Resume();
  EXPECT_EQ(std::fegetround(), outer);
  fiber.Resume();
  EXPECT_EQ(after_yield, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), outer);
}

}  // namespace
}  // namespace lupine
