#include "src/util/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/vclock.h"

namespace lupine {
namespace {

TEST(BackoffDelayTest, GrowsExponentiallyAndClampsToTheCap) {
  BackoffSpec spec;
  spec.initial = Millis(100);
  spec.multiplier = 2.0;
  spec.cap = Millis(400);
  spec.jitter = 0.0;  // Exact values.
  Prng prng(1);
  bool capped = false;
  EXPECT_EQ(BackoffDelay(spec, 1, prng, &capped), Millis(100));
  EXPECT_FALSE(capped);
  EXPECT_EQ(BackoffDelay(spec, 2, prng, &capped), Millis(200));
  EXPECT_FALSE(capped);
  EXPECT_EQ(BackoffDelay(spec, 3, prng, &capped), Millis(400));
  EXPECT_TRUE(capped);
  EXPECT_EQ(BackoffDelay(spec, 10, prng, &capped), Millis(400));
  EXPECT_TRUE(capped);
}

TEST(BackoffDelayTest, JitterStaysWithinTheFractionAndIsSeedDeterministic) {
  BackoffSpec spec;
  spec.jitter = 0.25;
  auto schedule = [&spec](uint64_t seed) {
    Prng prng(seed);
    std::vector<Nanos> delays;
    for (int f = 1; f <= 6; ++f) {
      const Nanos delay = BackoffDelay(spec, f, prng);
      delays.push_back(delay);
    }
    return delays;
  };
  const auto a = schedule(42);
  EXPECT_EQ(a, schedule(42));
  EXPECT_NE(a, schedule(43));
  Prng prng(7);
  for (int f = 1; f <= 6; ++f) {
    const double base = std::min(static_cast<double>(spec.initial) * std::pow(2.0, f - 1),
                                 static_cast<double>(spec.cap));
    const Nanos delay = BackoffDelay(spec, f, prng);
    EXPECT_GE(static_cast<double>(delay), base * 0.75 - 1);
    EXPECT_LE(static_cast<double>(delay), base * 1.25 + 1);
  }
}

TEST(RetryClassificationTest, TransientErrorsRetryDeterministicOnesDoNot) {
  EXPECT_TRUE(IsRetryableError(Status(Err::kIo, "disk hiccup")));
  EXPECT_TRUE(IsRetryableError(Status(Err::kTimedOut, "deadline")));
  EXPECT_TRUE(IsRetryableError(Status(Err::kFault, "ring-0 panic")));
  EXPECT_TRUE(IsRetryableError(Status(Err::kConnReset, "peer reset")));
  EXPECT_FALSE(IsRetryableError(Status(Err::kNoMem, "OOM at this size")));
  EXPECT_FALSE(IsRetryableError(Status(Err::kNoEnt, "no such app")));
  EXPECT_FALSE(IsRetryableError(Status(Err::kInval, "bad plan")));
  EXPECT_FALSE(IsRetryableError(Status(Err::kAccess, "quarantined")));
  EXPECT_FALSE(IsRetryableError(Status::Ok()));
}

TEST(RetrierTest, StopsAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Retrier retrier(policy);
  auto first = retrier.OnFailure(Status(Err::kIo, "boom"));
  EXPECT_TRUE(first.retry);
  EXPECT_GT(first.delay, 0);
  auto second = retrier.OnFailure(Status(Err::kIo, "boom"));
  EXPECT_TRUE(second.retry);
  auto third = retrier.OnFailure(Status(Err::kIo, "boom"));
  EXPECT_FALSE(third.retry);
  EXPECT_STREQ(third.reason, "attempts-exhausted");
  EXPECT_EQ(retrier.failures(), 3);
}

TEST(RetrierTest, PermanentErrorNeverRetries) {
  Retrier retrier(RetryPolicy{.max_attempts = 10});
  auto decision = retrier.OnFailure(Status(Err::kNoEnt, "no manifest"));
  EXPECT_FALSE(decision.retry);
  EXPECT_STREQ(decision.reason, "permanent-error");
}

TEST(RetrierTest, SeedOffsetDecorrelatesTasksAndResetReplays) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  auto schedule = [&policy](uint64_t offset) {
    Retrier retrier(policy, offset);
    std::vector<Nanos> delays;
    for (int i = 0; i < 6; ++i) {
      auto decision = retrier.OnFailure(Status(Err::kIo, "boom"));
      if (!decision.retry) {
        break;
      }
      delays.push_back(decision.delay);
    }
    return delays;
  };
  EXPECT_EQ(schedule(3), schedule(3));  // Same task => same schedule.
  EXPECT_NE(schedule(3), schedule(4));  // Different tasks decorrelate.
}

TEST(DeadlineGuardTest, ExpiresAndChargesTheDeadlineNotTheStall) {
  VirtualClock clock;
  DeadlineGuard guard(clock, Millis(10));
  clock.Advance(Millis(4));
  EXPECT_FALSE(guard.expired());
  EXPECT_TRUE(DeadlineGuard::CheckElapsed("boot", Millis(10), guard.elapsed()).ok());
  EXPECT_EQ(guard.charged(), Millis(4));
  clock.Advance(Seconds(60));  // The stall.
  EXPECT_TRUE(guard.expired());
  EXPECT_EQ(guard.charged(), Millis(10));
  const Status status = DeadlineGuard::CheckElapsed("boot", Millis(10), guard.elapsed());
  EXPECT_EQ(status.err(), Err::kTimedOut);
  EXPECT_NE(status.ToString().find("boot"), std::string::npos);
}

TEST(DeadlineGuardTest, ZeroDeadlineNeverExpires) {
  VirtualClock clock;
  DeadlineGuard guard(clock, 0);
  clock.Advance(Seconds(3600));
  EXPECT_FALSE(guard.expired());
  EXPECT_EQ(guard.charged(), Seconds(3600));
  EXPECT_TRUE(DeadlineGuard::CheckElapsed("build", 0, Seconds(999)).ok());
  EXPECT_FALSE(DeadlineGuard::CheckElapsed("build", Millis(1), Millis(2)).ok());
}

}  // namespace
}  // namespace lupine
