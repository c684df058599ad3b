// Tests for the common utilities (common/): check macros, environment
// helpers, and the stopwatch.

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/env.h"
#include "common/timer.h"

namespace streamgpu {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  STREAMGPU_CHECK(1 + 1 == 2);
  STREAMGPU_CHECK_MSG(true, "never shown");
  SUCCEED();
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(STREAMGPU_CHECK(false), "CHECK failed");
  EXPECT_DEATH(STREAMGPU_CHECK_MSG(false, "context here"), "context here");
}

TEST(EnvTest, ParsesDoubles) {
  ::setenv("STREAMGPU_TEST_D", "2.5", 1);
  EXPECT_EQ(GetEnvDouble("STREAMGPU_TEST_D", 1.0), 2.5);
  ::setenv("STREAMGPU_TEST_D", "garbage", 1);
  EXPECT_EQ(GetEnvDouble("STREAMGPU_TEST_D", 1.0), 1.0);
  ::unsetenv("STREAMGPU_TEST_D");
  EXPECT_EQ(GetEnvDouble("STREAMGPU_TEST_D", 7.0), 7.0);
}

TEST(EnvTest, BenchScaleDefaultsToOne) {
  ::unsetenv("STREAMGPU_SCALE");
  EXPECT_EQ(BenchScale(), 1.0);
  ::setenv("STREAMGPU_SCALE", "8", 1);
  EXPECT_EQ(BenchScale(), 8.0);
  ::unsetenv("STREAMGPU_SCALE");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  const double s = t.ElapsedSeconds();
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 10.0);
  EXPECT_NEAR(t.ElapsedMillis(), t.ElapsedSeconds() * 1e3, 1.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace streamgpu
