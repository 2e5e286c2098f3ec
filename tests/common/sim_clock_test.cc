// Tests for the simulated clock and duration helpers.

#include "common/sim_clock.h"

#include <gtest/gtest.h>

namespace wsc {
namespace {

TEST(SimClock, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.Advance(0);
  EXPECT_EQ(clock.now(), 100);
}

TEST(SimClockDeathTest, BackwardsAdvanceIsFatalInDebug) {
#ifndef NDEBUG
  SimClock clock;
  clock.Advance(100);
  EXPECT_DEATH(clock.Advance(-1), "CHECK failed");
#else
  GTEST_SKIP() << "DCHECKs compiled out";
#endif
}

TEST(Durations, UnitConversions) {
  EXPECT_EQ(Nanoseconds(7), 7);
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(1), 1000 * 1000 * 1000);
  EXPECT_EQ(Minutes(2), 120 * Seconds(1));
  EXPECT_EQ(Hours(1), 60 * Minutes(1));
  EXPECT_EQ(Days(1), 24 * Hours(1));
}

}  // namespace
}  // namespace wsc
