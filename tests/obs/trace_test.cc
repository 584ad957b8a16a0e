// The process trace clock shared by wide events and span trees.

#include "obs/trace.h"

#include <gtest/gtest.h>

namespace rps::obs {
namespace {

TEST(TraceNowNanosTest, IsMonotonic) {
  const int64_t a = TraceNowNanos();
  const int64_t b = TraceNowNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

}  // namespace
}  // namespace rps::obs
