// memory_test.cpp — the held-call memory budget: heap bytes in use per call
// held at pathbench call_hold's shape (10^4 calls over a six-router chain,
// two sighost shards per router).  A held call should keep only its live
// state in every layer; a record that starts keeping buffers, upcalls or
// tree nodes it can no longer use shows up here as bytes per call.
//
// The figure is the glibc heap's in-use bytes (mallinfo2().uordblks) after
// the calls are held minus before they were opened, over the call count.
// The simulation is deterministic and single-threaded, so the figure is
// the same on every run of one build.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>

#include "held_calls.hpp"

namespace xunet {
namespace {

/// About 5% above the measured 2228 bytes per held call.
constexpr double kBudgetBytesPerCall = 2340;

[[nodiscard]] std::size_t heap_in_use() { return mallinfo2().uordblks; }

TEST(HeldCallMemory, HeapBytesPerHeldCallStayWithinBudget) {
  held::HeldCalls h;
  const std::size_t before = heap_in_use();
  h.hold();
  const std::size_t after = heap_in_use();
  ASSERT_EQ(h.counts.delivered, held::kCalls);
  if (before == 0 && after == 0) {
    GTEST_SKIP() << "the allocator keeps no glibc heap accounting";
  }
  const double per_call =
      (static_cast<double>(after) - static_cast<double>(before)) /
      static_cast<double>(held::kCalls);
  std::printf("heap bytes in use per held call: %.1f (budget %.0f)\n", per_call,
              kBudgetBytesPerCall);
  EXPECT_LE(per_call, kBudgetBytesPerCall);
}

}  // namespace
}  // namespace xunet
