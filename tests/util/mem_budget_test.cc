// MemoryBudget: RAII reservation semantics, the never-over-commit
// invariant, byte-size parsing, and per-codec peak estimation.

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/mem_budget.h"

namespace fxrz {
namespace {

TEST(MemoryBudgetTest, ReserveReleaseRoundTrip) {
  MemoryBudget budget(100);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.capacity_bytes(), 100u);
  EXPECT_EQ(budget.reserved_bytes(), 0u);

  MemReservation r = budget.TryReserve(60);
  ASSERT_TRUE(r.held());
  EXPECT_EQ(r.bytes(), 60u);
  EXPECT_EQ(budget.reserved_bytes(), 60u);

  r.Release();
  EXPECT_FALSE(r.held());
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  r.Release();  // idempotent
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(MemoryBudgetTest, DeniesBeyondCapacityWithoutBlocking) {
  MemoryBudget budget(100);
  MemReservation a = budget.TryReserve(70);
  ASSERT_TRUE(a.held());

  MemReservation b = budget.TryReserve(40);  // 70 + 40 > 100
  EXPECT_FALSE(b.held());
  EXPECT_EQ(b.bytes(), 0u);
  EXPECT_EQ(budget.denied_count(), 1u);
  EXPECT_EQ(budget.reserved_bytes(), 70u);  // denial charges nothing

  a.Release();
  MemReservation c = budget.TryReserve(100);  // freed bytes are reusable
  EXPECT_TRUE(c.held());
}

TEST(MemoryBudgetTest, DestructionReleases) {
  MemoryBudget budget(100);
  {
    MemReservation r = budget.TryReserve(100);
    ASSERT_TRUE(r.held());
    EXPECT_FALSE(budget.TryReserve(1).held());
  }
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  EXPECT_TRUE(budget.TryReserve(100).held());
}

TEST(MemoryBudgetTest, MoveTransfersOwnership) {
  MemoryBudget budget(100);
  MemReservation a = budget.TryReserve(50);
  MemReservation b = std::move(a);
  EXPECT_FALSE(a.held());  // NOLINT(bugprone-use-after-move): asserting it
  ASSERT_TRUE(b.held());
  EXPECT_EQ(b.bytes(), 50u);
  EXPECT_EQ(budget.reserved_bytes(), 50u);

  MemReservation c = budget.TryReserve(30);
  c = std::move(b);  // move-assign releases c's 30 first
  EXPECT_EQ(budget.reserved_bytes(), 50u);
  EXPECT_EQ(c.bytes(), 50u);
}

TEST(MemoryBudgetTest, TryGrowExtendsOrLeavesUnchanged) {
  MemoryBudget budget(100);
  MemReservation r = budget.TryReserve(40);
  ASSERT_TRUE(r.held());

  EXPECT_TRUE(r.TryGrow(30));
  EXPECT_EQ(r.bytes(), 70u);
  EXPECT_EQ(budget.reserved_bytes(), 70u);

  EXPECT_FALSE(r.TryGrow(31));  // would hit 101
  EXPECT_EQ(r.bytes(), 70u);
  EXPECT_EQ(budget.reserved_bytes(), 70u);

  r.Release();  // releases the grown amount in one piece
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(MemoryBudgetTest, ZeroByteAndUnlimitedReservesAlwaysSucceed) {
  MemoryBudget bounded(10);
  EXPECT_TRUE(bounded.TryReserve(0).held());

  MemoryBudget unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  MemReservation huge = unlimited.TryReserve(uint64_t{1} << 60);
  EXPECT_TRUE(huge.held());
  EXPECT_EQ(unlimited.reserved_bytes(), uint64_t{1} << 60);
}

TEST(MemoryBudgetTest, OverflowAdjacentRequestsAreSafe) {
  MemoryBudget budget(~uint64_t{0});
  MemReservation a = budget.TryReserve(~uint64_t{0} - 1);
  ASSERT_TRUE(a.held());
  // reserved_ + 2 would wrap; the comparison must not.
  EXPECT_FALSE(budget.TryReserve(2).held());
  EXPECT_TRUE(budget.TryReserve(1).held());
}

// The invariant the overload-chaos gate leans on: under concurrent
// reserve/release churn the high-water mark never exceeds capacity.
TEST(MemoryBudgetTest, ConcurrentChurnNeverOverCommits) {
  MemoryBudget budget(1000);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < 2000; ++i) {
        MemReservation r = budget.TryReserve(300);
        if (r.held() && i % 3 == 0) {
          (void)r.TryGrow(200);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  EXPECT_LE(budget.peak_reserved_bytes(), budget.capacity_bytes());
  EXPECT_GT(budget.peak_reserved_bytes(), 0u);
}

TEST(ParseByteSizeTest, AcceptsPlainAndSuffixedSizes) {
  uint64_t out = 0;
  EXPECT_TRUE(ParseByteSize("1048576", &out));
  EXPECT_EQ(out, 1048576u);
  EXPECT_TRUE(ParseByteSize("64k", &out));
  EXPECT_EQ(out, 64u * 1024);
  EXPECT_TRUE(ParseByteSize("256M", &out));
  EXPECT_EQ(out, 256u * 1024 * 1024);
  EXPECT_TRUE(ParseByteSize("2gb", &out));
  EXPECT_EQ(out, uint64_t{2} * 1024 * 1024 * 1024);
  EXPECT_TRUE(ParseByteSize("0", &out));
  EXPECT_EQ(out, 0u);
}

TEST(ParseByteSizeTest, RejectsGarbageAndOverflow) {
  uint64_t out = 0;
  EXPECT_FALSE(ParseByteSize("", &out));
  EXPECT_FALSE(ParseByteSize("k", &out));
  EXPECT_FALSE(ParseByteSize("12x", &out));
  EXPECT_FALSE(ParseByteSize("-5", &out));
  EXPECT_FALSE(ParseByteSize("99999999999999999999999", &out));
  EXPECT_FALSE(ParseByteSize("99999999999999999999g", &out));
}

TEST(CodecMemoryMultiplierTest, ResolvesBaseAndDerivedNames) {
  EXPECT_GT(CodecMemoryMultiplier("sz"), 1.0);
  EXPECT_EQ(CodecMemoryMultiplier("sz-chunked"), CodecMemoryMultiplier("sz"));
  EXPECT_EQ(CodecMemoryMultiplier("zfp-chunked"), CodecMemoryMultiplier("zfp"));
  // "sz3" must resolve as sz3, not as derived-from-"sz".
  EXPECT_EQ(CodecMemoryMultiplier("sz3"), CodecMemoryMultiplier("sz3-chunked"));
  // Unknown codecs get a conservative default, never zero.
  EXPECT_GE(CodecMemoryMultiplier("no-such-codec"), 1.0);
}

TEST(CodecMemoryMultiplierTest, EstimatePeakScalesAndSaturates) {
  const uint64_t est = EstimatePeakBytes("sz", 1000);
  EXPECT_GE(est, 1000u);  // peak covers at least the input itself
  EXPECT_EQ(EstimatePeakBytes("sz", 0), 0u);
  // A near-max tensor must saturate, not wrap around.
  EXPECT_EQ(EstimatePeakBytes("mgard", ~uint64_t{0} / 2), ~uint64_t{0});
}

}  // namespace
}  // namespace fxrz
