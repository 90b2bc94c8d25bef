// FlatRing unit coverage: the chunked sorted index + slot arena that
// replaced the std::map ring.  Exercises both write paths (bulk load and
// incremental inserts), block splits, emptied blocks returning to the
// pool, cursor walks and covers that wrap at block edges, the handle
// ceilings, and the deep index_consistent() check the invariant auditor
// relies on.
#include "sim/flat_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "sim/world_corruptor.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;

constexpr std::size_t kB = FlatRing::kBlockCapacity;

Uint160 id(std::uint64_t v) { return Uint160{v}; }

/// Ring built by ordered inserts of 10, 20, ..., 10 * n, so each block
/// fills to capacity before the next insert splits it.
FlatRing inserted_ring(std::size_t n) {
  FlatRing ring;
  for (std::uint64_t v = 1; v <= n; ++v) ring.insert(id(10 * v), 0, false);
  return ring;
}

/// Ring pre-loaded through the bulk path with the given low-64 ids.
FlatRing make_ring(const std::vector<std::uint64_t>& ids) {
  FlatRing ring;
  ring.reserve(ids.size());
  for (const std::uint64_t v : ids) {
    ring.bulk_append(id(v), static_cast<NodeIndex>(v % 7), false);
  }
  ring.finalize_bulk();
  return ring;
}

/// All live ids in iteration order, via for_each.
std::vector<Uint160> collect(const FlatRing& ring) {
  std::vector<Uint160> out;
  ring.for_each([&](const Uint160& vid, Slot) { out.push_back(vid); });
  return out;
}

TEST(FlatRingTest, EmptyRingHasNoMembers) {
  FlatRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.contains(id(1)));
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, BulkLoadSortsOnceAndAnswersQueries) {
  // Deliberately unsorted append order.
  FlatRing ring = make_ring({50, 10, 40, 20, 30});
  EXPECT_EQ(ring.size(), 5u);
  const std::vector<Uint160> expected = {id(10), id(20), id(30), id(40),
                                         id(50)};
  EXPECT_EQ(collect(ring), expected);
  EXPECT_TRUE(ring.contains(id(30)));
  EXPECT_FALSE(ring.contains(id(31)));
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, SlotAccessorsRoundTripPayload) {
  FlatRing ring;
  const Slot a = ring.insert(id(5), /*owner=*/3, /*is_sybil=*/false);
  const Slot b = ring.insert(id(9), /*owner=*/4, /*is_sybil=*/true);
  EXPECT_EQ(ring.id_of(a), id(5));
  EXPECT_EQ(ring.owner(a), 3u);
  EXPECT_FALSE(ring.is_sybil(a));
  EXPECT_TRUE(ring.is_sybil(b));
  ring.set_owner(b, 6);
  EXPECT_EQ(ring.owner(b), 6u);
  ring.tasks(a).add(id(1000));
  EXPECT_EQ(ring.tasks(a).size(), 1u);
}

TEST(FlatRingTest, SlotsStayValidAcrossUnrelatedMutations) {
  // The replacement for the old "map value pointers never move"
  // contract: a cached Slot must survive inserts, erases, and the block
  // splits they trigger.
  FlatRing ring = make_ring({1000});
  const Slot cached = ring.slot_at(ring.find(id(1000)));
  ring.tasks(cached).add(id(7777));
  for (std::uint64_t v = 0; v < 2 * kB; ++v) {
    ring.insert(id(v), 0, false);
  }
  for (std::uint64_t v = 0; v < 2 * kB; v += 2) {
    ring.erase(id(v));
  }
  EXPECT_GT(ring.block_count(), 1u);  // the inserts forced splits
  EXPECT_EQ(ring.id_of(cached), id(1000));
  EXPECT_EQ(ring.tasks(cached).size(), 1u);
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, FullBlockSplitsInHalfOnInsert) {
  FlatRing ring = inserted_ring(kB);
  ASSERT_EQ(ring.block_count(), 1u);
  ring.insert(id(15), 0, false);  // lands in the lower half
  EXPECT_EQ(ring.block_count(), 2u);
  EXPECT_EQ(ring.size(), kB + 1);
  EXPECT_TRUE(ring.contains(id(15)));
  // The walk crosses the new block edge in both directions.
  const FlatRing::Cursor edge = ring.find(id(10 * (kB / 2)));
  EXPECT_EQ(ring.id_at(ring.next(edge)), id(10 * (kB / 2 + 1)));
  EXPECT_EQ(ring.id_at(ring.prev(ring.next(edge))), id(10 * (kB / 2)));
  // A second full block splits again, on an insert past the top.
  for (std::uint64_t v = 10 * kB + 10; ring.block_count() < 3; v += 10) {
    ring.insert(id(v), 0, false);
  }
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, EmptiedBlockReturnsToPoolAndIsReused) {
  FlatRing ring = inserted_ring(kB + 1);  // blocks of kB/2 and kB/2 + 1
  ASSERT_EQ(ring.block_count(), 2u);
  for (std::uint64_t v = 1; v <= kB / 2; ++v) ring.erase(id(10 * v));
  EXPECT_EQ(ring.block_count(), 1u);
  EXPECT_EQ(ring.size(), kB / 2 + 1);
  EXPECT_FALSE(ring.contains(id(10)));
  EXPECT_EQ(ring.id_at(ring.first()), id(10 * (kB / 2 + 1)));
  EXPECT_EQ(ring.id_at(ring.cover(id(0))), id(10 * (kB / 2 + 1)));
  EXPECT_TRUE(ring.index_consistent());  // the freed block is pooled
  // Refill past capacity: the split takes the pooled block.
  for (std::uint64_t v = 1; v <= kB / 2; ++v) ring.insert(id(10 * v), 0, false);
  EXPECT_EQ(ring.block_count(), 2u);
  EXPECT_TRUE(ring.index_consistent());
  // Erasing down to nothing leaves a valid empty ring.
  for (std::uint64_t v = 1; v <= kB + 1; ++v) ring.erase(id(10 * v));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.block_count(), 0u);
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, SustainedChurnSplitsBlocksAndRecyclesSlots) {
  FlatRing ring = make_ring({1, 2, 3});
  support::Rng rng(99);
  std::set<std::uint64_t> alive = {1, 2, 3};
  std::uint64_t fresh = 4;
  // Insert-biased (2:1) so the ring grows through several splits while
  // erases keep recycling slots.
  for (int round = 0; round < 6 * static_cast<int>(kB); ++round) {
    if (rng.below(3) == 0 && alive.size() > 1) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.below(alive.size())));
      ring.erase(id(*it));
      alive.erase(it);
    } else {
      ring.insert(id(fresh), 0, false);
      alive.insert(fresh++);
    }
  }
  EXPECT_GT(ring.block_count(), 1u);
  EXPECT_EQ(ring.size(), alive.size());
  std::vector<Uint160> expected;
  for (const std::uint64_t v : alive) expected.push_back(id(v));
  EXPECT_EQ(collect(ring), expected);
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, CursorWalksWrapBothDirections) {
  FlatRing ring = make_ring({10, 20, 30});
  ring.insert(id(25), 0, false);  // one incremental insert in the middle
  const std::vector<Uint160> order = {id(10), id(20), id(25), id(30)};

  FlatRing::Cursor c = ring.first();
  for (std::size_t lap = 0; lap < 2 * order.size(); ++lap) {
    EXPECT_EQ(ring.id_at(c), order[lap % order.size()]) << "lap " << lap;
    c = ring.next(c);
  }
  c = ring.first();
  for (std::size_t back = 2 * order.size(); back-- > 0;) {
    c = ring.prev(c);
    EXPECT_EQ(ring.id_at(c), order[back % order.size()]) << "back " << back;
  }
}

TEST(FlatRingTest, CoverReturnsFirstClockwiseOwnerWithWrap) {
  FlatRing ring = make_ring({10, 20, 30});
  EXPECT_EQ(ring.id_at(ring.cover(id(10))), id(10));  // exact hit
  EXPECT_EQ(ring.id_at(ring.cover(id(11))), id(20));  // next clockwise
  EXPECT_EQ(ring.id_at(ring.cover(id(0))), id(10));
  EXPECT_EQ(ring.id_at(ring.cover(id(31))), id(10));  // wraps past top
  EXPECT_EQ(ring.id_at(ring.cover(Uint160::max())), id(10));
}

TEST(FlatRingTest, CoverAndWalksWrapAtBlockEdges) {
  FlatRing ring = inserted_ring(2 * kB + 1);
  ASSERT_GE(ring.block_count(), 3u);
  const Uint160 top = id(10 * (2 * kB + 1));
  // Points between a block's max and the next block's min cover the
  // next block's first entry; points above the top wrap to the first.
  for (std::uint64_t v = 1; v <= 2 * kB + 1; ++v) {
    EXPECT_EQ(ring.id_at(ring.cover(id(10 * v - 5))), id(10 * v));
  }
  EXPECT_EQ(ring.id_at(ring.cover(top + Uint160{1})), id(10));
  EXPECT_EQ(ring.id_at(ring.next(ring.find(top))), id(10));
  EXPECT_EQ(ring.id_at(ring.prev(ring.first())), top);
  ring.erase(id(10));
  ring.insert(id(5), 0, false);  // a new minimum in the first block
  EXPECT_EQ(ring.id_at(ring.next(ring.find(top))), id(5));
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, IndexConsistentPinsArenaDesync) {
  FlatRing ring = make_ring({10, 20, 30});
  ASSERT_TRUE(ring.index_consistent());
  ASSERT_TRUE(sim::testing::FlatRingCorruptor::desync_arena_id(ring));
  EXPECT_FALSE(ring.index_consistent());
}

TEST(FlatRingTest, IndexConsistentPinsSummaryDesync) {
  FlatRing ring = make_ring({10, 20, 30});
  ASSERT_TRUE(ring.index_consistent());
  ASSERT_TRUE(sim::testing::FlatRingCorruptor::desync_summary(ring));
  EXPECT_FALSE(ring.index_consistent());
}

TEST(FlatRingTest, HandleCeilingsAreChecked) {
  // The ceilings are checked on the counts, so tripping them needs no
  // 2^32-entry allocation.
  EXPECT_DEATH(FlatRing::check_limits(FlatRing::kMaxBlocks + 1, 0),
               "block ceiling");
  EXPECT_DEATH(FlatRing::check_limits(0, FlatRing::kMaxSlots + 1),
               "slot arena exhausted");
  FlatRing::check_limits(FlatRing::kMaxBlocks, FlatRing::kMaxSlots);
}

TEST(FlatRingTest, InterpolatedSearchMatchesPlainSearchAtScale) {
  // Searches interpolate on the block summary and inside each block;
  // find/cover answers must stay identical to the brute-force ordering
  // for ids anywhere in the 160-bit space, including the skewed high
  // bits interpolation estimates from.
  support::Rng rng(4242);
  std::vector<Uint160> ids;
  FlatRing ring;
  ring.reserve(3000);
  for (int i = 0; i < 3000; ++i) {
    const Uint160 vid = rng.uniform_u160();
    ids.push_back(vid);
    ring.bulk_append(vid, 0, false);
  }
  ring.finalize_bulk();
  std::sort(ids.begin(), ids.end());
  for (int probe = 0; probe < 2000; ++probe) {
    const Uint160 point = rng.uniform_u160();
    auto it = std::lower_bound(ids.begin(), ids.end(), point);
    const Uint160 expected = it == ids.end() ? ids.front() : *it;
    EXPECT_EQ(ring.id_at(ring.cover(point)), expected);
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Uint160& member = ids[rng.below(ids.size())];
    EXPECT_EQ(ring.id_at(ring.find(member)), member);
  }
}

}  // namespace
}  // namespace dhtlb::sim
