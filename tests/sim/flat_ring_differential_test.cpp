// Differential test: FlatRing against the std::map<Uint160, payload>
// representation it replaced.  Both sides consume identical randomized
// join/leave/lookup sequences; after every mutation the flat ring must
// give the same successor, predecessor, cover, and owner answers as the
// map, and its deep index_consistent() check must hold.  This pins the
// block split / free / summary machinery to the simple ordered-map
// semantics the rest of the simulator was written against.  A second
// suite builds rings of sizes around the block capacity and walks every
// member both ways, so each block edge and the wrap are crossed.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/flat_ring.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;

struct RefPayload {
  NodeIndex owner = 0;
  bool is_sybil = false;
};

/// The pre-flat-ring representation, kept verbatim as the oracle.
class MapReference {
 public:
  void insert(const Uint160& id, NodeIndex owner, bool is_sybil) {
    vnodes_[id] = RefPayload{owner, is_sybil};
  }
  void erase(const Uint160& id) { vnodes_.erase(id); }
  bool contains(const Uint160& id) const { return vnodes_.count(id) != 0; }
  std::size_t size() const { return vnodes_.size(); }

  /// First vnode clockwise at or after `point`, wrapping past zero.
  Uint160 cover(const Uint160& point) const {
    auto it = vnodes_.lower_bound(point);
    if (it == vnodes_.end()) it = vnodes_.begin();
    return it->first;
  }

  Uint160 successor(const Uint160& id) const {
    auto it = std::next(vnodes_.find(id));
    if (it == vnodes_.end()) it = vnodes_.begin();
    return it->first;
  }

  Uint160 predecessor(const Uint160& id) const {
    auto it = vnodes_.find(id);
    if (it == vnodes_.begin()) it = vnodes_.end();
    return std::prev(it)->first;
  }

  const RefPayload& payload(const Uint160& id) const {
    return vnodes_.at(id);
  }

  const std::map<Uint160, RefPayload>& all() const { return vnodes_; }

 private:
  std::map<Uint160, RefPayload> vnodes_;
};

class FlatRingDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatRingDifferentialTest, RandomChurnSequenceMatchesMapReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  FlatRing ring;
  MapReference ref;

  // Seed both sides through the bulk path, like world construction.
  constexpr std::size_t kInitial = 200;
  ring.reserve(kInitial);
  for (std::size_t i = 0; i < kInitial; ++i) {
    const Uint160 id = rng.uniform_u160();
    if (ref.contains(id)) continue;  // (astronomically unlikely)
    const auto owner = static_cast<NodeIndex>(rng.below(32));
    ring.bulk_append(id, owner, false);
    ref.insert(id, owner, false);
  }
  ring.finalize_bulk();

  std::vector<Uint160> members;
  for (const auto& [id, payload] : ref.all()) members.push_back(id);

  auto check_agreement = [&](int step) {
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    ASSERT_TRUE(ring.index_consistent()) << "step " << step;
    // Neighbor and payload agreement from a few random members.
    for (int probe = 0; probe < 8; ++probe) {
      const Uint160& id = members[rng.below(members.size())];
      const FlatRing::Cursor c = ring.find(id);
      ASSERT_EQ(ring.id_at(c), id) << "step " << step;
      ASSERT_EQ(ring.id_at(ring.next(c)), ref.successor(id))
          << "step " << step;
      ASSERT_EQ(ring.id_at(ring.prev(c)), ref.predecessor(id))
          << "step " << step;
      const Slot slot = ring.slot_at(c);
      ASSERT_EQ(ring.owner(slot), ref.payload(id).owner) << "step " << step;
      ASSERT_EQ(ring.is_sybil(slot), ref.payload(id).is_sybil)
          << "step " << step;
    }
    // Point-lookup agreement at arbitrary keys (the task-routing path).
    for (int probe = 0; probe < 8; ++probe) {
      const Uint160 point = rng.uniform_u160();
      ASSERT_EQ(ring.id_at(ring.cover(point)), ref.cover(point))
          << "step " << step;
    }
  };

  check_agreement(-1);
  for (int step = 0; step < 400; ++step) {
    switch (rng.below(3)) {
      case 0: {  // join at a fresh id
        const Uint160 id = rng.uniform_u160();
        if (ref.contains(id)) break;
        const auto owner = static_cast<NodeIndex>(rng.below(32));
        const bool sybil = rng.below(4) == 0;
        ring.insert(id, owner, sybil);
        ref.insert(id, owner, sybil);
        members.push_back(id);
        break;
      }
      case 1: {  // leave
        if (members.size() <= 2) break;
        const std::size_t victim = rng.below(members.size());
        ring.erase(members[victim]);
        ref.erase(members[victim]);
        members[victim] = members.back();
        members.pop_back();
        break;
      }
      case 2: {  // ownership transfer (e.g. sybil handoff)
        const Uint160& id = members[rng.below(members.size())];
        const auto owner = static_cast<NodeIndex>(rng.below(32));
        ring.set_owner(ring.slot_at(ring.find(id)), owner);
        ref.insert(id, owner, ref.payload(id).is_sybil);
        break;
      }
    }
    check_agreement(step);
  }

  // Final full-order sweep: for_each must iterate the exact map order.
  std::vector<Uint160> flat_order;
  ring.for_each(
      [&](const Uint160& id, Slot) { flat_order.push_back(id); });
  std::vector<Uint160> map_order;
  for (const auto& [id, payload] : ref.all()) map_order.push_back(id);
  EXPECT_EQ(flat_order, map_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRingDifferentialTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1337, 9001));

class FlatRingBlockEdgeTest : public ::testing::TestWithParam<std::size_t> {};

/// Every member's successor, predecessor and cover-of-own-id, walked
/// from find(); plus one full clockwise and counterclockwise lap.
void expect_walks_match(const FlatRing& ring, const MapReference& ref) {
  ASSERT_EQ(ring.size(), ref.size());
  ASSERT_TRUE(ring.index_consistent());
  for (const auto& [vid, payload] : ref.all()) {
    const FlatRing::Cursor c = ring.find(vid);
    ASSERT_EQ(ring.id_at(ring.next(c)), ref.successor(vid));
    ASSERT_EQ(ring.id_at(ring.prev(c)), ref.predecessor(vid));
    ASSERT_EQ(ring.id_at(ring.cover(vid)), vid);
    ASSERT_EQ(ring.owner(ring.slot_at(c)), payload.owner);
  }
  FlatRing::Cursor fwd = ring.first();
  FlatRing::Cursor back = ring.first();
  auto up = ref.all().begin();
  auto down = ref.all().end();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ring.id_at(fwd), up->first) << "lap step " << i;
    fwd = ring.next(fwd);
    ++up;
    back = ring.prev(back);
    --down;
    ASSERT_EQ(ring.id_at(back), down->first) << "lap step " << i;
  }
  ASSERT_EQ(ring.id_at(fwd), ref.all().begin()->first);  // wrapped
}

TEST_P(FlatRingBlockEdgeTest, WalksAcrossBlockEdgesMatchMapReference) {
  const std::size_t n = GetParam();
  support::Rng rng(n);
  std::vector<Uint160> ids;
  MapReference ref;
  while (ids.size() < n) {
    const Uint160 id = rng.uniform_u160();
    if (ref.contains(id)) continue;
    const auto owner = static_cast<NodeIndex>(ids.size() % 32);
    ids.push_back(id);
    ref.insert(id, owner, false);
  }
  // Both write paths: one bulk load, and one ring grown by inserts.
  FlatRing bulk;
  FlatRing grown;
  bulk.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto owner = static_cast<NodeIndex>(i % 32);
    bulk.bulk_append(ids[i], owner, false);
    grown.insert(ids[i], owner, false);
  }
  bulk.finalize_bulk();
  expect_walks_match(bulk, ref);
  expect_walks_match(grown, ref);
  // Erase a third, then re-insert fresh ids, and compare again.
  for (std::size_t i = 0; i < n; i += 3) {
    bulk.erase(ids[i]);
    grown.erase(ids[i]);
    ref.erase(ids[i]);
  }
  expect_walks_match(bulk, ref);
  expect_walks_match(grown, ref);
  for (std::size_t i = 0; i < n / 3; ++i) {
    const Uint160 id = rng.uniform_u160();
    if (ref.contains(id)) continue;
    bulk.insert(id, 7, true);
    grown.insert(id, 7, true);
    ref.insert(id, 7, true);
  }
  expect_walks_match(bulk, ref);
  expect_walks_match(grown, ref);
  for (int probe = 0; probe < 200; ++probe) {
    const Uint160 point = rng.uniform_u160();
    ASSERT_EQ(bulk.id_at(bulk.cover(point)), ref.cover(point));
    ASSERT_EQ(grown.id_at(grown.cover(point)), ref.cover(point));
  }
}

constexpr std::size_t kB = FlatRing::kBlockCapacity;
INSTANTIATE_TEST_SUITE_P(Sizes, FlatRingBlockEdgeTest,
                         ::testing::Values(kB - 1, kB, kB + 1, 2 * kB,
                                           3 * kB + 1));

}  // namespace
}  // namespace dhtlb::sim
