// Flat ring storage: a chunked sorted (id, slot) index over a stable slot
// arena.
//
// The simulated ring keeps the ordered-ring semantics of a
// std::map<Uint160, VirtualNode> on two flat pieces:
//
//  * an *index*: the sorted (id, slot) entries cut into fixed-capacity
//    leaf blocks of kBlockCapacity entries (a B+-tree's leaf level).  A
//    small block-order array lists the blocks in ascending-id order, and
//    a summary array beside it holds each block's largest id.  A search
//    interpolates on the summary to find the block, then interpolates
//    inside the block; SHA-1 ids are uniform at both levels, so each
//    guess lands within a few entries.  An insert or erase moves entries
//    of one block only: a full block splits in two, and an emptied block
//    goes back to the pool; only those two events shift the block-order
//    and summary arrays.  Walks step within a block and hop to the
//    neighbouring block at its edges.
//  * a *slot arena*: per-vnode payloads split struct-of-arrays — owner,
//    sybil flag, and TaskStore each in their own vector, indexed by a
//    Slot handle.  Slots are stable for a vnode's lifetime (freed slots
//    are recycled), so callers cache Slot handles instead of pointers.
//
// Construction has a separate bulk path (bulk_append + finalize_bulk):
// append unsorted, sort once, and spread the entries over blocks in
// place, so the load buffer itself becomes the pool's first chunk.
//
// Every query (find/cover/next/prev/for_each) is const and touches no
// mutable state, so any number of readers may share a ring that no one
// mutates — the tick engine resolves arrival covers from several
// workers at once.
//
// Determinism: this container is purely representational — it stores
// exactly the (id -> payload) ring the std::map stored, iterates in the
// same ascending-id order, and draws no randomness — so how entries are
// cut into blocks cannot change any simulation result.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task_store.hpp"
#include "support/check.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {

namespace testing {
struct FlatRingCorruptor;  // test-only backdoor, defined under tests/sim/
}

using support::Uint160;

/// Index of a physical node in the world (stable across its lifetime).
using NodeIndex = std::uint32_t;

/// Stable handle of one vnode's arena slot (valid until its erase).
using Slot = std::uint32_t;

class FlatRing {
 public:
  /// Sentinel slot: never a valid handle.
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;

  /// Entries per leaf block.  A split or an erase moves at most this
  /// many 24-byte entries; the summary holds ~n/(0.7·B) block maxima.
  static constexpr std::size_t kBlockCapacity = 256;

  /// Ceilings of the uint32 handles: block positions in a Cursor, and
  /// arena slots below the kNoSlot sentinel.
  static constexpr std::size_t kMaxBlocks = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxSlots = kNoSlot;

  /// DHTLB_CHECKs that `blocks` leaf blocks and `slots` arena slots fit
  /// their handle types; called wherever the index or arena grows.
  static void check_limits(std::size_t blocks, std::size_t slots);

  struct Entry {
    Uint160 id;
    Slot slot = kNoSlot;
  };

  // The block order points into the pool's chunks, so a copy would
  // alias its source's blocks; a move hands the chunks over intact.
  FlatRing() = default;
  FlatRing(const FlatRing&) = delete;
  FlatRing& operator=(const FlatRing&) = delete;
  FlatRing(FlatRing&&) = default;
  FlatRing& operator=(FlatRing&&) = default;

  // --- size & membership --------------------------------------------------

  /// Live vnodes in the ring.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  bool contains(const Uint160& id) const;

  // --- slot arena (stable handles) ----------------------------------------

  const Uint160& id_of(Slot s) const { return ids_[s]; }
  NodeIndex owner(Slot s) const { return owners_[s]; }
  void set_owner(Slot s, NodeIndex owner) { owners_[s] = owner; }
  bool is_sybil(Slot s) const { return sybils_[s] != 0; }
  TaskStore& tasks(Slot s) { return tasks_[s]; }
  const TaskStore& tasks(Slot s) const { return tasks_[s]; }

  // --- cursors ------------------------------------------------------------

  /// Position of one live vnode: entry `pos` of the block at position
  /// `block` in the block order.  next()/prev() walk the ring clockwise
  /// and counterclockwise with wrap-around.  Invalidated by any mutation
  /// (insert/erase/finalize_bulk) — same contract as the old map
  /// iterators.  Slots, by contrast, stay valid.
  struct Cursor {
    std::uint32_t block = 0;
    std::uint32_t pos = 0;
  };

  /// Cursor of an id that is in the ring (DHTLB_CHECKs otherwise).
  Cursor find(const Uint160& id) const;

  /// Cursor of the first vnode clockwise at or after `point` (the vnode
  /// whose ownership arc covers it), wrapping past zero.  Ring must be
  /// non-empty.
  Cursor cover(const Uint160& point) const;

  /// Cursor of the smallest id.  Ring must be non-empty.
  Cursor first() const;

  // Neighbor steps are the inner loop of every ring walk; they live at
  // the bottom of this header so they inline into the walk iterators.
  Cursor next(Cursor c) const;  // clockwise neighbor, wraps
  Cursor prev(Cursor c) const;  // counterclockwise neighbor, wraps

  const Uint160& id_at(const Cursor& c) const { return entry_at(c).id; }
  Slot slot_at(const Cursor& c) const { return entry_at(c).slot; }

  /// Calls fn(id, slot) for every live vnode in ascending-id order — the
  /// bulk read path (snapshots, audits, task assignment) at O(n) with no
  /// per-element search.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t b = 0; b < order_.size(); ++b) {
      for (std::uint32_t i = 0; i < sizes_[b]; ++i) {
        fn(order_[b][i].id, order_[b][i].slot);
      }
    }
  }

  // --- mutation -----------------------------------------------------------

  /// Inserts a new vnode (id must not be present) and returns its arena
  /// slot.  Moves entries of one block only.
  Slot insert(const Uint160& id, NodeIndex owner, bool is_sybil);

  /// Removes a vnode (id must be present), freeing its slot.  Any tasks
  /// still in its store are dropped — callers merge them out first.
  void erase(const Uint160& id);

  /// Pre-sizes the bulk-load buffer and the arena for n vnodes.
  void reserve(std::size_t n);

  /// Bulk-load path on an empty ring: appends without sorting.  Between
  /// the first bulk_append and finalize_bulk only slot accessors are
  /// valid.
  Slot bulk_append(const Uint160& id, NodeIndex owner, bool is_sybil);

  /// Sorts the bulk-loaded entries into blocks; the ring is fully
  /// queryable after.
  void finalize_bulk();

  // --- introspection (audits, tests) --------------------------------------

  /// Leaf blocks in the index.
  std::size_t block_count() const { return order_.size(); }

  /// Deep structural check: blocks non-empty and strictly sorted within
  /// and across block edges, every summary entry equal to its block's
  /// largest id, live count and block pool consistent, every live
  /// entry's slot valid and unique, every slot's stored id matching its
  /// index entry.  O(n); for the invariant auditor and tests.
  bool index_consistent() const;

 private:
  // Test-only: lets auditor tests seed index corruptions (arena/index id
  // mismatches, stale summaries) that the public API makes impossible.
  friend struct testing::FlatRingCorruptor;

  const Entry& entry_at(const Cursor& c) const {
    return order_[c.block][c.pos];
  }
  bool bulk_loading() const { return !bulk_.empty(); }

  /// Position of the first block whose largest id is >= `id`, or
  /// block_count() when `id` is above every id in the ring.
  std::size_t block_lower_bound(const Uint160& id) const;
  /// Position of the first entry >= `id` in block `b`, whose largest id
  /// must be >= `id`.
  std::uint32_t entry_lower_bound(std::size_t b, const Uint160& id) const;

  /// A pooled (or new) empty block, inserted at position `b` of the
  /// block order with summary `max`.
  Entry* add_block(std::size_t b, Uint160 max);

  Slot alloc_slot(const Uint160& id, NodeIndex owner, bool is_sybil);
  void free_slot(Slot s);

  // A block is kBlockCapacity consecutive entries inside a pool chunk;
  // the three arrays below are parallel, in ascending-id block order.
  std::vector<Entry*> order_;         // never an empty block
  std::vector<std::uint32_t> sizes_;  // live entries of order_[b]
  std::vector<Uint160> maxes_;        // largest id in order_[b]
  // The pool: chunks of whole blocks.  The bulk-load buffer becomes the
  // first chunk in place; each later split adds a one-block chunk.
  std::vector<std::vector<Entry>> chunks_;
  std::vector<Entry*> spare_;  // pooled blocks not in order_
  std::vector<Entry> bulk_;    // unsorted bulk load, empty otherwise
  std::size_t live_ = 0;

  // Slot arena, struct-of-arrays: the hot membership fields (id, owner,
  // sybil flag) pack densely for the auditor/strategy scans; the cold
  // TaskStore payloads stay out of their cache lines.
  std::vector<Uint160> ids_;
  std::vector<NodeIndex> owners_;
  std::vector<std::uint8_t> sybils_;
  std::vector<TaskStore> tasks_;
  std::vector<Slot> free_slots_;
};

inline FlatRing::Cursor FlatRing::next(Cursor c) const {
  if (++c.pos == sizes_[c.block]) {
    c.pos = 0;
    if (++c.block == order_.size()) c.block = 0;  // wrap past the top
  }
  return c;
}

inline FlatRing::Cursor FlatRing::prev(Cursor c) const {
  if (c.pos == 0) {
    if (c.block == 0) c.block = static_cast<std::uint32_t>(order_.size());
    --c.block;
    c.pos = sizes_[c.block];
  }
  --c.pos;
  return c;
}

}  // namespace dhtlb::sim
