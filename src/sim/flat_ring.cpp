#include "sim/flat_ring.hpp"

#include <algorithm>
#include <utility>

namespace dhtlb::sim {
namespace {

// Bulk loads fill blocks to 3/4, so the first inserts after construction
// land in free room instead of splitting every block at once.
constexpr std::size_t kBulkFill = FlatRing::kBlockCapacity * 3 / 4;

}  // namespace

void FlatRing::check_limits(std::size_t blocks, std::size_t slots) {
  DHTLB_CHECK(blocks <= kMaxBlocks,
              "FlatRing: " << blocks << " blocks exceed the block ceiling");
  DHTLB_CHECK(slots <= kMaxSlots,
              "FlatRing: slot arena exhausted at " << slots << " slots");
}

// --- searches -------------------------------------------------------------

std::size_t FlatRing::block_lower_bound(const Uint160& id) const {
  const std::size_t n = maxes_.size();
  if (n == 0) return 0;
  // SHA-1 ids are uniform, so block ≈ id / 2^160 · n; n < 2^32 keeps the
  // top-32-bit product in 64 bits.  From that guess, gallop out by
  // doubling steps, then binary-search the bracket [below, above].
  const std::size_t guess =
      static_cast<std::size_t>(((id.high64() >> 32) * n) >> 32);
  std::size_t below = 0;
  std::size_t above = n;
  if (maxes_[guess] < id) {
    below = guess + 1;
    for (std::size_t step = 1; below + step - 1 < n; step *= 2) {
      const std::size_t probe = below + step - 1;
      if (!(maxes_[probe] < id)) {
        above = probe;
        break;
      }
      below = probe + 1;
    }
  } else {
    above = guess;
    for (std::size_t step = 1; above >= step; step *= 2) {
      const std::size_t probe = above - step;
      if (maxes_[probe] < id) {
        below = probe + 1;
        break;
      }
      above = probe;
    }
  }
  const Uint160* first = maxes_.data();
  return static_cast<std::size_t>(
      std::lower_bound(first + below, first + above, id) - first);
}

std::uint32_t FlatRing::entry_lower_bound(std::size_t b,
                                          const Uint160& id) const {
  const Entry* block = order_[b];
  const std::uint32_t size = sizes_[b];
  // Interpolate between the previous block's max and this one's, then
  // scan: the ids are uniform, so the guess is a few entries off, and a
  // scan never leaves the block.
  const std::uint64_t lo = b == 0 ? 0 : maxes_[b - 1].high64();
  const std::uint64_t hi = maxes_[b].high64();
  const std::uint64_t p = id.high64();
  std::uint32_t i = size;  // in [0, size]: the ratio is <= 1
  if (p < hi) {
    i = p <= lo ? 0
                : static_cast<std::uint32_t>(static_cast<double>(p - lo) /
                                             static_cast<double>(hi - lo) *
                                             size);
  }
  while (i > 0 && !(block[i - 1].id < id)) --i;
  while (i < size && block[i].id < id) ++i;
  return i;
}

bool FlatRing::contains(const Uint160& id) const {
  const std::size_t b = block_lower_bound(id);
  if (b == order_.size()) return false;
  return order_[b][entry_lower_bound(b, id)].id == id;
}

// --- cursors --------------------------------------------------------------

FlatRing::Cursor FlatRing::find(const Uint160& id) const {
  DHTLB_CHECK(!bulk_loading(), "FlatRing::find during bulk load");
  const std::size_t b = block_lower_bound(id);
  DHTLB_CHECK(b < order_.size(), "FlatRing::find: id " << id << " not in ring");
  const Cursor c{static_cast<std::uint32_t>(b), entry_lower_bound(b, id)};
  DHTLB_CHECK(id_at(c) == id, "FlatRing::find: id " << id << " not in ring");
  return c;
}

FlatRing::Cursor FlatRing::cover(const Uint160& point) const {
  DHTLB_CHECK(!bulk_loading(), "FlatRing::cover during bulk load");
  DHTLB_CHECK(live_ > 0, "FlatRing::cover on empty ring");
  const std::size_t b = block_lower_bound(point);
  if (b == order_.size()) return first();  // wrapped past the top
  return Cursor{static_cast<std::uint32_t>(b), entry_lower_bound(b, point)};
}

FlatRing::Cursor FlatRing::first() const {
  DHTLB_CHECK(live_ > 0, "FlatRing::first on empty ring");
  return Cursor{};
}

// --- slot arena -----------------------------------------------------------

Slot FlatRing::alloc_slot(const Uint160& id, NodeIndex owner, bool is_sybil) {
  Slot s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
    ids_[s] = id;
    owners_[s] = owner;
    sybils_[s] = is_sybil ? 1 : 0;
  } else {
    check_limits(order_.size(), ids_.size() + 1);
    s = static_cast<Slot>(ids_.size());
    ids_.push_back(id);
    owners_.push_back(owner);
    sybils_.push_back(is_sybil ? 1 : 0);
    tasks_.emplace_back();
  }
  return s;
}

void FlatRing::free_slot(Slot s) {
  // Drop the bucket's capacity too: under churn a recycled slot's next
  // occupant usually holds far fewer keys than a departed node's peak.
  tasks_[s] = TaskStore{};
  free_slots_.push_back(s);
}

// --- mutation -------------------------------------------------------------

FlatRing::Entry* FlatRing::add_block(std::size_t b, Uint160 max) {
  check_limits(order_.size() + 1, ids_.size());
  Entry* block;
  if (spare_.empty()) {
    chunks_.emplace_back(kBlockCapacity);
    block = chunks_.back().data();
  } else {
    block = spare_.back();
    spare_.pop_back();
  }
  const auto at = static_cast<std::ptrdiff_t>(b);
  order_.insert(order_.begin() + at, block);
  sizes_.insert(sizes_.begin() + at, 0);
  maxes_.insert(maxes_.begin() + at, max);
  return block;
}

Slot FlatRing::insert(const Uint160& id, NodeIndex owner, bool is_sybil) {
  DHTLB_CHECK(!bulk_loading(), "FlatRing::insert during bulk load");
  if (order_.empty()) add_block(0, id);
  // An id above every block's max extends the last block.
  const std::size_t top = order_.size() - 1;
  std::size_t b = std::min(block_lower_bound(id), top);
  std::uint32_t pos = id > maxes_[b] ? sizes_[b] : entry_lower_bound(b, id);
  DHTLB_CHECK(pos == sizes_[b] || order_[b][pos].id != id,
              "FlatRing::insert: duplicate id " << id);
  if (sizes_[b] == kBlockCapacity) {
    // Split: the upper half moves to a new block right after this one.
    constexpr std::uint32_t kHalf = kBlockCapacity / 2;
    Entry* upper = add_block(b + 1, maxes_[b]);
    std::copy(order_[b] + kHalf, order_[b] + kBlockCapacity, upper);
    sizes_[b + 1] = kBlockCapacity - kHalf;
    sizes_[b] = kHalf;
    maxes_[b] = order_[b][kHalf - 1].id;
    if (pos >= kHalf) {
      ++b;
      pos -= kHalf;
    }
  }
  const Slot slot = alloc_slot(id, owner, is_sybil);
  Entry* block = order_[b];
  std::copy_backward(block + pos, block + sizes_[b], block + sizes_[b] + 1);
  block[pos] = Entry{id, slot};
  if (pos == sizes_[b]) maxes_[b] = id;
  ++sizes_[b];
  ++live_;
  return slot;
}

void FlatRing::erase(const Uint160& id) {
  DHTLB_CHECK(!bulk_loading(), "FlatRing::erase during bulk load");
  const Cursor c = find(id);
  Entry* block = order_[c.block];
  const std::uint32_t size = --sizes_[c.block];
  free_slot(block[c.pos].slot);
  std::copy(block + c.pos + 1, block + size + 1, block + c.pos);
  --live_;
  if (size == 0) {
    // An emptied block leaves the order and goes back to the pool.
    spare_.push_back(block);
    order_.erase(order_.begin() + c.block);
    sizes_.erase(sizes_.begin() + c.block);
    maxes_.erase(maxes_.begin() + c.block);
  } else if (c.pos == size) {
    maxes_[c.block] = block[size - 1].id;
  }
}

void FlatRing::reserve(std::size_t n) {
  // Room for the blocks finalize_bulk will spread n entries over.
  bulk_.reserve((n + kBulkFill - 1) / kBulkFill * kBlockCapacity);
  ids_.reserve(n);
  owners_.reserve(n);
  sybils_.reserve(n);
  tasks_.reserve(n);
}

Slot FlatRing::bulk_append(const Uint160& id, NodeIndex owner,
                           bool is_sybil) {
  DHTLB_CHECK(order_.empty(), "FlatRing::bulk_append on a non-empty ring");
  const Slot slot = alloc_slot(id, owner, is_sybil);
  bulk_.push_back(Entry{id, slot});
  ++live_;
  return slot;
}

void FlatRing::finalize_bulk() {
  const std::size_t n = bulk_.size();
  if (n == 0) return;
  std::sort(bulk_.begin(), bulk_.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  // Spread the sorted entries kBulkFill to a block in place, last block
  // first so nothing is overwritten before it moves.  The buffer then
  // becomes the pool's first chunk: the load needs no second copy.
  const std::size_t blocks = (n + kBulkFill - 1) / kBulkFill;
  check_limits(blocks, ids_.size());
  bulk_.resize(blocks * kBlockCapacity);
  order_.resize(blocks);
  sizes_.resize(blocks);
  maxes_.resize(blocks);
  Entry* base = bulk_.data();
  for (std::size_t b = blocks; b-- > 0;) {
    const std::size_t from = b * kBulkFill;
    const std::size_t count = std::min(kBulkFill, n - from);
    Entry* block = base + b * kBlockCapacity;
    if (b > 0) {
      std::copy_backward(base + from, base + from + count, block + count);
    }
    order_[b] = block;
    sizes_[b] = static_cast<std::uint32_t>(count);
    maxes_[b] = block[count - 1].id;
  }
  chunks_.push_back(std::exchange(bulk_, {}));  // ends bulk mode
}

// --- introspection --------------------------------------------------------

bool FlatRing::index_consistent() const {
  if (bulk_loading()) return false;
  std::size_t pooled = 0;
  for (const std::vector<Entry>& chunk : chunks_) {
    pooled += chunk.size() / kBlockCapacity;
  }
  if (sizes_.size() != order_.size() || maxes_.size() != order_.size() ||
      order_.size() + spare_.size() != pooled) {
    return false;
  }
  // Every slot is live or on the free list, never both, never twice.
  std::vector<std::uint8_t> seen(ids_.size(), 0);
  for (const Slot s : free_slots_) {
    if (s >= ids_.size() || seen[s]) return false;
    seen[s] = 2;
  }
  std::size_t live = 0;
  const Uint160* prev = nullptr;
  for (std::size_t b = 0; b < order_.size(); ++b) {
    const Entry* block = order_[b];
    const std::uint32_t size = sizes_[b];
    if (size == 0 || size > kBlockCapacity) return false;
    if (maxes_[b] != block[size - 1].id) return false;
    for (std::uint32_t i = 0; i < size; ++i) {
      const Entry& e = block[i];
      if (prev != nullptr && !(*prev < e.id)) return false;
      prev = &e.id;
      if (e.slot >= ids_.size() || seen[e.slot]) return false;
      seen[e.slot] = 1;
      if (ids_[e.slot] != e.id) return false;
    }
    live += size;
  }
  if (live != live_) return false;
  return std::find(seen.begin(), seen.end(), 0) == seen.end();
}

}  // namespace dhtlb::sim
