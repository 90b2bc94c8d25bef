#include "serve/ring_view.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dhtlb::serve {

RingView RingView::freeze(const sim::World& world) {
  RingView view;
  const std::size_t n = world.vnode_count();
  DHTLB_CHECK(n > 0, "RingView::freeze: ring is empty");
  view.ids_.reserve(n);
  view.owners_.reserve(n);
  view.sybils_.reserve(n);
  world.for_each_arc([&](const sim::ArcView& arc) {
    view.ids_.push_back(arc.id);
    view.owners_.push_back(arc.owner);
    view.sybils_.push_back(arc.is_sybil ? 1 : 0);
  });
  return view;
}

std::size_t RingView::cover(const Uint160& key) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (it == ids_.end()) return 0;  // wrap past zero to the smallest id
  return static_cast<std::size_t>(it - ids_.begin());
}

RingView::Route RingView::route(const Uint160& key,
                                std::size_t origin) const {
  DHTLB_ASSERT(origin < ids_.size(),
               "RingView::route: origin " << origin << " out of range");
  Route r;
  r.index = origin;
  const std::size_t target = cover(key);
  while (r.index != target) {
    // Clockwise distance from the current vnode to the key.  Nonzero
    // here: key == id(cur) would make cur its own cover.
    const Uint160 dist = key - ids_[r.index];
    // Longest finger not overshooting the key: id + 2^b with
    // 2^b <= dist.  The vnode covering that point lies in (cur, key]
    // clockwise, so the remaining distance drops below 2^b — at least a
    // halving per hop.
    const int b = dist.bit_length() - 1;
    r.index = cover(ids_[r.index] + Uint160::pow2(b));
    ++r.hops;
    DHTLB_CHECK(r.hops < kMaxHops,
                "RingView::route: " << r.hops
                                    << " hops without convergence — "
                                       "corrupt snapshot");
  }
  return r;
}

}  // namespace dhtlb::serve
