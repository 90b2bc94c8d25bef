// Test helper: consume work from one node the way the tick engine does —
// World::consume_local() with the caller's RNG stream, then settle the
// global remaining-task counter with debit_remaining().  Tests pass the
// Rng they built the World with.
#pragma once

#include <cstdint>

#include "sim/world.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim::testing {

inline std::uint64_t consume(World& world, NodeIndex idx,
                             std::uint64_t budget, support::Rng& rng) {
  const std::uint64_t consumed = world.consume_local(idx, budget, rng);
  world.debit_remaining(consumed);
  return consumed;
}

}  // namespace dhtlb::sim::testing
