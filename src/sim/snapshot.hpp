// Workload snapshots: the raw material of the paper's Figures 4-14.
//
// A snapshot captures each alive physical node's workload at the end of
// a given tick (equivalently, "the beginning of tick t+1" in the paper's
// phrasing).  Snapshot tick 0 is the initial assignment before any work
// or balancing.
#pragma once

#include <cstdint>
#include <vector>

namespace dhtlb::sim {

struct Snapshot {
  std::uint64_t tick = 0;
  std::vector<std::uint64_t> workloads;  // one entry per alive physical node
  std::uint64_t remaining_tasks = 0;
  std::size_t vnode_count = 0;
};

}  // namespace dhtlb::sim
