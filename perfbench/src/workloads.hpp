// The benchmark's four workloads, driven through dhtlb's public API.
//
// Every workload repeats a fixed unit of work (an "episode": one engine
// run over a fixed horizon, or one exp::run_cells grid): an untimed
// warm-up, then as many measured units as the workload's nominal unit
// length fits into the requested seconds, at least one.
// Units of one run share their inputs, so their simulated outputs must
// agree bit for bit.  After the warm-up a traced run alternates traced
// and untraced units; the traced ones wrap the strategy and the serve
// barrier in spans and give the per-layer numbers, the untraced ones
// the baseline for trace.overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// kTiny shrinks every workload to a smoke test that runs in well under
/// a second; the metric set is the same.
enum class Size { kFull, kTiny };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness checks: every one that runs counts into `attempted`,
/// every failure into `failed` and is printed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what);
};

struct Result {
  std::vector<Metric> metrics;  // end-to-end; plus per-layer when traced
  std::vector<std::string> notes;  // human-readable context lines
  Checks checks;
  std::vector<std::vector<Span>> traces;  // the spans of each traced unit
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Result run_workload(const std::string& name, std::uint64_t seed,
                    double seconds, bool trace, Size size);

}  // namespace perfbench
