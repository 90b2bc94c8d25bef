// The metric catalog: every metric the benchmark reports, with its unit
// and the direction that is better.  BENCHMARK.json lists the same
// names; the self-test checks that the two agree.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

/// Reported by every run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by traced runs only.
const std::vector<MetricDef>& per_layer_metrics();
/// End-to-end followed by per-layer.
std::vector<MetricDef> all_metrics();

/// A full set of catalog metrics, all starting at 0; set() refuses a
/// name outside the set, so every workload reports the same names.
class MetricSet {
 public:
  explicit MetricSet(std::vector<MetricDef> defs);
  void set(const std::string& name, double value);
  std::vector<Metric> take() const;

 private:
  std::vector<MetricDef> defs_;
  std::vector<double> values_;
};

}  // namespace perfbench
