#include "catalog.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"ticks_per_s", "1/s", "higher"},
      {"tick_ms_p50", "ms", "lower"},
      {"tick_ms_tail", "ms", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
      {"done_frac", "ratio", "higher"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.construct_ms", "ms", "lower"},
      {"sim.step_ms", "ms", "lower"},
      {"sim.step_self_ms", "ms", "lower"},
      {"sim.step_self_ms_p50", "ms", "lower"},
      {"sim.self_ns_per_vnode_tick", "ns/vnode-tick", "lower"},
      {"sim.ticks", "count", "higher"},
      {"sim.joins", "count", "lower"},
      {"sim.leaves", "count", "lower"},
      {"sim.arrivals", "count", "higher"},
      {"sim.tasks_done", "count", "higher"},
      {"sim.vnodes_final", "count", "lower"},
      {"sim.membership_changes", "count", "lower"},
      {"sim.load_gini", "ratio", "lower"},
      {"lb.decide_ms", "ms", "lower"},
      {"lb.decide_ms_p50", "ms", "lower"},
      {"lb.decide_ns_per_sybil_op", "ns/op", "lower"},
      {"lb.decisions", "count", "lower"},
      {"lb.sybils_created", "count", "lower"},
      {"lb.sybils_retired", "count", "lower"},
      {"lb.failed_placements", "count", "lower"},
      {"lb.tasks_acquired", "count", "higher"},
      {"lb.workload_queries", "count", "lower"},
      {"lb.placement_yield", "ratio", "higher"},
      {"serve.attach_ms", "ms", "lower"},
      {"serve.barrier_ms", "ms", "lower"},
      {"serve.barrier_ms_p50", "ms", "lower"},
      {"serve.drain_ms", "ms", "lower"},
      {"serve.lookups", "count", "higher"},
      {"serve.batches", "count", "higher"},
      {"serve.views_published", "count", "higher"},
      {"serve.views_reclaimed", "count", "higher"},
      {"serve.retire_depth_max", "count", "lower"},
      {"serve.lookups_per_s", "1/s", "higher"},
      {"serve.hops_mean", "hops", "lower"},
      {"exp.run_cells_ms", "ms", "lower"},
      {"exp.trials", "count", "higher"},
      {"exp.fan_efficiency", "ratio", "higher"},
      {"exp.runtime_factor", "ratio", "lower"},
      {"exp.runtime_factor.none", "ratio", "lower"},
      {"exp.runtime_factor.churn", "ratio", "lower"},
      {"exp.runtime_factor.random-injection", "ratio", "lower"},
      {"exp.runtime_factor.neighbor-injection", "ratio", "lower"},
      {"exp.runtime_factor.smart-neighbor-injection", "ratio", "lower"},
      {"exp.runtime_factor.invitation", "ratio", "lower"},
      {"audit.ms", "ms", "lower"},
      {"proc.cpu_util", "ratio", "higher"},
      {"run.wall_ms", "ms", "lower"},
      {"run.self_ms", "ms", "lower"},
      {"trace.overhead", "ratio", "lower"},
  };
  return defs;
}

std::vector<MetricDef> all_metrics() {
  std::vector<MetricDef> defs = end_to_end_metrics();
  const auto& layer = per_layer_metrics();
  defs.insert(defs.end(), layer.begin(), layer.end());
  return defs;
}

MetricSet::MetricSet(std::vector<MetricDef> defs)
    : defs_(std::move(defs)), values_(defs_.size(), 0.0) {}

void MetricSet::set(const std::string& name, double value) {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) {
      values_[i] = value;
      return;
    }
  }
  throw std::logic_error("metric '" + name + "' is not in the catalog");
}

std::vector<Metric> MetricSet::take() const {
  std::vector<Metric> out;
  out.reserve(defs_.size());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    out.push_back(Metric{defs_[i].name, values_[i], defs_[i].unit});
  }
  return out;
}

}  // namespace perfbench
