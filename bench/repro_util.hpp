// Shared plumbing for the paper-reproduction binaries (table*/fig*).
//
// Each binary regenerates one table or figure from the paper and prints
// (a) the paper's reported numbers alongside ours, where the paper gives
// them, and (b) the same rows/series layout, so shapes are comparable at
// a glance.  Trial counts default to a laptop-friendly fraction of the
// paper's 100 and scale up via DHTLB_TRIALS (see EXPERIMENTS.md).
//
// Every binary opens a Session, which owns the thread pool AND the
// telemetry collector (harness/telemetry.hpp): each printed number is
// also recorded as a structured JSON record, so CI can diff the run
// against a committed baseline without parsing the text tables.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "harness/telemetry.hpp"
#include "sim/params.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dhtlb::bench {

/// Prints the standard reproduction banner: what is being regenerated
/// and with how many trials.
inline void banner(const char* experiment_id, const char* description,
                   std::size_t trials) {
  std::printf("=== %s — %s ===\n", experiment_id, description);
  std::printf("trials per cell: %zu (override with DHTLB_TRIALS), seed %llu\n\n",
              trials,
              static_cast<unsigned long long>(support::env_seed()));
}

/// Base parameter set matching the paper's defaults (§V-B).
inline sim::Params paper_defaults(std::size_t nodes, std::uint64_t tasks) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

/// One reproduction run: banner, trial count, thread pool, telemetry.
/// `file_id` names the JSON output (BENCH_<file_id>.json) and should
/// match the binary name; `experiment_id` is the human-facing label
/// ("Table II").
class Session {
 public:
  Session(const char* file_id, const char* experiment_id,
          const char* description, std::size_t default_trials)
      : trials_(support::env_trials(default_trials)),
        pool_(support::env_threads()),
        telemetry_(file_id) {
    banner(experiment_id, description, trials_);
  }

  ~Session() {
    if (telemetry_.flush()) {
      std::printf("[telemetry] wrote %s\n", telemetry_.output_path().c_str());
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::size_t trials() const { return trials_; }
  support::ThreadPool& pool() { return pool_; }
  Telemetry& telemetry() { return telemetry_; }

  /// One mean-runtime-factor cell: runs the trials, records both the
  /// value and the wall time it took under `cell`.
  double mean_factor(const sim::Params& params, const char* strategy,
                     const std::string& cell) {
    const WallTimer timer;
    const double mean =
        exp::run_trials(params, strategy, trials_, support::env_seed(), &pool_)
            .runtime_factor.mean;
    telemetry_.record(cell, "runtime_factor_mean", mean, timer.elapsed_ms(),
                      trials_);
    return mean;
  }

  /// A whole grid of cells through ONE batched fan (exp::run_cells):
  /// threads drain the tail of one cell while starting the next, so the
  /// grid has a single pool barrier instead of one per cell.  Records
  /// each cell's mean runtime factor (wall_ms = 0: per-cell wall is not
  /// observable in a batched fan) plus one `__grid__`/wall_ms record
  /// for the whole fan, which is what CI's regression check tracks.
  std::vector<exp::Aggregate> run_grid(
      const std::vector<exp::CellSpec>& cells,
      const std::vector<std::string>& cell_labels,
      const std::string& grid_cell = "__grid__") {
    const WallTimer timer;
    auto aggs = exp::run_cells(cells, support::env_seed(), &pool_);
    // The grid record carries wall clock as its *value*, so it must be
    // zeroed in deterministic mode just like the wall_ms field.
    const double wall =
        Telemetry::deterministic() ? 0.0 : timer.elapsed_ms();
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      telemetry_.record(cell_labels[i], "runtime_factor_mean",
                        aggs[i].runtime_factor.mean, 0.0, cells[i].trials);
    }
    telemetry_.record(grid_cell, "wall_ms", wall, wall, trials_);
    return aggs;
  }

  /// Records a value computed outside the helpers above (figure series
  /// points, message counts, ...).  wall_ms defaults to 0 for derived
  /// values that cost nothing to produce.
  void record(const std::string& cell, const std::string& metric,
              double value, double wall_ms = 0.0, std::uint64_t trials = 0) {
    telemetry_.record(cell, metric, value, wall_ms,
                      trials == 0 ? trials_ : trials);
  }

 private:
  std::size_t trials_;
  support::ThreadPool pool_;
  Telemetry telemetry_;
};

}  // namespace dhtlb::bench
