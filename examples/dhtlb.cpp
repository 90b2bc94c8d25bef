// dhtlb — the simulator's command-line driver, one binary with four
// subcommands:
//
//   dhtlb run --strategy random-injection --nodes 1000 --tasks 100000
//   dhtlb run --strategy invitation --het --work-measure strength
//             --snapshots 0,5,35 --csv results/invite   (one line)
//   dhtlb scenario scenarios/flash_crowd.scn [--seed 7] [--audit]
//   dhtlb scenario scenarios/mass_failure.scn
//             --check scenarios/goldens/BENCH_scenario_mass_failure.json
//   dhtlb serve scenarios/serve_churn_soak.scn --readers 8 --traffic hotspot
//   dhtlb fuzz --profile mixed --seed 1337 --count 100 --audit
//
// `run` simulates one configuration over many trials (the paper's §V
// tables); `scenario` replays a .scn timeline; `serve` replays one with
// the serving plane attached; `fuzz` generates seeded timelines and runs
// each through `dhtlb scenario` in a child process per thread count.
//
// Every subcommand shares one flag-error path (a bad flag or value
// prints `dhtlb <sub>: <reason>` and exits 2), one seed resolution
// (--seed, then the script's `seed` header, then DHTLB_SEED), one
// --trace/--metrics sink opener (a flag overrides the script header
// key) and one telemetry emit: BENCH_<experiment>.json under
// DHTLB_BENCH_DIR (DHTLB_BENCH_JSON=0 disables it), or with --check
// FILE a byte comparison against a committed golden that exits 1 on any
// difference.  Scenario and serve telemetry are byte-stable for a fixed
// (file, seed) at any DHTLB_THREADS (and any --readers); trace and
// metrics files are too, and attaching them never changes the
// telemetry (see OBSERVABILITY.md).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "harness/telemetry.hpp"
#include "lb/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/world_corruptor.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace dhtlb;
namespace fs = std::filesystem;
using support::CliParser;

/// A run-time failure (unwritable file, golden mismatch): exit 1, as
/// does a std::filesystem error.  Every other exception escaping a
/// subcommand is bad input (a flag, value or script): exit 2.
struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `text` to `path`, creating missing parent directories.
void write_file(const fs::path& path, const std::string& text) {
  if (!exp::write_file(path.string(), text)) {
    throw Failure("cannot write " + path.string());
  }
}

/// Seed precedence: --seed, then the script's `seed` header, then
/// DHTLB_SEED.
std::uint64_t resolve_seed(const CliParser& cli,
                           const scenario::Script& script = {}) {
  return scenario::resolve_seed(script, cli.has("seed"),
                                cli.has("seed") ? cli.get_u64("seed") : 0,
                                support::env_seed());
}

/// The first positional must name a scenario file.
scenario::Script load_script(const CliParser& cli) {
  if (cli.positionals().size() != 1) {
    throw std::invalid_argument(
        "expected exactly one scenario file (see --help)");
  }
  return scenario::Script::load(cli.positionals()[0]);
}

/// The --trace / --metrics sinks.  A flag wins over the script's
/// `trace` / `metrics` header key; an empty path opens nothing.
class Sinks {
 public:
  Sinks(const CliParser& cli, const std::string& script_trace = {},
        const std::string& script_metrics = {})
      : trace_path_(cli.has("trace") ? cli.get("trace") : script_trace),
        metrics_path_(cli.has("metrics") ? cli.get("metrics")
                                         : script_metrics) {
    if (!trace_path_.empty()) {
      trace_file_.open(trace_path_, std::ios::binary | std::ios::trunc);
      if (!trace_file_) throw Failure("cannot write trace file " + trace_path_);
      trace_ = std::make_unique<obs::TraceSink>(trace_file_);
    }
    if (!metrics_path_.empty()) {
      metrics_file_.open(metrics_path_, std::ios::binary | std::ios::trunc);
      if (!metrics_file_) {
        throw Failure("cannot write metrics file " + metrics_path_);
      }
      metrics_ = std::make_unique<obs::MetricsRegistry>(metrics_file_);
    }
  }

  obs::TraceSink* trace() const { return trace_.get(); }
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Closes both sinks; `report` prints what was written.
  void close(bool report) {
    if (trace_) {
      trace_->close();
      if (report) {
        std::printf("wrote trace %s (%llu events; open in chrome://tracing)\n",
                    trace_path_.c_str(),
                    static_cast<unsigned long long>(trace_->event_count()));
      }
    }
    if (metrics_) {
      metrics_->flush();
      if (report) {
        std::printf("wrote metrics %s (%llu rows)\n", metrics_path_.c_str(),
                    static_cast<unsigned long long>(metrics_->rows_written()));
      }
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::ofstream trace_file_;
  std::ofstream metrics_file_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

/// The one telemetry emit: with --check FILE, byte-compares the JSON
/// against the golden; otherwise writes BENCH_<experiment>.json under
/// DHTLB_BENCH_DIR unless DHTLB_BENCH_JSON=0.
void emit_telemetry(const CliParser& cli, const std::string& experiment,
                    const std::vector<bench::Record>& records) {
  const std::string json = bench::to_json(experiment, records);
  const bool quiet = cli.get_bool("quiet");
  if (!cli.get("check").empty()) {
    const std::string golden_path = cli.get("check");
    if (!fs::is_regular_file(golden_path)) {
      throw Failure("cannot open golden " + golden_path);
    }
    const std::string golden = read_file(golden_path);
    if (golden != json) {
      throw Failure("telemetry differs from golden " + golden_path +
                    "\n--- golden ---\n" + golden + "--- got ---\n" + json);
    }
    std::printf("golden match: %s\n", golden_path.c_str());
    return;
  }
  if (!bench::Telemetry::json_enabled()) return;
  const fs::path path = fs::path(support::env_string("DHTLB_BENCH_DIR", ".")) /
                        ("BENCH_" + experiment + ".json");
  write_file(path, json);
  if (!quiet) std::printf("wrote %s\n", path.c_str());
}

/// Flags every replaying subcommand (scenario, serve) takes.
void add_replay_flags(CliParser& cli) {
  cli.add_flag("seed", "N", "", "override the RNG seed (default: the "
               "script's `seed` header, then DHTLB_SEED)");
  cli.add_flag("audit", "", "", "run the per-tick invariant auditor");
  cli.add_flag("check", "FILE", "",
               "compare the telemetry JSON against a golden file and exit "
               "1 on any byte difference (implies no file output)");
  cli.add_flag("trace", "FILE", "",
               "write a Chrome trace_event JSON of the run (overrides the "
               "script's `trace` header)");
  cli.add_flag("metrics", "FILE", "",
               "write per-tick metrics JSONL (overrides the script's "
               "`metrics` header; see OBSERVABILITY.md)");
  cli.add_flag("quiet", "", "", "suppress the metric table on stdout");
}

// --- run --------------------------------------------------------------------

void run_flags(CliParser& cli) {
  cli.add_flag("strategy", "name", "random-injection",
               "balancing strategy (see --list-strategies)");
  cli.add_flag("nodes", "n", "1000", "initial network size");
  cli.add_flag("tasks", "n", "100000", "job size in tasks");
  cli.add_flag("churn", "rate", "0", "per-tick leave/join probability");
  cli.add_flag("het", "", "", "heterogeneous strengths U{1..max-sybils}");
  cli.add_flag("work-measure", "one|strength", "one",
               "tasks consumed per tick");
  cli.add_flag("threshold", "tasks", "0", "sybilThreshold");
  cli.add_flag("successors", "k", "5", "successor/predecessor list size");
  cli.add_flag("max-sybils", "k", "5", "Sybil cap / strength ceiling");
  cli.add_flag("mark-failed-ranges", "", "",
               "neighbor injection: skip arcs that yielded nothing");
  cli.add_flag("trials", "n", "1", "independent trials to aggregate");
  cli.add_flag("seed", "s", "", "base seed (default: DHTLB_SEED)");
  cli.add_flag("snapshots", "t1,t2,...", "",
               "capture workload snapshots at these ticks (1 trial)");
  cli.add_flag("csv", "prefix", "",
               "write <prefix>_summary.csv (+ per-snapshot CSVs)");
  cli.add_flag("trace", "file", "",
               "write a Chrome trace_event JSON of one extra trial at the "
               "base seed");
  cli.add_flag("metrics", "file", "",
               "write per-tick metrics JSONL (same trial as --trace)");
  cli.add_flag("list-strategies", "", "", "print strategy names and exit");
}

int run_cmd(const CliParser& cli) {
  if (cli.get_bool("list-strategies")) {
    std::printf("paper strategies:\n");
    for (const auto name : lb::strategy_names()) {
      std::printf("  %s\n", std::string(name).c_str());
    }
    std::printf("extensions (SS VII future work):\n");
    for (const auto name : lb::extension_strategy_names()) {
      std::printf("  %s\n", std::string(name).c_str());
    }
    return 0;
  }

  sim::Params params;
  params.initial_nodes = cli.get_u64("nodes");
  params.total_tasks = cli.get_u64("tasks");
  params.churn_rate = cli.get_double("churn");
  params.heterogeneous = cli.get_bool("het");
  const std::string measure = cli.get("work-measure");
  if (measure != "one" && measure != "strength") {
    throw std::invalid_argument("--work-measure: expected one or strength: " +
                                measure);
  }
  params.work_measure = measure == "strength"
                            ? sim::WorkMeasure::kStrengthPerTick
                            : sim::WorkMeasure::kOneTaskPerTick;
  params.sybil_threshold = cli.get_u64("threshold");
  params.num_successors = cli.get_u64("successors");
  const std::uint64_t max_sybils = cli.get_u64("max-sybils");
  if (max_sybils > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument("--max-sybils: out of range: " +
                                cli.get("max-sybils"));
  }
  params.max_sybils = static_cast<unsigned>(max_sybils);
  params.mark_failed_ranges = cli.get_bool("mark-failed-ranges");

  const std::string strategy = cli.get("strategy");
  const std::uint64_t seed = resolve_seed(cli);
  const std::size_t trials = cli.get_u64("trials");
  if (trials == 0) throw std::invalid_argument("--trials must be >= 1");
  const auto snapshot_ticks = cli.get_u64_list("snapshots");
  params.validate();
  (void)lb::make_strategy(strategy);

  std::printf("config: %s\nstrategy: %s, %zu trial(s), seed %llu\n\n",
              params.describe().c_str(), strategy.c_str(), trials,
              static_cast<unsigned long long>(seed));

  support::ThreadPool pool(support::env_threads());
  const exp::Aggregate agg =
      exp::run_trials(params, strategy, trials, seed, &pool);

  // Observability: one dedicated single trial at the base seed, kept
  // apart from the aggregate trials so multi-threaded trial scheduling
  // cannot interleave sink writes — the files stay byte-deterministic
  // at any DHTLB_THREADS.
  if (cli.has("trace") || cli.has("metrics")) {
    Sinks sinks(cli);
    sim::Engine engine(params, seed, lb::make_strategy(strategy));
    engine.set_trace(sinks.trace());
    engine.set_metrics(sinks.metrics());
    (void)engine.run();
    sinks.close(true);
  }

  support::TextTable table({"metric", "value"});
  table.add_row({"runtime factor (mean)",
                 support::format_fixed(agg.runtime_factor.mean, 3)});
  table.add_row({"runtime factor (min..max)",
                 support::format_fixed(agg.runtime_factor.min, 3) + " .. " +
                     support::format_fixed(agg.runtime_factor.max, 3)});
  table.add_row({"ticks (mean)", support::format_fixed(agg.ticks.mean, 1)});
  table.add_row({"completion rate",
                 support::format_fixed(agg.completion_rate * 100.0, 1) + "%"});
  table.add_row({"sybils/trial",
                 support::format_fixed(agg.mean_sybils_created, 1)});
  table.add_row({"leaves/trial", support::format_fixed(agg.mean_leaves, 1)});
  table.add_row({"queries/trial",
                 support::format_fixed(agg.mean_workload_queries, 1)});
  std::printf("%s", table.render().c_str());

  const std::string csv_prefix = cli.get("csv");
  if (!csv_prefix.empty()) {
    const auto row = exp::to_row("cli", params.describe(), agg);
    write_file(csv_prefix + "_summary.csv", exp::rows_to_csv({row}));
    std::printf("\nwrote %s_summary.csv\n", csv_prefix.c_str());
  }

  if (!snapshot_ticks.empty()) {
    const auto run =
        exp::run_with_snapshots(params, strategy, seed, snapshot_ticks);
    for (const auto& snap : run.snapshots) {
      std::printf("\nsnapshot at tick %llu: %zu nodes, %llu tasks left\n",
                  static_cast<unsigned long long>(snap.tick),
                  snap.workloads.size(),
                  static_cast<unsigned long long>(snap.remaining_tasks));
      if (!csv_prefix.empty()) {
        const std::string path =
            csv_prefix + "_tick" + std::to_string(snap.tick) + ".csv";
        write_file(path, exp::snapshot_to_csv(snap));
        std::printf("wrote %s\n", path.c_str());
      }
    }
  }
  return 0;
}

// --- scenario ---------------------------------------------------------------

int scenario_cmd(const CliParser& cli) {
  const scenario::Script script = load_script(cli);
  const std::uint64_t seed = resolve_seed(cli, script);
  Sinks sinks(cli, script.trace_path, script.metrics_path);
  scenario::ObsSinks obs{sinks.trace(), sinks.metrics(), {}};

  // Test-only fault injection for the fuzz campaign's negative control:
  // at the first tick barrier at or after DHTLB_FUZZ_CORRUPT, bump the
  // world's remaining-task counter behind the engine's back.  The
  // post-tick hook runs before the engine's audit fold, so an --audit
  // run aborts the same tick — proving the fuzz oracle actually fires.
  const std::uint64_t corrupt_tick = support::env_u64("DHTLB_FUZZ_CORRUPT", 0);
  if (corrupt_tick != 0) {
    obs.configure_engine = [corrupt_tick](sim::Engine& engine) {
      auto fired = std::make_shared<bool>(false);
      engine.set_post_tick_hook(
          [corrupt_tick, fired, &engine](std::uint64_t tick) {
            if (*fired || tick < corrupt_tick) return;
            *fired = true;
            sim::testing::WorldCorruptor::inflate_remaining(engine.world());
          });
    };
  }

  const scenario::ScenarioResult result =
      scenario::run_scenario(script, seed, cli.get_bool("audit"), obs);
  const bool quiet = cli.get_bool("quiet");
  if (!quiet) {
    std::printf("%s (seed %llu)\n", result.experiment.c_str(),
                static_cast<unsigned long long>(seed));
    for (const bench::Record& rec : result.records) {
      std::printf("  %-28s %.17g\n", rec.metric.c_str(), rec.value);
    }
  }
  sinks.close(!quiet);
  emit_telemetry(cli, result.experiment, result.records);
  return 0;
}

// --- serve ------------------------------------------------------------------
//
// Replays a sim-substrate scenario while N reader threads resolve key
// lookups against frozen ring snapshots.  The telemetry (lookup and batch
// counts, hop statistics, Sybil-absorption fraction, owner-hit skew,
// view-lifecycle counters) is a pure function of (scenario, seed,
// --traffic, --qps, --keys): --readers and DHTLB_THREADS never change a
// byte.  The only wall-derived rows, the per-lookup latency
// percentiles, are recorded under the metric name "wall_ms" (which
// scripts/compare_bench.py's value gate skips) and zeroed in
// DHTLB_BENCH_DETERMINISTIC mode, where latency capture is off.

void serve_flags(CliParser& cli) {
  cli.add_flag("readers", "N", "4",
               "reader worker threads serving lookups (execution knob: "
               "results are byte-identical at any setting)");
  cli.add_flag("traffic", "MODEL", "zipf",
               "key distribution: uniform | zipf | hotspot");
  cli.add_flag("qps", "N", "2000",
               "lookups per tick (one batch per published ring view)");
  cli.add_flag("keys", "N", "100000",
               "zipf key-universe size (zipf traffic only; <= 2^22)");
  add_replay_flags(cli);
}

int serve_cmd(const CliParser& cli) {
  const scenario::Script script = load_script(cli);
  if (script.substrate != scenario::Substrate::kSim) {
    throw std::invalid_argument(
        "the serving plane attaches to the sim substrate only (script "
        "declares `substrate chord`)");
  }
  serve::Config config;
  config.readers = cli.get_u64("readers");
  if (config.readers == 0) throw std::invalid_argument("--readers must be >= 1");
  const auto traffic = serve::parse_traffic(cli.get("traffic"));
  if (!traffic) {
    throw std::invalid_argument("unknown --traffic: " + cli.get("traffic"));
  }
  config.traffic = *traffic;
  config.lookups_per_tick = cli.get_u64("qps");
  config.traffic_config.key_universe = cli.get_u64("keys");
  if (config.traffic_config.key_universe == 0 ||
      config.traffic_config.key_universe > serve::kMaxKeyUniverse) {
    throw std::invalid_argument("--keys must be in [1, 2^22]: " +
                                cli.get("keys"));
  }
  config.measure_latency = !bench::Telemetry::deterministic();
  const std::uint64_t seed = resolve_seed(cli, script);
  Sinks sinks(cli, script.trace_path, script.metrics_path);

  serve::Service service(config, seed);
  service.set_metrics(sinks.metrics());
  service.set_trace(sinks.trace());
  scenario::ObsSinks obs{sinks.trace(), sinks.metrics(),
                         [&service](sim::Engine& engine) {
                           service.attach(engine);
                         }};

  const bench::WallTimer timer;
  const scenario::ScenarioResult sim_result =
      scenario::run_scenario(script, seed, cli.get_bool("audit"), obs);
  // The engine is gone; the final batch may still be in flight against
  // the last published view — drain() is the run's closing barrier.
  service.drain();
  const double wall_ms =
      bench::Telemetry::deterministic() ? 0.0 : timer.elapsed_ms();

  const serve::Report rep = service.report();
  const std::string experiment = "serve_" + script.name;
  const std::string cell(serve::traffic_name(config.traffic));
  // No record carries --readers or DHTLB_THREADS: the whole file must
  // byte-compare across the (threads x readers) matrix.
  std::vector<bench::Record> records;
  auto push = [&](const std::string& rec_cell, const std::string& metric,
                  double value, double rec_wall_ms = 0.0) {
    bench::Record rec;
    rec.experiment = experiment;
    rec.cell = rec_cell;
    rec.metric = metric;
    rec.value = value;
    rec.wall_ms = rec_wall_ms;
    rec.seed = seed;
    rec.trials = 1;
    records.push_back(rec);
  };
  push(cell, "lookups", static_cast<double>(rep.lookups));
  push(cell, "batches", static_cast<double>(rep.batches));
  push(cell, "hops_mean", rep.hops_mean);
  push(cell, "hops_p50", rep.hops_p50);
  push(cell, "hops_p99", rep.hops_p99);
  push(cell, "hops_max", static_cast<double>(rep.hops_max));
  push(cell, "sybil_hit_fraction", rep.sybil_hit_fraction);
  push(cell, "owners_hit", static_cast<double>(rep.owners_hit));
  push(cell, "owner_hits_gini", rep.owner_hits_gini);
  push(cell, "owner_hits_max_over_mean", rep.owner_hits_max_over_mean);
  push(cell, "views_published", static_cast<double>(rep.views.published));
  push(cell, "views_reclaimed", static_cast<double>(rep.views.reclaimed));
  push(cell, "views_retire_depth_max",
       static_cast<double>(rep.views.retire_depth_max));
  push(cell + "/latency_p50_ns", "wall_ms", rep.latency_p50_ns, wall_ms);
  push(cell + "/latency_p99_ns", "wall_ms", rep.latency_p99_ns, wall_ms);

  const bool quiet = cli.get_bool("quiet");
  if (!quiet) {
    std::printf("%s (seed %llu, traffic %s, %s)\n", experiment.c_str(),
                static_cast<unsigned long long>(seed), cell.c_str(),
                sim_result.experiment.c_str());
    for (const bench::Record& rec : records) {
      std::printf("  %-28s %.17g\n",
                  (rec.metric == "wall_ms" ? rec.cell : rec.metric).c_str(),
                  rec.value);
    }
    if (wall_ms > 0.0) {
      std::printf("  %-28s %.0f\n", "lookups_per_sec",
                  static_cast<double>(rep.lookups) / (wall_ms / 1000.0));
      std::printf("  %-28s %.3f\n", "wall_ms", wall_ms);
    }
  }
  sinks.close(!quiet);
  emit_telemetry(cli, experiment, records);
  return 0;
}

// --- fuzz -------------------------------------------------------------------
//
// Generates seeded scripts and replays each with `dhtlb scenario` in a
// child process per thread count, checking two oracles: the per-tick
// invariant auditor (--audit; an audit failure aborts the child) and
// cross-thread telemetry byte-identity.  On the first failure it
// ddmin-shrinks the script against the same predicate and writes the
// failing and minimized .scn plus a REPRO.txt into --out-dir, then
// exits 1.  Script i of a batch is a pure function of (profile,
// mix_seed(--seed, --index + i)), so a REPRO line with `--index i
// --count 1` replays the exact failure.  Child processes isolate the
// campaign from aborts and give each thread count its own DHTLB_THREADS.

void fuzz_flags(CliParser& cli) {
  cli.add_flag("profile", "NAME", "mixed",
               "generator profile (see --list-profiles)");
  cli.add_flag("seed", "N", "", "batch base seed (default DHTLB_SEED); "
               "script i uses mix_seed(seed, index + i)");
  cli.add_flag("index", "N", "0", "first script index of the batch");
  cli.add_flag("count", "N", "1", "number of scripts to generate");
  cli.add_flag("audit", "", "",
               "run every script under the per-tick invariant auditor");
  cli.add_flag("threads-matrix", "LIST", "1,2,8",
               "comma-separated DHTLB_THREADS values; telemetry must be "
               "byte-identical across all of them");
  cli.add_flag("out-dir", "DIR", "fuzz-out",
               "scratch + failure-artifact directory");
  cli.add_flag("emit-dir", "DIR", "",
               "also write every generated .scn here (corpus)");
  cli.add_flag("emit-only", "", "",
               "generate and write scripts without running them "
               "(requires --emit-dir)");
  cli.add_flag("list-profiles", "", "", "list generator profiles and exit");
  cli.add_flag("quiet", "", "", "suppress per-script progress lines");
}

std::string shell_quote(const std::string& s) {
  std::string quoted = "'";
  for (const char c : s) {
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return quoted + "'";
}

/// Path of this very binary, which the child runs re-invoke.
std::string self_exe(const char* argv0) {
  std::error_code ec;
  const fs::path proc = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(argv0) : proc.string();
}

struct Campaign {
  std::string exe;
  std::vector<std::uint64_t> threads;
  bool audit = false;
  fs::path scratch;

  /// Runs `script` once per thread count; returns the failure reason
  /// (a nonzero child exit or a cross-thread telemetry difference), or
  /// an empty string when every run passed and agreed.
  std::string check(const scenario::Script& script) const {
    const fs::path scn = scratch / "candidate.scn";
    write_file(scn, scenario::emit_script(script));
    const fs::path err = scratch / "child.err";
    std::string reference;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const std::uint64_t t = threads[i];
      fs::path dir = scratch / "t";
      dir += std::to_string(t);
      const fs::path json = dir / ("BENCH_scenario_" + script.name + ".json");
      fs::remove(json);
      const std::string cmd =
          "DHTLB_THREADS=" + std::to_string(t) + " DHTLB_BENCH_JSON=1" +
          " DHTLB_BENCH_DIR=" + shell_quote(dir.string()) + " " +
          shell_quote(exe) + " scenario " + shell_quote(scn.string()) +
          (audit ? " --audit" : "") + " --quiet > /dev/null 2> " +
          shell_quote(err.string());
      const int status = std::system(cmd.c_str());
      if (status != 0) {
        return "child exited with status " + std::to_string(status) +
               " at DHTLB_THREADS=" + std::to_string(t) +
               "\n--- child stderr ---\n" + read_file(err);
      }
      const std::string telemetry = read_file(json);
      if (i == 0) {
        reference = telemetry;
      } else if (telemetry != reference) {
        return "telemetry differs between DHTLB_THREADS=" +
               std::to_string(threads.front()) + " and " + std::to_string(t);
      }
    }
    return {};
  }
};

int fuzz_cmd(const CliParser& cli, const char* argv0) {
  if (cli.get_bool("list-profiles")) {
    for (const std::string_view name : scenario::fuzz_profiles()) {
      std::printf("%.*s\n", static_cast<int>(name.size()), name.data());
    }
    return 0;
  }
  const std::string profile = cli.get("profile");
  if (!scenario::is_fuzz_profile(profile)) {
    throw std::invalid_argument("unknown profile '" + profile +
                                "' (see --list-profiles)");
  }
  const std::uint64_t base_seed = resolve_seed(cli);
  const std::uint64_t first_index = cli.get_u64("index");
  const std::uint64_t count = cli.get_u64("count");
  const bool quiet = cli.get_bool("quiet");
  const bool emit_only = cli.get_bool("emit-only");
  const fs::path out_dir = cli.get("out-dir");
  const fs::path emit_dir = cli.get("emit-dir");
  Campaign campaign{self_exe(argv0), cli.get_u64_list("threads-matrix"),
                    cli.get_bool("audit"), out_dir / "work"};
  if (campaign.threads.empty()) {
    throw std::invalid_argument("--threads-matrix must not be empty");
  }
  if (emit_only && emit_dir.empty()) {
    throw std::invalid_argument("--emit-only requires --emit-dir");
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = first_index + i;
    const std::uint64_t script_seed = support::mix_seed(base_seed, index);
    const scenario::Script script =
        scenario::generate_script(profile, script_seed);
    const std::string text = scenario::emit_script(script);
    // The generator must be a pure function of (profile, seed):
    // regenerate and byte-compare before trusting any repro line.
    if (scenario::emit_script(
            scenario::generate_script(profile, script_seed)) != text) {
      throw Failure("generator is not deterministic for seed " +
                    std::to_string(script_seed));
    }
    if (!emit_dir.empty()) write_file(emit_dir / (script.name + ".scn"), text);
    if (emit_only) {
      if (!quiet) std::printf("[%llu] emitted %s.scn\n",
                              static_cast<unsigned long long>(index),
                              script.name.c_str());
      continue;
    }
    const std::string reason = campaign.check(script);
    if (reason.empty()) {
      if (!quiet) std::printf("[%llu] %s ok\n",
                              static_cast<unsigned long long>(index),
                              script.name.c_str());
      continue;
    }

    std::cerr << "dhtlb fuzz: FAILURE on " << script.name << ": " << reason
              << "\n";
    const scenario::Script minimized = scenario::shrink_script(
        script, [&](const scenario::Script& candidate) {
          return !campaign.check(candidate).empty();
        });
    const fs::path failing = out_dir / (script.name + ".failing.scn");
    const fs::path min_path = out_dir / (script.name + ".minimized.scn");
    write_file(failing, text);
    write_file(min_path, scenario::emit_script(minimized));
    const std::string audit_flag = campaign.audit ? " --audit" : "";
    std::ostringstream repro;
    repro << "profile: " << profile << "\n"
          << "script seed: " << script_seed << " (base " << base_seed
          << ", index " << index << ")\n"
          << "failure: " << reason << "\n"
          << "minimized blocks: " << minimized.blocks.size() << "\n"
          << "repro (batch):  dhtlb fuzz --profile " << profile << " --seed "
          << base_seed << " --index " << index << " --count 1" << audit_flag
          << " --threads-matrix " << cli.get("threads-matrix") << "\n"
          << "repro (single): dhtlb scenario " << min_path.string()
          << audit_flag << "\n";
    write_file(out_dir / (script.name + ".REPRO.txt"), repro.str());
    std::cerr << "dhtlb fuzz: wrote " << failing.string() << ", "
              << min_path.string() << " (" << minimized.blocks.size()
              << " block(s)) and REPRO.txt\n";
    return 1;
  }
  if (!quiet) {
    std::printf("dhtlb fuzz: %llu script(s) %s (profile %s, base seed %llu)\n",
                static_cast<unsigned long long>(count),
                emit_only ? "emitted" : "passed", profile.c_str(),
                static_cast<unsigned long long>(base_seed));
  }
  return 0;
}

// --- dispatch ---------------------------------------------------------------

struct Subcommand {
  const char* name;
  const char* usage;
  const char* summary;
  void (*flags)(CliParser&);
};

constexpr Subcommand kSubcommands[] = {
    {"run", "dhtlb run",
     "Simulate one configuration over independent trials (Rosen et al. "
     "2021 reproduction).",
     run_flags},
    {"scenario", "dhtlb scenario <scenario.scn>",
     "Run a scripted scenario deterministically and emit "
     "BENCH_scenario_<name>.json telemetry.",
     add_replay_flags},
    {"serve", "dhtlb serve <scenario.scn>",
     "Replay a sim scenario with concurrent key-lookup serving over frozen "
     "ring snapshots; emit BENCH_serve_<name>.json telemetry.",
     serve_flags},
    {"fuzz", "dhtlb fuzz",
     "Seeded scenario fuzzer: generates .scn timelines, runs each under "
     "the invariant auditor across a thread matrix, and shrinks failures "
     "to a minimized repro.",
     fuzz_flags},
};

int usage(std::FILE* out) {
  std::fprintf(out, "usage: dhtlb <subcommand> [flags]   (dhtlb <subcommand> "
                    "--help for its flags)\n\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(out, "  %-10s %s\n", sub.name, sub.summary);
  }
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  if (name == "--help" || name == "help") return usage(stdout);
  const Subcommand* sub = nullptr;
  for (const Subcommand& candidate : kSubcommands) {
    if (name == candidate.name) sub = &candidate;
  }
  if (sub == nullptr) {
    if (!name.empty()) std::fprintf(stderr, "dhtlb: unknown subcommand '%s'\n",
                                    name.c_str());
    return usage(stderr);
  }

  CliParser cli;
  sub->flags(cli);
  cli.add_flag("help", "", "", "show this help");
  try {
    if (!cli.parse(argc - 1, argv + 1)) throw std::invalid_argument(cli.error());
    if (cli.get_bool("help")) {
      std::printf("%s", cli.help(sub->usage, sub->summary).c_str());
      return 0;
    }
    if (name == "run") return run_cmd(cli);
    if (name == "scenario") return scenario_cmd(cli);
    if (name == "serve") return serve_cmd(cli);
    return fuzz_cmd(cli, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtlb %s: %s\n", sub->name, e.what());
    const bool failure =
        dynamic_cast<const Failure*>(&e) != nullptr ||
        dynamic_cast<const fs::filesystem_error*>(&e) != nullptr;
    return failure ? 1 : 2;
  }
}
