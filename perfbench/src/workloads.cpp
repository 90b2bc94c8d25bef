#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "catalog.hpp"
#include "exp/experiment.hpp"
#include "lb/factory.hpp"
#include "serve/service.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "stats/load_metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::printf("check FAILED: %s\n", what.c_str());
}

namespace {

using namespace dhtlb;

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Sums span durations and self times by name over traced episodes.
struct LayerTimes {
  std::map<std::string, std::int64_t> total_ns;
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::vector<double>> self_ms;  // one per span
  std::map<std::string, std::vector<double>> dur_ms;

  void add(const std::vector<Span>& spans) {
    const std::vector<std::int64_t> self = perfbench::self_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      total_ns[name] += spans[i].duration_ns();
      self_ns[name] += self[i];
      self_ms[name].push_back(to_ms(self[i]));
      dur_ms[name].push_back(to_ms(spans[i].duration_ns()));
    }
  }
  double total_ms(const std::string& name) const {
    const auto it = total_ns.find(name);
    return it == total_ns.end() ? 0.0 : to_ms(it->second);
  }
  double self_total_ms(const std::string& name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : to_ms(it->second);
  }
  double self_p50_ms(const std::string& name) const {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : percentile(it->second, 50.0);
  }
  double dur_p50_ms(const std::string& name) const {
    const auto it = dur_ms.find(name);
    return it == dur_ms.end() ? 0.0 : percentile(it->second, 50.0);
  }
};

/// True when the self times of all spans add up to `wall_ns`, a wall
/// time the caller measured with its own clock reads around the unit,
/// to within 1%: every span lies inside one "run" root that covers the
/// unit.
bool self_times_match_wall(const std::vector<Span>& spans,
                           std::int64_t wall_ns) {
  std::int64_t sum = 0;
  for (const std::int64_t ns : self_ns(spans)) sum += ns;
  return wall_ns > 0 && std::llabs(sum - wall_ns) * 100 <= wall_ns;
}

/// Unit 0 of every run (episode or grid) is a warm-up: it runs in a cold
/// process, whose page faults and empty allocator slow it by 10-40% and
/// by a different amount each run.  Its outputs are checked and it is
/// audited, but no timing comes from it.
///
/// After it a run measures as many untraced units as the workload's
/// nominal unit length fits into `seconds`, at least one.  The count
/// depends on `seconds` alone, so every run of a workload pools the same
/// number of samples and picks the same tail percentile.  A traced run
/// goes warm-up, traced, untraced, ..., traced, untraced (unit i is
/// traced when i is odd), so every traced unit has a warm untraced one
/// to compare with.
std::size_t run_units(double seconds, double unit_s, bool trace) {
  const std::size_t measured =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / unit_s));
  return 1 + (trace ? 2 * measured : measured);
}

/// Mean traced wall over mean untraced wall, minus 1, leaving out the
/// warm-up.
double trace_overhead(const std::vector<std::pair<bool, std::int64_t>>& walls) {
  double traced = 0.0;
  double untraced = 0.0;
  std::size_t n_traced = 0;
  std::size_t n_untraced = 0;
  for (std::size_t i = 1; i < walls.size(); ++i) {
    if (walls[i].first) {
      traced += static_cast<double>(walls[i].second);
      ++n_traced;
    } else {
      untraced += static_cast<double>(walls[i].second);
      ++n_untraced;
    }
  }
  if (n_traced == 0 || n_untraced == 0) return 0.0;
  return (traced / static_cast<double>(n_traced)) /
             (untraced / static_cast<double>(n_untraced)) -
         1.0;
}

void add_end_to_end(MetricSet& m, double setup_s, double ticks_per_s,
                    const std::vector<double>& tick_ms, double peak_rss,
                    double done_frac, std::vector<std::string>& notes) {
  const Tail t = tail(tick_ms);
  m.set("setup_s", setup_s);
  m.set("ticks_per_s", ticks_per_s);
  m.set("tick_ms_p50", percentile(tick_ms, 50.0));
  m.set("tick_ms_tail", t.value);
  m.set("peak_rss_mib", peak_rss);
  m.set("done_frac", done_frac);
  char line[160];
  std::snprintf(line, sizeof line,
                "tick_ms_tail is p%g of %zu samples; tick_ms_p50 of the same",
                t.percentile, t.samples);
  notes.emplace_back(line);
}

// ---------------------------------------------------------------------
// Tick workloads: one engine stepped over a fixed horizon.

struct TickSpec {
  sim::Params params;
  std::string strategy;
  std::size_t engine_threads = 1;
  bool serve = false;
  serve::Config serve_config;
  double unit_s = 10.0;           // nominal episode wall time
  std::size_t setup_samples = 7;  // at least this many setups per run
};

/// Streamed provisioning at capacity, as in bench/tableD_dense_scale:
/// the job is twice the horizon's capacity and arrives at the initial
/// capacity per tick, so the ring stays under load for the whole
/// horizon while the resident backlog stays bounded.
TickSpec at_capacity(std::size_t nodes, std::uint64_t horizon, double churn,
                     std::string strategy) {
  TickSpec spec;
  sim::Params& p = spec.params;
  p.initial_nodes = nodes;
  p.total_tasks = 2 * static_cast<std::uint64_t>(nodes) * horizon;
  p.churn_rate = churn;
  p.max_ticks = horizon;
  p.provisioning = sim::TaskProvisioning::kStreamed;
  p.arrival_ticks = 0;
  spec.strategy = std::move(strategy);
  return spec;
}

/// Forwards every call to the strategy lb::make_strategy built, inside
/// an "lb.decide" span.
class TimedStrategy final : public sim::Strategy {
 public:
  TimedStrategy(std::unique_ptr<sim::Strategy> inner, SpanLog& log,
                const std::uint64_t& tick)
      : inner_(std::move(inner)), log_(log), tick_(tick) {}

  std::string_view name() const override { return inner_->name(); }

  void decide(sim::World& world, support::Rng& rng,
              sim::StrategyCounters& counters) override {
    const SpanLog::Scope span(log_, "lb.decide", tick_);
    ++decisions_;
    inner_->decide(world, rng, counters);
  }

  std::uint64_t decisions() const { return decisions_; }

 private:
  std::unique_ptr<sim::Strategy> inner_;
  SpanLog& log_;
  const std::uint64_t& tick_;
  std::uint64_t decisions_ = 0;
};

/// The engine plus, where the workload serves, its Service.  Traced
/// rigs wrap the strategy and replace the Service's post-tick hook with
/// one that calls on_tick_barrier inside a "serve.barrier" span.
struct Rig {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<serve::Service> service;
  TimedStrategy* timed = nullptr;  // owned by the engine; null untraced
};

Rig build_rig(const TickSpec& spec, std::uint64_t seed, SpanLog& log,
              const std::uint64_t& tick) {
  Rig rig;
  {
    const SpanLog::Scope span(log, "sim.construct");
    std::unique_ptr<sim::Strategy> strategy = lb::make_strategy(spec.strategy);
    if (log.enabled() && strategy) {
      auto timed =
          std::make_unique<TimedStrategy>(std::move(strategy), log, tick);
      rig.timed = timed.get();
      strategy = std::move(timed);
    }
    rig.engine =
        std::make_unique<sim::Engine>(spec.params, seed, std::move(strategy));
    rig.engine->set_audit(false);
    rig.engine->set_threads(spec.engine_threads);
    rig.engine->record_tick_series(true);
  }
  if (spec.serve) {
    const SpanLog::Scope span(log, "serve.attach");
    rig.service = std::make_unique<serve::Service>(spec.serve_config, seed);
    rig.service->attach(*rig.engine);
    if (log.enabled()) {
      sim::Engine* engine = rig.engine.get();
      serve::Service* service = rig.service.get();
      engine->set_post_tick_hook([&log, engine, service](std::uint64_t t) {
        const SpanLog::Scope barrier(log, "serve.barrier", t);
        service->on_tick_barrier(engine->world(), t);
      });
    }
  }
  return rig;
}

/// The simulated outputs of one episode: deterministic in the inputs.
struct SimOutcome {
  std::uint64_t ticks = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t done = 0;
  std::uint64_t remaining = 0;
  std::uint64_t vnodes = 0;
  sim::StrategyCounters counters;
  double done_frac = 0.0;
  double load_gini = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t batches = 0;
  std::uint64_t views_published = 0;
  std::uint64_t views_reclaimed = 0;
  double hops_mean = 0.0;

  std::vector<std::uint64_t> fingerprint() const {
    const sim::StrategyCounters& c = counters;
    return {ticks, joins, leaves, arrivals, done, remaining, vnodes,
            c.sybils_created, c.sybils_retired, c.tasks_acquired_by_sybils,
            c.failed_placements, c.workload_queries, c.invitations_sent,
            c.invitations_accepted, c.ranges_marked_invalid,
            c.boundary_moves, c.tasks_moved, bits(done_frac),
            bits(load_gini), lookups, batches, views_published,
            views_reclaimed, bits(hops_mean)};
  }
};

struct Episode {
  bool traced = false;
  SimOutcome out;
  std::int64_t setup_ns = 0;  // Engine construction + Service attach
  std::int64_t loop_ns = 0;   // first step() to the end of drain()
  std::int64_t wall_ns = 0;   // setup + loop
  double loop_cpu_s = 0.0;
  double peak_rss_mib = 0.0;  // read after drain(), before the audit
  std::vector<double> tick_ms;
  std::uint64_t vnode_ticks = 0;  // sum over ticks of the ring size
  std::uint64_t decisions = 0;    // traced only
  std::size_t retire_depth_max = 0;
  std::int64_t audit_ns = 0;
  std::vector<Span> spans;  // traced only
};

/// Runs one episode.  Only the first of a run is audited: the full audit
/// takes seconds at 1M vnodes, and later episodes must repeat the first
/// one's outputs bit for bit anyway.
Episode run_episode(const TickSpec& spec, std::uint64_t seed, bool traced,
                    bool audit, Checks& checks) {
  Episode ep;
  ep.traced = traced;
  SpanLog log(traced);
  std::uint64_t tick = 0;
  const std::int64_t t0 = now_ns();
  Rig rig;
  {
    const SpanLog::Scope run(log, "run");
    rig = build_rig(spec, seed, log, tick);
    ep.setup_ns = now_ns() - t0;
    const double cpu0 = cpu_seconds();
    const std::int64_t l0 = now_ns();
    for (tick = 1; tick <= spec.params.max_ticks; ++tick) {
      const std::int64_t s0 = now_ns();
      {
        const SpanLog::Scope step(log, "sim.step", tick);
        rig.engine->step();
      }
      ep.tick_ms.push_back(to_ms(now_ns() - s0));
      ep.vnode_ticks += rig.engine->world().vnode_count();
    }
    if (rig.service) {
      const SpanLog::Scope drain(log, "serve.drain");
      rig.service->drain();
    }
    ep.loop_ns = now_ns() - l0;
    ep.loop_cpu_s = cpu_seconds() - cpu0;
  }
  ep.wall_ns = now_ns() - t0;
  ep.peak_rss_mib = peak_rss_mib();

  sim::Engine& engine = *rig.engine;
  const sim::World& world = engine.world();
  // The loop ran to the tick cap, so run() only finalizes the counters.
  const sim::RunResult rr = engine.run();
  SimOutcome& out = ep.out;
  out.ticks = rr.ticks;
  out.joins = rr.joins;
  out.leaves = rr.leaves;
  out.counters = rr.strategy_counters;
  for (const std::uint64_t done : rr.work_per_tick) out.done += done;
  out.remaining = world.remaining_tasks();
  out.vnodes = world.vnode_count();
  out.done_frac = ratio(static_cast<double>(out.done),
                        static_cast<double>(world.total_tasks()));
  const std::vector<std::uint64_t> loads = world.alive_workloads();
  out.load_gini = stats::gini(loads);
  if (const sim::TaskStream* stream = engine.task_stream()) {
    out.arrivals = stream->cumulative(out.ticks);
    checks.expect(world.total_tasks() == out.arrivals,
                  "arrivals: ring holds the stream's cumulative deliveries");
  }
  checks.expect(out.ticks == spec.params.max_ticks &&
                    engine.current_tick() == out.ticks,
                "horizon: the engine ran every tick of the horizon");
  checks.expect(out.done + out.remaining == world.total_tasks(),
                "conservation: done + remaining == total_tasks()");
  if (rig.service) {
    const serve::Report report = rig.service->report();
    out.lookups = report.lookups;
    out.batches = report.batches;
    out.hops_mean = report.hops_mean;
    out.views_published = report.views.published;
    out.views_reclaimed = report.views.reclaimed;
    ep.retire_depth_max = report.views.retire_depth_max;
    checks.expect(out.views_reclaimed + 1 == out.views_published,
                  "serve: views_reclaimed == views_published - 1");
    checks.expect(
        out.lookups == out.batches * spec.serve_config.lookups_per_tick,
        "serve: lookups == batches x rate");
  }
  if (rig.timed) ep.decisions = rig.timed->decisions();

  if (audit) {
    const std::int64_t a0 = now_ns();
    const sim::AuditReport report = sim::InvariantAuditor(world).run();
    ep.audit_ns = now_ns() - a0;
    checks.expect(report.ok(), "invariant audit: " + report.to_string());
  }
  if (traced) {
    checks.expect(self_times_match_wall(log.spans(), ep.wall_ns),
                  "trace: span self times add up to the episode's wall time");
    ep.spans = log.spans();
  }
  return ep;
}

/// Setup alone: what run_episode times before its first tick.
double measure_setup_s(const TickSpec& spec, std::uint64_t seed) {
  SpanLog off(false);
  const std::uint64_t tick = 0;
  const std::int64_t t0 = now_ns();
  const Rig rig = build_rig(spec, seed, off, tick);
  return to_s(now_ns() - t0);
}

Result run_ticks(const TickSpec& spec, std::uint64_t seed, double seconds,
                 bool trace) {
  Result res;
  Checks& checks = res.checks;
  std::vector<Episode> eps;
  // Episode 0 is the warm-up (see run_units).  Peak RSS is its own,
  // read before its audit: the footprint of one episode in a fresh
  // process.  Later units and set-ups reuse the freed heap, and how much
  // of it fragments differs from run to run.
  const std::size_t units = run_units(seconds, spec.unit_s, trace);
  for (std::size_t i = 0; i < units; ++i) {
    eps.push_back(run_episode(spec, seed, trace && i % 2 == 1, i == 0, checks));
  }

  std::vector<double> setup_s;
  std::vector<double> tick_ms;
  std::vector<double> ticks_per_s;  // one per measured episode
  std::int64_t loop_ns = 0;
  double cpu_s = 0.0;
  std::size_t untraced = 0;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const Episode& ep = eps[i];
    if (i > 0) {
      checks.expect(ep.out.fingerprint() == eps[0].out.fingerprint(),
                    "determinism: episode " + std::to_string(i) +
                        (ep.traced ? " (traced)" : "") +
                        " repeats episode 0's simulated outputs bit for bit");
    }
    if (i == 0 || ep.traced) continue;
    ++untraced;
    setup_s.push_back(to_s(ep.setup_ns));
    tick_ms.insert(tick_ms.end(), ep.tick_ms.begin(), ep.tick_ms.end());
    ticks_per_s.push_back(
        ratio(static_cast<double>(ep.out.ticks), to_s(ep.loop_ns)));
    loop_ns += ep.loop_ns;
    cpu_s += ep.loop_cpu_s;
  }
  while (setup_s.size() < spec.setup_samples) {
    setup_s.push_back(measure_setup_s(spec, seed));
  }

  const SimOutcome& out = eps[0].out;
  MetricSet m(trace ? all_metrics() : end_to_end_metrics());
  add_end_to_end(m, percentile(setup_s, 50.0), percentile(ticks_per_s, 50.0),
                 tick_ms, eps[0].peak_rss_mib, out.done_frac, res.notes);
  std::string wall_list;
  for (const Episode& ep : eps) {
    wall_list += ' ';
    wall_list += std::to_string(std::llround(to_ms(ep.wall_ns)));
    if (ep.traced) wall_list += 't';
  }
  res.notes.push_back(std::to_string(eps.size()) + " episode(s) of " +
                      std::to_string(spec.params.max_ticks) +
                      " ticks (wall ms, the" +
                      " first a warm-up, t = traced:" + wall_list + "), " +
                      std::to_string(setup_s.size()) + " setup samples");
  if (trace) {
    LayerTimes lt;
    std::uint64_t vnode_ticks = 0;
    std::size_t retire_depth_max = 0;
    std::size_t n = 0;
    for (const Episode& ep : eps) {
      retire_depth_max = std::max(retire_depth_max, ep.retire_depth_max);
      if (!ep.traced) continue;
      ++n;
      lt.add(ep.spans);
      res.traces.push_back(ep.spans);
      vnode_ticks += ep.vnode_ticks;
    }
    const double per = 1.0 / static_cast<double>(n);
    const sim::StrategyCounters& c = out.counters;
    const double sybil_ops =
        static_cast<double>(c.sybils_created + c.sybils_retired);
    m.set("sim.construct_ms", lt.total_ms("sim.construct") * per);
    m.set("sim.step_ms", lt.total_ms("sim.step") * per);
    m.set("sim.step_self_ms", lt.self_total_ms("sim.step") * per);
    m.set("sim.step_self_ms_p50", lt.self_p50_ms("sim.step"));
    m.set("sim.self_ns_per_vnode_tick",
          ratio(lt.self_total_ms("sim.step") * 1e6,
                static_cast<double>(vnode_ticks)));
    m.set("sim.ticks", static_cast<double>(out.ticks));
    m.set("sim.joins", static_cast<double>(out.joins));
    m.set("sim.leaves", static_cast<double>(out.leaves));
    m.set("sim.arrivals", static_cast<double>(out.arrivals));
    m.set("sim.tasks_done", static_cast<double>(out.done));
    m.set("sim.vnodes_final", static_cast<double>(out.vnodes));
    m.set("sim.membership_changes",
          static_cast<double>(out.joins + out.leaves) + sybil_ops);
    m.set("sim.load_gini", out.load_gini);
    m.set("lb.decide_ms", lt.total_ms("lb.decide") * per);
    m.set("lb.decide_ms_p50", lt.dur_p50_ms("lb.decide"));
    m.set("lb.decide_ns_per_sybil_op",
          ratio(lt.total_ms("lb.decide") * 1e6 * per, sybil_ops));
    m.set("lb.decisions", static_cast<double>(eps[1].decisions));
    m.set("lb.sybils_created", static_cast<double>(c.sybils_created));
    m.set("lb.sybils_retired", static_cast<double>(c.sybils_retired));
    m.set("lb.failed_placements", static_cast<double>(c.failed_placements));
    m.set("lb.tasks_acquired",
          static_cast<double>(c.tasks_acquired_by_sybils));
    m.set("lb.workload_queries", static_cast<double>(c.workload_queries));
    m.set("lb.placement_yield",
          ratio(static_cast<double>(c.sybils_created - c.failed_placements),
                static_cast<double>(c.sybils_created)));
    m.set("serve.attach_ms", lt.total_ms("serve.attach") * per);
    m.set("serve.barrier_ms", lt.total_ms("serve.barrier") * per);
    m.set("serve.barrier_ms_p50", lt.dur_p50_ms("serve.barrier"));
    m.set("serve.drain_ms", lt.total_ms("serve.drain") * per);
    m.set("serve.lookups", static_cast<double>(out.lookups));
    m.set("serve.batches", static_cast<double>(out.batches));
    m.set("serve.views_published", static_cast<double>(out.views_published));
    m.set("serve.views_reclaimed", static_cast<double>(out.views_reclaimed));
    m.set("serve.retire_depth_max", static_cast<double>(retire_depth_max));
    m.set("serve.lookups_per_s",
          ratio(static_cast<double>(out.lookups) *
                    static_cast<double>(untraced),
                to_s(loop_ns)));
    m.set("serve.hops_mean", out.hops_mean);
    m.set("audit.ms", to_ms(eps[0].audit_ns));
    m.set("proc.cpu_util", ratio(cpu_s, to_s(loop_ns)));
    m.set("run.wall_ms", lt.total_ms("run") * per);
    m.set("run.self_ms", lt.self_total_ms("run") * per);
    std::vector<std::pair<bool, std::int64_t>> walls;
    for (const Episode& ep : eps) walls.emplace_back(ep.traced, ep.wall_ns);
    m.set("trace.overhead", trace_overhead(walls));
  }
  res.metrics = m.take();
  return res;
}

// ---------------------------------------------------------------------
// paper-grid: the paper's six strategies x trials through exp::run_cells.

struct GridSpec {
  sim::Params params;  // the paper's setup (§V-B defaults)
  std::size_t trials = 0;
  std::size_t workers = 2;
  double unit_s = 7.0;  // nominal grid wall time
  std::size_t setup_samples = 15;
};

std::vector<exp::CellSpec> paper_cells(const GridSpec& spec) {
  std::vector<exp::CellSpec> cells;
  for (const std::string_view name : lb::strategy_names()) {
    exp::CellSpec cell;
    cell.params = spec.params;
    if (name == "churn") cell.params.churn_rate = 0.01;
    cell.strategy = std::string(name);
    cell.trials = spec.trials;
    cells.push_back(cell);
  }
  return cells;
}

struct GridCall {
  bool traced = false;
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  std::uint64_t ticks = 0;
  std::vector<exp::Aggregate> aggs;
  std::vector<Span> spans;
};

std::vector<std::uint64_t> fingerprint(const std::vector<exp::Aggregate>& aggs) {
  std::vector<std::uint64_t> fp;
  for (const exp::Aggregate& a : aggs) {
    for (const double v :
         {a.runtime_factor.mean, a.runtime_factor.min, a.runtime_factor.max,
          a.ticks.mean, a.completion_rate, a.mean_joins, a.mean_leaves,
          a.mean_sybils_created, a.mean_sybils_retired,
          a.mean_failed_placements, a.mean_workload_queries,
          a.mean_invitations_sent, a.mean_invitations_accepted}) {
      fp.push_back(bits(v));
    }
  }
  return fp;
}

std::uint64_t total(const std::vector<exp::Aggregate>& aggs,
                    double exp::Aggregate::*field) {
  double sum = 0.0;
  for (const exp::Aggregate& a : aggs) {
    sum += a.*field * static_cast<double>(a.trials);
  }
  return static_cast<std::uint64_t>(std::llround(sum));
}

Result run_grid(const GridSpec& spec, std::uint64_t seed, double seconds,
                bool trace) {
  Result res;
  Checks& checks = res.checks;
  const std::vector<exp::CellSpec> cells = paper_cells(spec);

  support::ThreadPool pool(spec.workers);
  std::vector<GridCall> calls;
  double peak_rss = 0.0;  // after the warm-up grid, as in run_ticks
  const std::size_t units = run_units(seconds, spec.unit_s, trace);
  for (std::size_t i = 0; i < units; ++i) {
    GridCall call;
    call.traced = trace && i % 2 == 1;
    SpanLog log(call.traced);
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    {
      const SpanLog::Scope run(log, "run");
      const SpanLog::Scope fan(log, "exp.run_cells");
      call.aggs = exp::run_cells(cells, seed, &pool);
    }
    call.wall_ns = now_ns() - t0;
    call.cpu_s = cpu_seconds() - cpu0;
    for (const exp::Aggregate& a : call.aggs) {
      call.ticks += static_cast<std::uint64_t>(
          std::llround(a.ticks.mean * static_cast<double>(a.trials)));
    }
    if (call.traced) {
      checks.expect(self_times_match_wall(log.spans(), call.wall_ns),
                    "trace: span self times add up to the grid's wall time");
      call.spans = log.spans();
    }
    calls.push_back(std::move(call));
    if (calls.size() == 1) peak_rss = peak_rss_mib();
  }

  // Set-up: the Engine construction each trial pays before its first
  // tick (trial i of every cell is seeded mix_seed(seed, i)).
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < spec.setup_samples; ++i) {
    std::optional<sim::Engine> engine;
    const std::int64_t t0 = now_ns();
    engine.emplace(spec.params, support::mix_seed(seed, i), nullptr);
    setup_s.push_back(to_s(now_ns() - t0));
  }

  const std::vector<exp::Aggregate>& aggs = calls[0].aggs;
  double done_frac = 0.0;
  double rf_mean = 0.0;
  for (const exp::Aggregate& a : aggs) {
    checks.expect(a.completion_rate == 1.0,
                  "paper-grid: every " + a.strategy + " trial completed");
    checks.expect(a.runtime_factor.min >= 1.0,
                  "paper-grid: " + a.strategy +
                      " runtime factor is at least the ideal's");
    done_frac += a.completion_rate;
    rf_mean += a.runtime_factor.mean;
  }
  done_frac /= static_cast<double>(aggs.size());
  rf_mean /= static_cast<double>(aggs.size());
  std::vector<double> tick_ms;
  std::vector<double> ticks_per_s;  // one per measured grid
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const GridCall& call = calls[i];
    if (i > 0) {
      checks.expect(fingerprint(call.aggs) == fingerprint(aggs),
                    "determinism: grid " + std::to_string(i) +
                        (call.traced ? " (traced)" : "") +
                        " repeats grid 0's aggregates bit for bit");
    }
    if (i == 0 || call.traced) continue;
    // Per-worker wall time per simulated tick of this grid.
    tick_ms.push_back(to_ms(call.wall_ns) *
                      static_cast<double>(spec.workers) /
                      static_cast<double>(call.ticks));
    ticks_per_s.push_back(
        ratio(static_cast<double>(call.ticks), to_s(call.wall_ns)));
    wall_ns += call.wall_ns;
    cpu_s += call.cpu_s;
  }

  // Serial replays of trial 0 of every cell: audit the final world,
  // check conservation, and place the replay inside its cell's range.
  std::int64_t audit_ns = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    sim::Engine engine(cells[c].params, support::mix_seed(seed, 0),
                       lb::make_strategy(cells[c].strategy));
    engine.set_audit(false);
    engine.record_tick_series(true);
    const sim::RunResult rr = engine.run();
    std::uint64_t done = 0;
    for (const std::uint64_t d : rr.work_per_tick) done += d;
    const sim::World& world = engine.world();
    checks.expect(done + world.remaining_tasks() == world.total_tasks(),
                  "conservation: " + cells[c].strategy +
                      " replay done + remaining == total_tasks()");
    checks.expect(rr.runtime_factor >= aggs[c].runtime_factor.min &&
                      rr.runtime_factor <= aggs[c].runtime_factor.max,
                  "paper-grid: " + cells[c].strategy +
                      " replay of trial 0 lies within its cell's range");
    const std::int64_t a0 = now_ns();
    const sim::AuditReport report = sim::InvariantAuditor(world).run();
    audit_ns += now_ns() - a0;
    checks.expect(report.ok(), "invariant audit: " + report.to_string());
  }

  MetricSet m(trace ? all_metrics() : end_to_end_metrics());
  add_end_to_end(m, percentile(setup_s, 50.0), percentile(ticks_per_s, 50.0),
                 tick_ms, peak_rss, done_frac, res.notes);
  res.notes.push_back(std::to_string(calls.size()) + " grid(s) of " +
                      std::to_string(cells.size()) + "x" +
                      std::to_string(spec.trials) +
                      " trials; tick_ms is per worker, one sample per grid");
  if (trace) {
    LayerTimes lt;
    std::size_t n = 0;
    for (const GridCall& call : calls) {
      if (!call.traced) continue;
      ++n;
      lt.add(call.spans);
      res.traces.push_back(call.spans);
    }
    const double per = 1.0 / static_cast<double>(n);
    const std::uint64_t joins = total(aggs, &exp::Aggregate::mean_joins);
    const std::uint64_t leaves = total(aggs, &exp::Aggregate::mean_leaves);
    const std::uint64_t created =
        total(aggs, &exp::Aggregate::mean_sybils_created);
    const std::uint64_t retired =
        total(aggs, &exp::Aggregate::mean_sybils_retired);
    const std::uint64_t failed =
        total(aggs, &exp::Aggregate::mean_failed_placements);
    std::uint64_t trials = 0;
    for (const exp::Aggregate& a : aggs) trials += a.trials;
    m.set("sim.construct_ms", percentile(setup_s, 50.0) * 1e3);
    m.set("sim.ticks", static_cast<double>(calls[0].ticks));
    m.set("sim.joins", static_cast<double>(joins));
    m.set("sim.leaves", static_cast<double>(leaves));
    m.set("sim.tasks_done", static_cast<double>(
                                total(aggs, &exp::Aggregate::completion_rate) *
                                spec.params.total_tasks));
    m.set("sim.membership_changes",
          static_cast<double>(joins + leaves + created + retired));
    m.set("lb.sybils_created", static_cast<double>(created));
    m.set("lb.sybils_retired", static_cast<double>(retired));
    m.set("lb.failed_placements", static_cast<double>(failed));
    m.set("lb.workload_queries",
          static_cast<double>(
              total(aggs, &exp::Aggregate::mean_workload_queries)));
    m.set("lb.placement_yield",
          ratio(static_cast<double>(created - failed),
                static_cast<double>(created)));
    m.set("exp.run_cells_ms", lt.total_ms("exp.run_cells") * per);
    m.set("exp.trials", static_cast<double>(trials));
    m.set("exp.fan_efficiency",
          ratio(cpu_s, to_s(wall_ns) *
                           static_cast<double>(spec.workers)));
    m.set("exp.runtime_factor", rf_mean);
    for (const exp::Aggregate& a : aggs) {
      m.set("exp.runtime_factor." + a.strategy, a.runtime_factor.mean);
    }
    m.set("audit.ms", to_ms(audit_ns));
    m.set("proc.cpu_util", ratio(cpu_s, to_s(wall_ns)));
    m.set("run.wall_ms", lt.total_ms("run") * per);
    m.set("run.self_ms", lt.self_total_ms("run") * per);
    std::vector<std::pair<bool, std::int64_t>> walls;
    for (const GridCall& c : calls) walls.emplace_back(c.traced, c.wall_ns);
    m.set("trace.overhead", trace_overhead(walls));
  }
  res.metrics = m.take();
  return res;
}

// ---------------------------------------------------------------------
// The catalog of workloads and their sizes.

GridSpec paper_grid(Size size) {
  GridSpec spec;  // Params defaults are the paper's 1000 nodes, 100k tasks
  // A grid's tick rate depends on its trials' seeds: at 16 trials per
  // cell two seeds differ by up to 30%, at 48 by a few percent.
  spec.trials = 48;
  if (size == Size::kTiny) {
    spec.params.initial_nodes = 100;
    spec.params.total_tasks = 2000;
    spec.trials = 2;
    spec.setup_samples = 2;
  }
  return spec;
}

TickSpec churn_1m(Size size) {
  TickSpec spec = size == Size::kTiny ? at_capacity(2000, 4, 0.02, "none")
                                      : at_capacity(1'000'000, 6, 0.02, "none");
  spec.engine_threads = 2;
  // The measured episode's construction is one set-up sample; each more
  // costs a second.
  spec.setup_samples = 3;
  return spec;
}

TickSpec sybil_100k(Size size) {
  TickSpec spec =
      size == Size::kTiny ? at_capacity(2000, 10, 0.0, "random-injection")
                          : at_capacity(100'000, 25, 0.0, "random-injection");
  spec.engine_threads = 2;
  spec.unit_s = 2.5;
  return spec;
}

TickSpec serve_zipf(Size size) {
  TickSpec spec = size == Size::kTiny ? at_capacity(2000, 4, 0.02, "none")
                                      : at_capacity(100'000, 40, 0.02, "none");
  spec.engine_threads = 1;
  spec.serve = true;
  spec.serve_config.readers = 2;
  spec.serve_config.traffic = serve::Traffic::kZipf;
  // Enough lookups that the readers, not the engine, set the tick time.
  spec.serve_config.lookups_per_tick = size == Size::kTiny ? 2000 : 150'000;
  spec.serve_config.measure_latency = false;
  return spec;
}

}  // namespace

Result run_workload(const std::string& name, std::uint64_t seed,
                    double seconds, bool trace, Size size) {
  if (name == "paper-grid") {
    return run_grid(paper_grid(size), seed, seconds, trace);
  }
  if (name == "churn-1m") return run_ticks(churn_1m(size), seed, seconds, trace);
  if (name == "sybil-100k") {
    return run_ticks(sybil_100k(size), seed, seconds, trace);
  }
  if (name == "serve-zipf") {
    return run_ticks(serve_zipf(size), seed, seconds, trace);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
