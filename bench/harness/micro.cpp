#include "harness/micro.hpp"

#include <benchmark/benchmark.h>

#include "harness/telemetry.hpp"
#include "support/env.hpp"

namespace dhtlb::bench {

namespace {

// Keeps ConsoleReporter's human-readable table and tees each run into
// the telemetry collector.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TelemetryReporter(Telemetry& telemetry) : telemetry_(telemetry) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const auto iters = static_cast<double>(run.iterations);
      const double per_iter_ns =
          iters > 0 ? run.real_accumulated_time / iters * 1e9 : 0.0;
      telemetry_.record(run.benchmark_name(), "real_ns_per_iter",
                        per_iter_ns, run.real_accumulated_time * 1e3,
                        static_cast<std::uint64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  Telemetry& telemetry_;
};

}  // namespace

int micro_main(const char* experiment, int argc, char** argv) {
  return support::run_main(experiment, [&] {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    Telemetry telemetry(experiment);
    TelemetryReporter reporter(telemetry);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;  // telemetry flushes on destruction
  });
}

}  // namespace dhtlb::bench
