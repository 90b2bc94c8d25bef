// dhtlb_perfbench: runs one benchmark workload and prints its metrics.
//
//   dhtlb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--size full|tiny] [--spans FILE]
//   dhtlb_perfbench --catalog
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": checks run, "failed": checks failed,
//    "metrics": {"name": {"value": v, "unit": "u"}, ...}}
// preceded by a host stamp, notes, one line per metric and the check
// tally.  --spans writes a traced run's spans to FILE as a Chrome trace
// (one pid per traced episode) when the run ends.  --catalog prints every
// metric's name, unit and direction.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "catalog.hpp"
#include "host.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "dhtlb_perfbench: %s\nusage: dhtlb_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--size full|tiny]\n"
               "                       [--spans FILE]\n"
               "       dhtlb_perfbench --catalog\n",
               why);
  return 2;
}

void print_catalog() {
  std::string out = "[";
  const auto add = [&out](const std::vector<MetricDef>& defs,
                          const char* kind) {
    for (const MetricDef& d : defs) {
      if (out.size() > 1) out += ",\n ";
      out += "{\"name\": ";
      dhtlb::support::json_append_escaped(out, d.name);
      out += ", \"unit\": ";
      dhtlb::support::json_append_escaped(out, d.unit);
      out += ", \"better\": ";
      dhtlb::support::json_append_escaped(out, d.better);
      out += ", \"kind\": \"";
      out += kind;
      out += "\"}";
    }
  };
  add(end_to_end_metrics(), "end_to_end");
  add(per_layer_metrics(), "per_layer");
  out += "]\n";
  std::fputs(out.c_str(), stdout);
}

/// Chrome trace-event JSON: complete ("X") events in microseconds,
/// timestamps relative to the first span of each episode.
bool write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& traces) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t pid = 0; pid < traces.size(); ++pid) {
    const std::vector<Span>& spans = traces[pid];
    const std::int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\": ";
      dhtlb::support::json_append_escaped(out, s.name);
      out += ", \"ph\": \"X\", \"pid\": " + std::to_string(pid) +
             ", \"tid\": 0, \"ts\": ";
      dhtlb::support::json_append_double(
          out, static_cast<double>(s.start_ns - origin) / 1e3);
      out += ", \"dur\": ";
      dhtlb::support::json_append_double(
          out, static_cast<double>(s.duration_ns()) / 1e3);
      out += ", \"args\": {\"index\": " + std::to_string(i) +
             ", \"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) + "}}";
    }
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed_arg;
  std::string seconds_arg;
  std::string trace_arg;
  std::string size_arg = "full";
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--catalog") {
      print_catalog();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed_arg = value;
    } else if (flag == "--seconds") {
      seconds_arg = value;
    } else if (flag == "--trace") {
      trace_arg = value;
    } else if (flag == "--size") {
      size_arg = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || seed_arg.empty() || seconds_arg.empty() ||
      (trace_arg != "0" && trace_arg != "1") ||
      (size_arg != "full" && size_arg != "tiny")) {
    return usage("bad or missing arguments");
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (*end != '\0') return usage("--seed must be an unsigned integer");
  const double seconds = std::strtod(seconds_arg.c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) {
    return usage("--seconds must be a positive number");
  }

  try {
    const Host host = stamp_host();
    std::printf("host %s\n", to_json(host).c_str());
    std::printf("workload %s seed %llu seconds %g trace %s size %s\n",
                workload.c_str(), seed, seconds, trace_arg.c_str(),
                size_arg.c_str());
    std::fflush(stdout);
    const Result res =
        run_workload(workload, seed, seconds, trace_arg == "1",
                     size_arg == "tiny" ? Size::kTiny : Size::kFull);
    for (const std::string& note : res.notes) {
      std::printf("note %s\n", note.c_str());
    }
    if (!spans_path.empty() && !res.traces.empty()) {
      if (!write_spans(spans_path, res.traces)) {
        throw std::runtime_error("cannot write " + spans_path);
      }
      std::printf("note spans written to %s\n", spans_path.c_str());
    }
    std::string json = "{\"correct\": ";
    json += res.checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.checks.attempted);
    json += ", \"failed\": " + std::to_string(res.checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
      const Metric& m = res.metrics[i];
      std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (i > 0) json += ", ";
      dhtlb::support::json_append_escaped(json, m.name);
      json += ": {\"value\": ";
      dhtlb::support::json_append_double(json, m.value);
      json += ", \"unit\": ";
      dhtlb::support::json_append_escaped(json, m.unit);
      json += "}";
    }
    json += "}}";
    std::printf("checks attempted %llu failed %llu check_fail_frac %.6g\n",
                static_cast<unsigned long long>(res.checks.attempted),
                static_cast<unsigned long long>(res.checks.failed),
                res.checks.attempted == 0
                    ? 0.0
                    : static_cast<double>(res.checks.failed) /
                          static_cast<double>(res.checks.attempted));
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "dhtlb_perfbench: %s\n", e.what());
    return 1;
  }
}
