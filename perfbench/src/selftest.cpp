// Unit tests of the benchmark's own helpers: span self time, the tail
// percentile rule, percentiles, and the metric catalog's names.
// Exits non-zero on the first failed expectation.
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

Span span(const char* name, int parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time_nested() {
  // run [0,100) > step [10,60) > decide [20,30), barrier [40,55)
  //             > step [60,95) > barrier [70,80)
  //             > drain [95,99)
  const std::vector<Span> spans = {
      span("run", kNoParent, 0, 100), span("step", 0, 10, 60),
      span("decide", 1, 20, 30),      span("barrier", 1, 40, 55),
      span("step", 0, 60, 95),        span("barrier", 4, 70, 80),
      span("drain", 0, 95, 99),
  };
  const std::vector<std::int64_t> self = self_ns(spans);
  expect(self[0] == 100 - 50 - 35 - 4, "root self excludes its children");
  expect(self[1] == 50 - 10 - 15, "step self excludes decide and barrier");
  expect(self[2] == 10 && self[3] == 15, "leaf self is its duration");
  expect(self[4] == 35 - 10, "second step self");
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  expect(sum == 100, "self times of a tree add up to the root's duration");
}

void test_self_time_overlapping_children() {
  // Children on other threads may overlap; their union is subtracted once,
  // and a child running past its parent is clipped.
  const std::vector<Span> spans = {
      span("run", kNoParent, 0, 100), span("a", 0, 10, 50),
      span("b", 0, 30, 70), span("c", 0, 90, 120)};
  const std::vector<std::int64_t> self = self_ns(spans);
  expect(self[0] == 100 - 60 - 10, "overlapping children count once");
}

void test_span_log() {
  SpanLog log(true);
  {
    const SpanLog::Scope run(log, "run");
    const SpanLog::Scope step(log, "step", 7);
  }
  expect(log.spans().size() == 2, "two spans recorded");
  expect(log.spans()[1].parent == 0 && log.spans()[1].id == 7,
         "inner span records its parent and id");
  SpanLog off(false);
  { const SpanLog::Scope run(off, "run"); }
  expect(off.spans().empty(), "a disabled log records nothing");
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail() {
  expect(percentile(iota(5), 50.0) == 3.0, "median of 1..5");
  expect(percentile(iota(4), 50.0) == 2.5, "median interpolates");
  expect(percentile({}, 50.0) == 0.0, "empty percentile is 0");

  Tail t = tail(iota(100));
  expect(t.percentile == 90.0 && t.samples == 100, "100 samples -> p90");
  t = tail(iota(1000));
  expect(t.percentile == 99.0, "1000 samples -> p99");
  t = tail(iota(199));
  expect(t.percentile == 90.0, "199 samples: p95 has < 10 beyond -> p90");
  t = tail(iota(200));
  expect(t.percentile == 95.0, "200 samples: p95 has exactly 10 beyond");
  t = tail(iota(40));
  expect(t.percentile == 75.0, "40 samples -> p75");
  t = tail(iota(20));
  expect(t.percentile == 50.0, "20 samples -> p50");
  t = tail(iota(12));
  expect(t.percentile == 100.0 && t.value == 12.0,
         "fewer than 20 samples -> max as p100");
  t = tail({});
  expect(t.samples == 0 && t.value == 0.0, "empty tail");
}

void test_catalog() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const MetricDef& d : all_metrics()) {
    expect(std::regex_match(d.name, name_re), "metric name is well formed");
    expect(std::regex_match(d.unit, unit_re), "metric unit is well formed");
    expect(d.better == "lower" || d.better == "higher",
           "metric has a direction");
    expect(seen.insert(d.name).second, "metric name is unique");
  }
  expect(seen.count("setup_s") == 1, "setup_s is an end-to-end metric");
}

}  // namespace

int main() {
  test_self_time_nested();
  test_self_time_overlapping_children();
  test_span_log();
  test_tail();
  test_catalog();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
