// Wall-clock spans recorded around calls into the library, plus the
// order statistics the benchmark reports.
//
// A span is (name, id, parent, start, end).  Spans of one tick share
// the tick number as their id.  Spans stay in memory for the whole run
// and are summarized when it ends; a disabled log records nothing and
// costs one branch per scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr int kNoParent = -1;

struct Span {
  const char* name = "";  // static string: a layer call site
  std::uint64_t id = 0;   // tick number, or 0 outside the tick loop
  int parent = kNoParent; // index into the log, or kNoParent for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or
  /// kNoParent when the log is disabled.
  int open(const char* name, std::uint64_t id);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Closes the span when the scope ends.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t id = 0)
        : log_(log), index_(log.open(name, id)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other; the
/// union is subtracted once).  Grandchildren lie inside their parent,
/// so each nanosecond of a tree is attributed to exactly one span.
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> samples, double p);

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 and
/// 99.99 that has at least ten samples beyond it.  With fewer than 20
/// samples no rung qualifies and the maximum is reported as p100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail(const std::vector<double>& samples);

}  // namespace perfbench
