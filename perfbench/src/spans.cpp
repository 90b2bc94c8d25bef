#include "spans.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace perfbench {

int SpanLog::open(const char* name, std::uint64_t id) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index == kNoParent) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the span closing is the innermost open one.
  open_.pop_back();
}

std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;  // end of the union so far
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out[i] = spans[i].duration_ns() - covered;
  }
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail tail(const std::vector<double>& samples) {
  static constexpr std::array<double, 7> kLadder = {50.0, 75.0, 90.0, 95.0,
                                                    99.0, 99.9, 99.99};
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  t.percentile = 100.0;
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) t.percentile = p;
  }
  if (t.percentile == 100.0) {
    t.value = *std::max_element(samples.begin(), samples.end());
  } else {
    t.value = percentile(samples, t.percentile);
  }
  return t;
}

}  // namespace perfbench
