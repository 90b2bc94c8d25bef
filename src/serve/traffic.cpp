#include "serve/traffic.hpp"

#include "hashing/sha1.hpp"
#include "support/check.hpp"

namespace dhtlb::serve {

namespace {

// Stream label for the hotspot arc's position: derived from the run
// seed but decorrelated from the engine's tick streams and the serve
// shards' per-(tick, shard) streams.
constexpr std::uint64_t kHotArcStream = 0x40A2C5E12EULL;  // "hot arc serve"

// Hotspot model: kHotFraction of the draws land inside an arc of
// kHotArcScale / 2^32 of the ring (1/64), the rest anywhere.  The arc
// width is max() * kHotArcScale / 2^32 — the fixed-point construction
// the scenario VM uses for inject-hotspot, so serve hotspots and
// scripted hotspot floods agree on what "1/64 of the ring" means.
constexpr double kHotFraction = 0.9;
constexpr std::uint32_t kHotArcScale = 1U << 26;

}  // namespace

std::optional<Traffic> parse_traffic(std::string_view name) {
  if (name == "uniform") return Traffic::kUniform;
  if (name == "zipf") return Traffic::kZipf;
  if (name == "hotspot") return Traffic::kHotspot;
  return std::nullopt;
}

std::string_view traffic_name(Traffic traffic) {
  switch (traffic) {
    case Traffic::kUniform: return "uniform";
    case Traffic::kZipf: return "zipf";
    case Traffic::kHotspot: return "hotspot";
  }
  return "unknown";
}

KeyStream::KeyStream(Traffic traffic, const TrafficConfig& config,
                     std::uint64_t run_seed)
    : traffic_(traffic) {
  switch (traffic_) {
    case Traffic::kUniform:
      break;
    case Traffic::kZipf: {
      const std::uint64_t n = config.key_universe;
      DHTLB_CHECK(n > 0 && n <= kMaxKeyUniverse,
                  "traffic: zipf key_universe " << n
                                                << " outside [1, 2^22]");
      // Harmonic weights 1/(r+1), folded into a normalized CDF with
      // plain additions and divisions only (IEEE-exact everywhere).
      cdf_.resize(n);
      keys_.resize(n);
      double total = 0.0;
      for (std::uint64_t r = 0; r < n; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf_[r] = total;
        keys_[r] = hashing::Sha1::hash_u64(r);
      }
      for (double& c : cdf_) c /= total;
      cdf_.back() = 1.0;  // guard against accumulated rounding
      break;
    }
    case Traffic::kHotspot: {
      support::Rng arc_rng(support::stream_seed(run_seed, kHotArcStream));
      hot_start_ = arc_rng.uniform_u160();
      hot_end_ = hot_start_ + Uint160::max().shr(32).mul_small(kHotArcScale);
      break;
    }
  }
}

Uint160 KeyStream::draw(support::Rng& rng) const {
  switch (traffic_) {
    case Traffic::kUniform:
      return rng.uniform_u160();
    case Traffic::kZipf: {
      const double u = rng.uniform();
      // First rank whose CDF exceeds u.
      std::size_t lo = 0;
      std::size_t hi = cdf_.size() - 1;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] > u) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return keys_[lo];
    }
    case Traffic::kHotspot:
      if (rng.bernoulli(kHotFraction)) {
        return rng.uniform_in_arc(hot_start_, hot_end_);
      }
      return rng.uniform_u160();
  }
  return rng.uniform_u160();  // unreachable
}

}  // namespace dhtlb::serve
