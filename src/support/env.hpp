// Environment-variable knobs shared by the bench/reproduction binaries,
// and the entry point that turns a malformed one into a usage error.
//
// The paper averages most cells over 100 trials.  Full fidelity is
// reproducible here but takes a while on a laptop, so each reproduction
// binary honours:
//   DHTLB_TRIALS  — override the trial count (0/unset = binary's default)
//   DHTLB_SEED    — override the base RNG seed
//   DHTLB_THREADS — worker threads for the trial fan (0/unset = all cores)
// EXPERIMENTS.md records which settings produced the committed numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace dhtlb::support {

/// Largest DHTLB_THREADS env_threads() accepts.
inline constexpr std::size_t kMaxEnvThreads = 256;

/// Reads an unsigned integer env var; returns fallback when unset or
/// empty.  Any other value must pass support::parse_u64 (no sign, no
/// blanks, no trailing garbage, no overflow), else std::invalid_argument
/// naming the variable is thrown.
std::uint64_t env_u64(const std::string& name, std::uint64_t fallback);

/// Trial count for a reproduction binary: DHTLB_TRIALS or the default.
std::size_t env_trials(std::size_t fallback);

/// Base seed: DHTLB_SEED or the project-wide default 0x5EEDBA5E.
std::uint64_t env_seed();

/// Thread count for trial fans: DHTLB_THREADS or 0 (= hardware).
/// Throws std::invalid_argument above kMaxEnvThreads, before any caller
/// can build a pool of that size.
std::size_t env_threads();

/// Reads a string env var; returns fallback when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// Reads a boolean env var: "0"/"false"/"off" → false, anything else
/// non-empty → true, unset/empty → fallback.
bool env_flag(const std::string& name, bool fallback);

/// Runs `body` as the main of `program`.  A std::invalid_argument it
/// throws — a malformed DHTLB_* variable, say — prints
/// `<program>: <reason>` to stderr and returns 2, the exit code `dhtlb`
/// gives bad input, instead of aborting through std::terminate.
int run_main(const char* program, const std::function<int()>& body);

}  // namespace dhtlb::support
