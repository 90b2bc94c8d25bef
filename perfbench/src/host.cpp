#include "host.hpp"

#include <fstream>
#include <thread>

#include "harness/telemetry.hpp"
#include "hashing/sha1_block.hpp"
#include "support/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Host stamp_host() {
  Host host;
  host.nproc = std::thread::hardware_concurrency();
  host.cpu_model = cpu_model();
  host.sha_ni = dhtlb::hashing::detail::sha_ni_supported();
  host.compiler = compiler();
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.calibrate_ms = dhtlb::bench::calibrate_ms();
  return host;
}

std::string to_json(const Host& host) {
  using dhtlb::support::json_append_double;
  using dhtlb::support::json_append_escaped;
  std::string out = "{\"nproc\": " + std::to_string(host.nproc);
  out += ", \"cpu_model\": ";
  json_append_escaped(out, host.cpu_model);
  out += ", \"sha_ni\": ";
  out += host.sha_ni ? "true" : "false";
  out += ", \"compiler\": ";
  json_append_escaped(out, host.compiler);
  out += ", \"build_type\": ";
  json_append_escaped(out, host.build_type);
  out += ", \"calibrate_ms\": ";
  json_append_double(out, host.calibrate_ms);
  out += "}";
  return out;
}

}  // namespace perfbench
