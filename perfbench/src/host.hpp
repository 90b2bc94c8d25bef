// The facts needed to read a measurement: cores, CPU, SHA-NI dispatch,
// compiler, build type, and the bench harness's machine-speed yardstick.
#pragma once

#include <string>

namespace perfbench {

struct Host {
  unsigned nproc = 0;
  std::string cpu_model;
  bool sha_ni = false;
  std::string compiler;
  std::string build_type;
  double calibrate_ms = 0.0;  // bench::calibrate_ms(), same binary
};

Host stamp_host();

/// One JSON object, keys in a fixed order.
std::string to_json(const Host& host);

}  // namespace perfbench
