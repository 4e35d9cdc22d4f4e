// Small helpers shared by the stack benchmark: wall-clock timing,
// percentiles, peak RSS and the host context printed with every record.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace stackbench {

using SteadyClock = std::chrono::steady_clock;

inline double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(SteadyClock::time_point a) {
  return std::chrono::duration<double>(SteadyClock::now() - a).count();
}

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  auto hi = static_cast<std::size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

inline double mean(const std::vector<double>& values) {
  return values.empty() ? 0 : sum(values) / static_cast<double>(values.size());
}

// Peak resident set size of this process (VmHWM), in MiB.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

inline unsigned num_cpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

inline const char* build_type() {
#ifdef STACKBENCH_BUILD_TYPE
  return STACKBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

inline bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace stackbench
