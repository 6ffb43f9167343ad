#pragma once

/// Layer probes of the traced run: fixed inputs, one rate per layer, each
/// the median of a few repetitions. Every probe checks its own result.

#include <cstdint>

#include "spans.hpp"

namespace perfbench {

struct ProbeResults {
  double kernel_mevents_per_s = 0.0;  ///< sim: process activations per host µs
  double os_activations_per_s = 0.0;  ///< ecu: OsScheduler task activations per host s
  double iss_mips_dmi = 0.0;          ///< hw: AR32 instructions per host µs, DMI on
  double iss_mips_bus = 0.0;          ///< hw: same firmware, DMI off
  double bus_access_frac = 0.0;       ///< hw: bus share of memory accesses, DMI on
  double router_mtx_per_s = 0.0;      ///< tlm: Router transactions per host µs, DMI off
  bool correct = true;
};

/// Runs every probe; spans go under `parent` in `log` (null = untraced).
[[nodiscard]] ProbeResults run_probes(SpanLog* log, std::uint64_t parent);

}  // namespace perfbench
