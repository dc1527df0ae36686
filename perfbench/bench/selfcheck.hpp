// Attribution self-check for the traced run. A calibrated busy-wait is put
// into the benchmark's wrapper around OverloadGate::offer; the trace must
// move that time into the gate's self time (within kAttributionTolerance of
// the injected total) and into no other producer layer, and without the
// busy-wait every thread's self times must reconcile to its wall time
// within kUnaccountedTolerance.
#pragma once

#include <cstdint>
#include <string>

#include "bench/model.hpp"

namespace perfbench {

inline constexpr double kAttributionTolerance = 0.10;  // share of injected time
inline constexpr double kUnaccountedTolerance = 0.02;  // share of thread wall

/// Empty when the check passes, otherwise what failed. Writes its small
/// workload file under `data_dir`.
std::string attribution_selfcheck(const ServedModel& model, std::uint64_t seed,
                                  const std::string& data_dir);

}  // namespace perfbench
