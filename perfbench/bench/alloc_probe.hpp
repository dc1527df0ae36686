// Allocation probe for daemon.allocs_per_packet: counts global operator new
// calls made by threads that have not opted out. The scraper and the HTTP
// handler thread opt out, so a count taken around Daemon::run() covers the
// two serving threads only. alloc_probe.cpp replaces the global allocation
// functions; link it into exactly one binary target.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations counted so far (monotonic; diff around a region).
std::uint64_t counted_allocs();

/// Stop counting allocations made by the calling thread.
void exclude_this_thread_from_alloc_count();

}  // namespace perfbench
