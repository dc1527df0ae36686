// The two ways the benchmark serves a workload:
//
//  * run_daemon(): daemon::Daemon::run(), the threaded loop iguardd uses,
//    with tracing off. End-to-end metrics come from here.
//  * run_chain(): the same chain rebuilt from the public classes the Daemon
//    composes — a producer thread running FileTail → RecordFramer →
//    TraceReader → cross-batch timestamp clamp → OverloadGate → SpscRing,
//    and the calling thread consuming SpscRing → shard_of → Pipeline::process
//    → finish_stream — with a lap clock and spans around every call
//    (trace.hpp). Per-layer metrics come from here, and its non-timing stats
//    must equal the Daemon's exactly.
//
// Both can serve /metrics (and /alerts) to an open-loop Scraper through the
// daemon's HttpServer while they run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/model.hpp"
#include "bench/trace.hpp"
#include "bench/workloads.hpp"
#include "daemon/daemon.hpp"
#include "daemon/http.hpp"

namespace perfbench {

/// The DaemonConfig a scenario serves with (registry left unset).
iguard::daemon::DaemonConfig daemon_config(const Scenario& sc, const Workload& w,
                                           const std::string& source_path,
                                           const ServedModel& model);

/// Loopback HTTP endpoint whose handler renders whatever target is bound.
/// Render time inside the handler is recorded per /metrics request.
class ScrapeEndpoint {
 public:
  using Render = std::function<std::string()>;

  ScrapeEndpoint() = default;
  ScrapeEndpoint(const ScrapeEndpoint&) = delete;
  ScrapeEndpoint& operator=(const ScrapeEndpoint&) = delete;

  /// Bind an ephemeral loopback port and serve one warm-up request. Empty on
  /// success, otherwise the failing call.
  std::string start();
  std::uint16_t port() const { return server_.port(); }
  void bind(Render metrics, Render alerts);
  void unbind();
  /// Render times (ms) and exposition sizes (bytes) of /metrics so far.
  std::vector<double> render_ms() const;
  std::vector<double> exposition_bytes() const;

 private:
  iguard::daemon::HttpResponse handle(const std::string& path);

  mutable std::mutex mu_;  // guards the bound renderers and the samples
  Render metrics_, alerts_;
  std::vector<double> render_ms_, bytes_;
  iguard::daemon::HttpServer server_;  // last: its thread calls handle()
};

struct ScrapeSamples {
  std::vector<double> latency_ms;   // /metrics, from each scrape's due time
  std::vector<double> lateness_ms;  // send time minus due time, every request
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;       // non-200 status or empty body
};

/// Open-loop scraper: GET /metrics every `period_ns` (and /alerts every
/// `alerts_every`-th tick), one connection at a time, from its own thread.
class Scraper {
 public:
  Scraper(std::uint16_t port, std::int64_t period_ns, std::size_t alerts_every,
          ScrapeSamples& out);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  /// Finish the request in flight and join.
  void stop();

 private:
  void loop();

  std::uint16_t port_;
  std::int64_t period_ns_;
  std::size_t alerts_every_;
  ScrapeSamples* out_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member above
};

struct DaemonRep {
  iguard::daemon::DaemonStats stats;
  double wall_s = 0.0;
  double rss_growth_mb = 0.0;  // from before Daemon construction to the end of run()
  std::uint64_t allocs = 0;  // operator new on the serving threads
  std::string audit;         // audit_daemon_conservation(); empty when clean
};

/// One Daemon::run() over the workload file. With an endpoint, the daemon is
/// bound to it and scraped every `scrape_period_ns` while it serves.
DaemonRep run_daemon(const iguard::daemon::DaemonConfig& cfg, const ServedModel& model,
                     ScrapeEndpoint* endpoint, std::int64_t scrape_period_ns,
                     std::size_t alerts_every, ScrapeSamples* scrapes);

struct ChainOptions {
  /// Re-attach ground truth by flow before scoring (pcap carries no labels).
  const Workload* relabel = nullptr;
  std::int64_t gate_delay_ns = 0;    // self-check: busy-wait per gate offer
  ScrapeEndpoint* endpoint = nullptr;
  std::int64_t scrape_period_ns = 0;
  ScrapeSamples* scrapes = nullptr;
};

struct ChainRep {
  iguard::daemon::DaemonStats stats;  // the Daemon's stats, rebuilt
  std::vector<iguard::switchsim::SimStats> per_shard;
  std::uint64_t blacklist_evictions = 0;
  double wall_s = 0.0;
  std::unique_ptr<ThreadTrace> producer, consumer;
  std::vector<double> sojourn_us;   // sampled push-to-pop time
  std::vector<double> depth;        // ring occupancy at sampled pops
  double swap_stall_ms_max = 0.0;   // longest process() with a rebuild/publish
  std::int64_t gate_delay_ns = 0;   // busy-wait time spent (ChainOptions::gate_delay_ns)
};

ChainRep run_chain(const iguard::daemon::DaemonConfig& cfg, const ServedModel& model,
                   const ChainOptions& opt);

/// Empty when the chain reproduced the daemon's non-timing stats; otherwise
/// the first field that differs. With `labels_differ` (pcap: the daemon saw
/// no ground truth), the confusion counts are compared as verdicts only.
std::string compare_stats(const iguard::daemon::DaemonStats& daemon,
                          const iguard::daemon::DaemonStats& chain, bool labels_differ);

}  // namespace perfbench
