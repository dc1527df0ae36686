// Declarative workload scenarios (in the spirit of ConCap's scenario specs):
// each named workload is data — population, attack mix, flow lengths,
// arrival rate, drift, ingest chaos, gate and serving shape — and one
// generator turns a scenario plus a seed into the bytes a daemon source
// reads. Flows are drawn from trafficgen's benign and attack generators
// (the distributions the served model was trained on); the scenario only
// rewrites 5-tuples, start times, packet budgets and, for drift, sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trafficgen/attacks.hpp"

namespace perfbench {

enum class Wire : std::uint8_t { kPcap, kCsv };

struct Scenario {
  std::string name;
  std::string why;  // one sentence, mirrored in BENCHMARK.json
  Wire wire = Wire::kPcap;
  std::size_t shards = 1;

  // --- population -----------------------------------------------------------
  std::size_t flows = 10000;        // flow incarnations drawn
  double attack_share = 0.3;        // share drawn from the attack generators
  std::vector<iguard::traffic::AttackType> attacks;
  /// 0: every flow gets a fresh 5-tuple (never repeats). >0: flows recycle
  /// this many 5-tuples round-robin; a tuple keeps its label for life.
  std::size_t tuple_pool = 0;
  /// Clamp on the generator's packet budget; swap_scrape sets the minimum to
  /// the served model's n so every flow is finalised on the blue path.
  std::size_t min_packets = 1;
  std::size_t max_packets = 64;
  double flows_per_s = 400.0;       // event-time flow arrival rate

  // --- benign drift ---------------------------------------------------------
  double drift_after = -1.0;        // fraction of arrivals; < 0 = no drift
  double drift_size_scale = 1.0;    // benign size_mu multiplier after it

  // --- ingest chaos (CSV wire only, io::mangle_csv) --------------------------
  double truncate_rate = 0.0;
  double corrupt_rate = 0.0;
  double burst_share = 0.0;         // fraction of the horizon inside bursts
  double burst_multiplier = 1.0;

  // --- serving --------------------------------------------------------------
  bool gate = false;                // OverloadGate enabled, flow-hash shedding
  double drain_fraction = 1.0;      // gate drain rate / mean offered rate
  bool swap = false;                // SwapLoop with drift-triggered rebuilds
  std::size_t alerts_every = 0;     // scrape /alerts every k-th tick (0 = never)
};

/// The named workloads, in BENCHMARK.json order.
const std::vector<Scenario>& scenarios();
/// nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

struct Workload {
  std::string bytes;                // the wire stream a source reads
  std::size_t records = 0;          // packets generated (before chaos)
  std::size_t distinct_flows = 0;   // flow incarnations in the population
  double horizon_s = 0.0;           // event-time span of the stream
  double offered_pps = 0.0;         // event-time record rate on the wire (bulk)
  /// Ground truth by 5-tuple index: every generated flow's source address is
  /// kTupleBase + its tuple index. pcap cannot carry labels, so the chain
  /// re-attaches them from here before verdicts are scored.
  std::vector<std::uint8_t> truth;

  static constexpr std::uint32_t kTupleBase = 0x0A000000u;
  bool label_of(const iguard::traffic::FiveTuple& ft, bool fallback) const {
    const std::uint32_t i = ft.src_ip - kTupleBase;
    return i < truth.size() ? truth[i] != 0 : fallback;
  }
};

/// Deterministic: the same (scenario, seed) gives byte-identical output.
Workload generate(const Scenario& sc, std::uint64_t seed);

}  // namespace perfbench
