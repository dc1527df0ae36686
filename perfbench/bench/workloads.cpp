#include "bench/workloads.hpp"

#include <algorithm>
#include <sstream>

#include "io/chaos.hpp"
#include "io/ingest.hpp"
#include "ml/rng.hpp"
#include "trafficgen/benign.hpp"
#include "trafficgen/pcap_io.hpp"

namespace perfbench {

using iguard::traffic::AttackType;
using iguard::traffic::FlowSpec;

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = [] {
    std::vector<Scenario> v;

    Scenario churn;
    churn.name = "churn";
    churn.why =
        "never-repeating 5-tuples saturate the flow store, so the consumer (flow state, ring "
        "handoff, 2-shard steering) is the bottleneck";
    churn.wire = Wire::kPcap;
    churn.shards = 2;
    churn.flows = 36000;
    churn.attack_share = 0.35;
    churn.attacks = {AttackType::kMirai, AttackType::kUdpDdos, AttackType::kOsScan,
                     AttackType::kDataTheft, AttackType::kTcpDdos};
    churn.min_packets = 1;
    churn.max_packets = 48;
    churn.flows_per_s = 300.0;
    v.push_back(churn);

    Scenario dirty;
    dirty.name = "dirty_ingest";
    dirty.why =
        "mangled CSV through the strict reader, quarantine and a shedding overload gate, so the "
        "producer is the bottleneck and pipeline changes should not show";
    dirty.wire = Wire::kCsv;
    dirty.shards = 1;
    dirty.flows = 2400;
    dirty.attack_share = 0.3;
    dirty.attacks = {AttackType::kMirai, AttackType::kUdpDdos, AttackType::kBashlite};
    dirty.min_packets = 120;
    dirty.max_packets = 320;
    dirty.flows_per_s = 40.0;
    dirty.truncate_rate = 0.02;
    dirty.corrupt_rate = 0.02;
    dirty.burst_share = 0.2;
    dirty.burst_multiplier = 3.0;
    dirty.gate = true;
    dirty.drain_fraction = 0.8;
    v.push_back(dirty);

    Scenario swap;
    swap.name = "swap_scrape";
    swap.why =
        "recycled flows that all reach n packets load the blue path, benign drift forces a model "
        "rebuild and publish, and /metrics is scraped throughout";
    swap.wire = Wire::kPcap;
    swap.shards = 1;
    swap.flows = 12000;
    swap.attack_share = 0.25;
    swap.attacks = {AttackType::kMirai, AttackType::kUdpDdos, AttackType::kServiceScan};
    swap.tuple_pool = 3000;
    swap.min_packets = 32;
    swap.max_packets = 56;
    swap.flows_per_s = 40.0;
    swap.drift_after = 0.5;
    swap.drift_size_scale = 2.5;
    swap.swap = true;
    swap.alerts_every = 10;
    v.push_back(swap);
    return v;
  }();
  return all;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

std::uint64_t name_salt(const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Draw `count` attack specs spread round-robin over the scenario's classes.
std::vector<FlowSpec> draw_attacks(const Scenario& sc, std::size_t count, iguard::ml::Rng& rng) {
  std::vector<FlowSpec> out;
  if (count == 0 || sc.attacks.empty()) return out;
  const std::size_t k = sc.attacks.size();
  std::vector<std::vector<FlowSpec>> per_class;
  for (std::size_t c = 0; c < k; ++c) {
    iguard::traffic::AttackConfig acfg;
    acfg.flows = (count + k - 1 - c) / k;
    per_class.push_back(iguard::traffic::attack_flows(sc.attacks[c], acfg, rng));
  }
  std::vector<std::size_t> next(k, 0);
  for (std::size_t i = 0; out.size() < count; ++i) {
    auto& cls = per_class[i % k];
    if (next[i % k] < cls.size()) out.push_back(cls[next[i % k]++]);
    if (i > count * k + k) break;  // a generator returned fewer than asked
  }
  return out;
}

}  // namespace

Workload generate(const Scenario& sc, std::uint64_t seed) {
  iguard::ml::Rng rng(seed ^ name_salt(sc.name));
  const std::size_t flows = sc.flows;

  // Which flow incarnations are attacks. A recycled tuple keeps its label for
  // life, so with a pool the label is a function of the tuple index.
  std::vector<bool> is_attack(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    if (sc.tuple_pool > 0) {
      const std::size_t tuple = i % sc.tuple_pool;
      is_attack[i] = static_cast<double>(tuple % 100) < sc.attack_share * 100.0;
    } else {
      is_attack[i] = rng.uniform() < sc.attack_share;
    }
  }
  const auto n_attack = static_cast<std::size_t>(std::count(is_attack.begin(), is_attack.end(), true));

  iguard::traffic::BenignConfig bcfg;
  bcfg.flows = flows - n_attack;
  std::vector<FlowSpec> benign = iguard::traffic::benign_flows(bcfg, rng);
  std::vector<FlowSpec> attack = draw_attacks(sc, n_attack, rng);

  std::vector<FlowSpec> specs;
  specs.reserve(flows);
  std::size_t bi = 0, ai = 0;
  const double lo = static_cast<double>(std::max<std::size_t>(sc.min_packets, 1));
  const double hi = static_cast<double>(std::max(sc.max_packets, sc.min_packets));
  for (std::size_t i = 0; i < flows; ++i) {
    FlowSpec s;
    if (is_attack[i] && ai < attack.size()) {
      s = attack[ai++];
      s.malicious = true;
    } else if (bi < benign.size()) {
      s = benign[bi++];
      s.malicious = false;
      if (sc.drift_after >= 0.0 &&
          static_cast<double>(i) >= sc.drift_after * static_cast<double>(flows)) {
        s.size_mu *= sc.drift_size_scale;
        s.size_sigma *= sc.drift_size_scale;
      }
    } else {
      continue;
    }
    const std::size_t tuple = sc.tuple_pool > 0 ? i % sc.tuple_pool : i;
    s.ft.src_ip = Workload::kTupleBase + static_cast<std::uint32_t>(tuple);
    s.start = static_cast<double>(i) / sc.flows_per_s + rng.uniform(0.0, 1.0 / sc.flows_per_s);
    s.packets = static_cast<std::size_t>(
        std::clamp(static_cast<double>(s.packets), lo, hi));
    s.flow_id = static_cast<std::uint32_t>(i);
    specs.push_back(s);
  }

  Workload w;
  w.distinct_flows = specs.size();
  w.truth.assign(sc.tuple_pool > 0 ? sc.tuple_pool : flows, 0);
  for (const FlowSpec& s : specs) w.truth[s.ft.src_ip - Workload::kTupleBase] = s.malicious;
  iguard::traffic::Trace trace = iguard::traffic::emit_packets(specs, rng);
  w.records = trace.size();
  w.horizon_s = trace.empty() ? 0.0 : trace.packets.back().ts;

  std::size_t wire_records = w.records;
  if (sc.wire == Wire::kPcap) {
    std::ostringstream os;
    iguard::traffic::write_pcap(os, trace);
    w.bytes = std::move(os).str();
  } else {
    iguard::switchsim::FaultConfig faults;
    faults.seed = seed;
    faults.record_truncate_rate = sc.truncate_rate;
    faults.record_corrupt_rate = sc.corrupt_rate;
    if (sc.burst_share > 0.0 && sc.burst_multiplier > 1.0) {
      constexpr int kWindows = 4;
      const double len = sc.burst_share * w.horizon_s / kWindows;
      for (int k = 0; k < kWindows; ++k) {
        const double mid = (2.0 * k + 1.0) / (2.0 * kWindows) * w.horizon_s;
        faults.bursts.push_back({mid - len / 2.0, len, sc.burst_multiplier});
      }
    }
    iguard::io::ChaosStats cs;
    w.bytes = iguard::io::mangle_csv(iguard::io::trace_to_csv(trace), faults, 64, cs);
    wire_records = cs.records_out;
  }
  // Long-lived flows leave a sparse tail after the last arrival, so the rate
  // is taken over the span holding the middle 80% of packets.
  if (w.records >= 10) {
    const double t10 = trace.packets[w.records / 10].ts;
    const double t90 = trace.packets[w.records * 9 / 10].ts;
    const double share = static_cast<double>(wire_records) / static_cast<double>(w.records);
    if (t90 > t10) w.offered_pps = 0.8 * static_cast<double>(w.records) * share / (t90 - t10);
  }
  return w;
}

}  // namespace perfbench
