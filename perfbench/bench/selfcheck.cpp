#include "bench/selfcheck.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "bench/chain.hpp"

namespace perfbench {

std::string attribution_selfcheck(const ServedModel& model, std::uint64_t seed,
                                  const std::string& data_dir) {
  Scenario sc = *find_scenario("churn");
  sc.flows = 3000;
  const Workload w = generate(sc, seed);
  const std::string path = data_dir + "/selfcheck-" + std::to_string(seed) + ".pcap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.bytes;
    if (!out) return "cannot write " + path;
  }
  const iguard::daemon::DaemonConfig cfg = daemon_config(sc, w, path, model);

  constexpr std::int64_t kDelayNs = 2000;
  ChainOptions plain;
  plain.relabel = &w;
  ChainOptions slowed = plain;
  slowed.gate_delay_ns = kDelayNs;
  const ChainRep base = run_chain(cfg, model, plain);
  const ChainRep slow = run_chain(cfg, model, slowed);
  std::filesystem::remove(path);

  for (const ThreadTrace* t : {base.producer.get(), base.consumer.get()}) {
    const double u = t->unaccounted_share();
    if (std::fabs(u) > kUnaccountedTolerance) {
      return t->name() + ": self times leave " + std::to_string(u) +
             " of wall time unaccounted";
    }
  }
  if (const std::string diff = compare_stats(base.stats, slow.stats, false); !diff.empty()) {
    return "the busy-wait changed the chain's stats: " + diff;
  }
  // The busy-wait's own measure of what it spent: preemption can stretch a
  // spin past its nominal length, and that time is still the gate wrapper's.
  const double injected = static_cast<double>(slow.gate_delay_ns);
  if (injected < static_cast<double>(kDelayNs) * static_cast<double>(slow.stats.gate.offered)) {
    return "the busy-wait spent less than its nominal delay";
  }
  const auto delta = [&](Layer l) {
    return static_cast<double>(slow.producer->self_ns(l) - base.producer->self_ns(l));
  };
  const double gate = delta(Layer::kGate);
  if (std::fabs(gate - injected) > kAttributionTolerance * injected) {
    return "gate self time moved by " + std::to_string(gate * 1e-9) + " s, injected " +
           std::to_string(injected * 1e-9) + " s";
  }
  for (std::size_t i = 0; i < kLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    if (l == Layer::kGate) continue;
    if (delta(l) > kAttributionTolerance * injected) {
      return std::string(layer_name(l)) + " absorbed " + std::to_string(delta(l) * 1e-9) +
             " s of the gate's injected " + std::to_string(injected * 1e-9) + " s";
    }
  }
  return {};
}

}  // namespace perfbench
