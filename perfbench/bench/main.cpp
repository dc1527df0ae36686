// End-to-end iguardd benchmark (see perfbench/README.md).
//
//   perfbench --workload churn --seed 1 --seconds 10 --trace 0
//             [--data-dir .bench_build/perfbench-data] [--commit <id>]
//
// --trace 0: set up the served model several times (setup_s is the median),
// then serve the workload through daemon::Daemon::run() until --seconds have
// passed and report the end-to-end metrics over the runs (throughput from
// the fastest tenth of them, the rest as medians).
// --trace 1: a few untraced Daemon runs, then traced chain runs for the
// per-layer metrics, plus the attribution self-check.
// Every run checks its correctness gates; the last stdout line is the JSON
// result.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/chain.hpp"
#include "bench/host.hpp"
#include "bench/model.hpp"
#include "bench/selfcheck.hpp"
#include "bench/trace.hpp"
#include "bench/workloads.hpp"

namespace {

using namespace perfbench;
namespace daemon = iguard::daemon;

constexpr int kSetupReps = 5;
constexpr std::size_t kMinScrapes = 1010;  // >= 10 samples beyond p99

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the highest tenth of the values, and of at least three of them.
///
/// Throughput is taken from here rather than from a median. On a shared VM a
/// single daemon run slows by up to ~1.6x at random: the same work, the same
/// page faults and context switches, only more user time. The share of
/// slowed runs drifts over minutes, and a median jumps between the fast and
/// the slow mode as it does. The fastest runs track the program's own cost.
double top_decile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), std::greater<>());
  const std::size_t k = std::min(v.size(), std::max<std::size_t>(3, v.size() / 10));
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", why.c_str());
    correct_ = false;
  }
  std::uint64_t attempted = 0, failed = 0;

  std::string json() const {
    std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char num[64];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      const auto r = std::to_chars(num, num + sizeof(num), v);
      out += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
             std::string(num, r.ptr) + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    return out + "}}";
  }

  /// Non-finite values are a measurement failure, not a number.
  void check_finite() {
    for (const auto& [name, m] : metrics_) {
      if (!std::isfinite(m.value)) fail("metric " + name + " is not finite");
    }
  }

 private:
  bool correct_ = true;
  std::map<std::string, Metric> metrics_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

struct Setup {
  std::unique_ptr<ServedModel> model;
  double setup_s = 0.0, train_s = 0.0, compile_s = 0.0, daemon_s = 0.0;
};

/// Model deployment through Daemon construction to the first packet served,
/// kSetupReps times; medians. Keeps the last model for serving.
Setup set_up(const Scenario& sc, const Workload& w, const std::string& path, Result& res) {
  std::vector<double> total, train, compile, build;
  Setup s;
  std::size_t rules = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    auto model = deploy_model();
    const std::int64_t t1 = now_ns();
    {
      daemon::Daemon d(daemon_config(sc, w, path, *model), model->model);
      while (d.drain_some(1) == 0) {
        if (d.pump_once() == daemon::Daemon::PumpStatus::kDone && d.drain_some(1) == 0) {
          res.fail("setup: the source produced no packet");
          break;
        }
      }
    }
    const std::int64_t t2 = now_ns();
    total.push_back(static_cast<double>(t2 - t0) * 1e-9);
    std::fprintf(stderr, "perfbench: set-up %d: %.4f s\n", r + 1, total.back());
    train.push_back(model->train_s);
    compile.push_back(model->compile_s);
    build.push_back(static_cast<double>(t2 - t1) * 1e-9);
    std::size_t n = 0;
    for (const auto& t : model->model.fl_tables->tables) n += t.size();
    if (r > 0 && n != rules) res.fail("setup: model training is not deterministic");
    rules = n;
    s.model = std::move(model);
  }
  s.setup_s = median(total);
  s.train_s = median(train);
  s.compile_s = median(compile);
  s.daemon_s = median(build);
  return s;
}

double f1(const iguard::switchsim::SimStats& s) {
  const double den = 2.0 * static_cast<double>(s.tp) + static_cast<double>(s.fp + s.fn);
  return den > 0.0 ? 2.0 * static_cast<double>(s.tp) / den : 0.0;
}

/// Gates shared by every run of a workload's daemon reps.
void check_daemon_reps(const std::vector<DaemonRep>& reps, Result& res) {
  for (const DaemonRep& r : reps) {
    if (!r.audit.empty()) res.fail("conservation audit: " + r.audit);
    if (!(r.stats == reps.front().stats)) {
      res.fail("two runs on the same seed gave different non-timing stats");
    }
  }
}

void check_scrapes(const ScrapeSamples& s, Result& res) {
  if (s.failures > 0) {
    res.fail(std::to_string(s.failures) + " scrapes did not return 200 with a body");
  }
  if (s.latency_ms.size() < kMinScrapes) {
    res.fail("only " + std::to_string(s.latency_ms.size()) + " /metrics scrapes (need " +
             std::to_string(kMinScrapes) + ")");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread: each daemon run serves from a fresh
  // thread, and serve_rss_mb should not depend on which arena it lands in.
  mallopt(M_ARENA_MAX, 1);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--data-dir <dir>] [--commit <id>]\n");
    return 2;
  }
  const Scenario* sc_ptr = find_scenario(args.workload);
  if (sc_ptr == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Scenario& sc = *sc_ptr;
  std::filesystem::create_directories(args.data_dir);
  const std::string fingerprint = host_fingerprint_json(args.commit);
  std::printf("{\"host\": %s}\n", fingerprint.c_str());

  // Workload bytes: generated from the seed, never timed.
  const Workload w = generate(sc, args.seed);
  const std::string stem = args.data_dir + "/" + sc.name + "-" + std::to_string(args.seed);
  const std::string path = stem + (sc.wire == Wire::kPcap ? ".pcap" : ".csv");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.bytes;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  Result res;
  const Setup setup = set_up(sc, w, path, res);
  const ServedModel& model = *setup.model;
  const daemon::DaemonConfig cfg = daemon_config(sc, w, path, model);
  const bool pcap = sc.wire == Wire::kPcap;

  ScrapeEndpoint endpoint;
  if (const std::string err = endpoint.start(); !err.empty()) {
    std::fprintf(stderr, "perfbench: scrape endpoint: %s\n", err.c_str());
    return 1;
  }
  // Enough /metrics samples over the serving time for a p99 with ten beyond it.
  const auto period_ns = static_cast<std::int64_t>(
      std::clamp(args.seconds * 0.5e9 / static_cast<double>(kMinScrapes), 1e6, 5e6));
  ScrapeSamples scrapes;
  const double budget_s = args.seconds;
  const std::int64_t run_start = now_ns();
  const auto elapsed_s = [&] { return static_cast<double>(now_ns() - run_start) * 1e-9; };

  std::vector<DaemonRep> reps;
  const double untraced_share = args.trace == 0 ? 1.0 : 0.35;
  do {
    reps.push_back(run_daemon(cfg, model, &endpoint, period_ns, sc.alerts_every, &scrapes));
    std::fprintf(stderr, "perfbench: daemon run %zu: %.4f s, %.0f records/s\n", reps.size(),
                 reps.back().wall_s,
                 static_cast<double>(reps.back().stats.ingest.offered) / reps.back().wall_s);
  } while (reps.size() < 2 || elapsed_s() < untraced_share * budget_s);
  check_daemon_reps(reps, res);
  const daemon::DaemonStats& ref = reps.front().stats;
  if (sc.swap && (ref.sim.swap.rebuilds < 1 || ref.sim.swap.publishes < 1)) {
    res.fail("swap_scrape: no drift rebuild and publish landed");
  }
  // An operation is one record offered to a daemon, or one scrape. A record
  // fails when it leaves the chain with no outcome: the reader did not
  // quarantine it, the gate did not shed it and no pipeline served it.
  // Quarantine and shedding are outcomes dirty_ingest provokes on purpose
  // (mangled records, a drain rate below the offered rate); they are
  // reported as reader.quarantined, gate.shed and failed_share.
  for (const DaemonRep& r : reps) {
    const daemon::DaemonStats& s = r.stats;
    const std::uint64_t outcomes = s.ingest.quarantined + s.gate.shed + s.sim.packets;
    res.attempted += s.ingest.offered;
    res.failed += s.ingest.offered > outcomes ? s.ingest.offered - outcomes : 0;
  }

  ChainOptions opt;
  opt.relabel = pcap ? &w : nullptr;
  opt.endpoint = &endpoint;
  opt.scrape_period_ns = period_ns;
  opt.scrapes = &scrapes;
  std::vector<ChainRep> chains;
  do {
    chains.push_back(run_chain(cfg, model, opt));
    if (const std::string diff = compare_stats(ref, chains.back().stats, pcap); !diff.empty()) {
      res.fail("traced chain: " + diff);
    }
  } while (args.trace == 1 && (chains.size() < 2 || elapsed_s() < budget_s));
  check_scrapes(scrapes, res);
  res.attempted += scrapes.requests;
  res.failed += scrapes.failures;
  const iguard::switchsim::SimStats& scored = chains.front().stats.sim;

  if (args.trace == 0) {
    std::vector<double> pps, rss;
    for (const DaemonRep& r : reps) {
      pps.push_back(static_cast<double>(r.stats.ingest.offered) / r.wall_s);
      rss.push_back(r.rss_growth_mb);
    }
    res.set("throughput_pps", top_decile_mean(pps), "1/s");
    res.set("setup_s", setup.setup_s, "s");
    res.set("serve_rss_mb", median(rss), "MB");
    res.set("verdict_f1", f1(scored), "ratio");
  } else {
    if (const std::string err = attribution_selfcheck(model, args.seed, args.data_dir);
        !err.empty()) {
      res.fail("attribution self-check: " + err);
    }
    // Per-layer values are medians over the traced runs.
    std::map<std::string, std::pair<std::string, std::vector<double>>> per;  // unit, values
    const auto put = [&](const std::string& k, const char* unit, double v) {
      per[k].first = unit;
      per[k].second.push_back(v);
    };
    std::vector<double> traced_wall;
    const auto secs = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
    for (const ChainRep& c : chains) {
      const ThreadTrace& p = *c.producer;
      const ThreadTrace& q = *c.consumer;
      const daemon::DaemonStats& s = c.stats;
      const double offered = static_cast<double>(std::max<std::uint64_t>(s.ingest.offered, 1));
      put("source.busy_s", "s", secs(p.self_ns(Layer::kSource)));
      put("framer.busy_s", "s", secs(p.self_ns(Layer::kFramer)));
      put("framer.batches", "count", static_cast<double>(s.batches));
      put("reader.busy_s", "s", secs(p.self_ns(Layer::kReader)));
      put("reader.ns_per_record", "ns", static_cast<double>(p.self_ns(Layer::kReader)) / offered);
      put("reader.quarantined", "count", static_cast<double>(s.ingest.quarantined));
      put("gate.busy_s", "s", secs(p.self_ns(Layer::kGate)));
      put("gate.ns_per_packet", "ns",
          static_cast<double>(p.self_ns(Layer::kGate)) /
              static_cast<double>(std::max<std::uint64_t>(s.gate.offered, 1)));
      put("gate.shed", "count", static_cast<double>(s.gate.shed));
      put("gate.queue_hwm", "count", static_cast<double>(s.gate.queue_hwm));
      put("ring.push_stall_s", "s", secs(p.self_ns(Layer::kRingStall)));
      put("ring.pop_idle_s", "s", secs(q.self_ns(Layer::kRingIdle)));
      put("ring.sojourn_us_p50", "us", quantile(c.sojourn_us, 0.50));
      put("ring.sojourn_us_p99", "us", quantile(c.sojourn_us, 0.99));
      put("ring.depth_p50", "count", quantile(c.depth, 0.50));
      put("producer.busy_share", "ratio",
          1.0 - static_cast<double>(p.self_ns(Layer::kRingStall)) /
                    static_cast<double>(p.wall_ns()));
      put("consumer.busy_share", "ratio",
          1.0 - static_cast<double>(q.self_ns(Layer::kRingIdle)) /
                    static_cast<double>(q.wall_ns()));
      const double popped = static_cast<double>(std::max<std::uint64_t>(s.popped, 1));
      put("steer.ns_per_packet", "ns", static_cast<double>(q.self_ns(Layer::kSteer)) / popped);
      double most = 0.0;
      for (const auto& sh : c.per_shard) most = std::max(most, static_cast<double>(sh.packets));
      put("shard.imbalance", "ratio", most * static_cast<double>(c.per_shard.size()) / popped);
      static const std::pair<const char*, Layer> kPaths[] = {
          {"red", Layer::kRed},       {"brown", Layer::kBrown},   {"blue", Layer::kBlue},
          {"orange", Layer::kOrange}, {"purple", Layer::kPurple},
      };
      std::int64_t pipeline_ns = 0;
      for (std::size_t i = 0; i < 5; ++i) {
        const auto& [name, layer] = kPaths[i];
        const double n = static_cast<double>(s.sim.path_count[i]);
        put(std::string("pipeline.") + name + ".packets", "count", n);
        put(std::string("pipeline.") + name + ".ns_per_packet", "ns",
            n > 0 ? static_cast<double>(q.self_ns(layer)) / n : 0.0);
        pipeline_ns += q.self_ns(layer);
      }
      put("pipeline.busy_s", "s", secs(pipeline_ns));
      put("pipeline.epilogue_s", "s", secs(q.self_ns(Layer::kEpilogue)));
      put("pipeline.flows_finalised_share", "ratio",
          static_cast<double>(s.sim.flows_classified) / static_cast<double>(w.distinct_flows));
      put("pipeline.collisions", "count", static_cast<double>(s.sim.collisions));
      put("pipeline.leaked_packets", "count", static_cast<double>(s.sim.faults.leaked_packets));
      put("blacklist.installs", "count", static_cast<double>(s.sim.faults.installs_applied));
      put("blacklist.evictions", "count", static_cast<double>(c.blacklist_evictions));
      put("swap.publishes", "count", static_cast<double>(s.sim.swap.publishes));
      put("swap.rebuilds", "count", static_cast<double>(s.sim.swap.rebuilds));
      put("swap.stall_ms_max", "ms", c.swap_stall_ms_max);
      double unaccounted = 0.0;
      for (const ThreadTrace* t : {&p, &q}) {
        unaccounted = std::max(unaccounted, std::fabs(t->unaccounted_share()));
        if (std::fabs(t->unaccounted_share()) > kUnaccountedTolerance) {
          res.fail(t->name() + " self times do not reconcile to its wall time");
        }
      }
      put("trace.unaccounted_share", "ratio", unaccounted);
      traced_wall.push_back(c.wall_s);
    }
    std::vector<double> untraced_wall, allocs;
    for (const DaemonRep& r : reps) {
      untraced_wall.push_back(r.wall_s);
      allocs.push_back(static_cast<double>(r.allocs) /
                       static_cast<double>(std::max<std::uint64_t>(r.stats.ingest.offered, 1)));
    }
    for (const auto& [k, uv] : per) res.set(k, median(uv.second), uv.first);
    res.set("trace.overhead_share", median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
    res.set("daemon.allocs_per_packet", median(allocs), "count");
    res.set("failed_share",
            static_cast<double>(ref.ingest.quarantined + ref.gate.shed) /
                static_cast<double>(ref.ingest.offered),
            "ratio");
    res.set("setup.train_s", setup.train_s, "s");
    res.set("setup.compile_s", setup.compile_s, "s");
    res.set("setup.daemon_s", setup.daemon_s, "s");
    const std::vector<double> render = endpoint.render_ms();
    res.set("obs.render_ms_p50", quantile(render, 0.50), "ms");
    res.set("obs.render_ms_p99", quantile(render, 0.99), "ms");
    res.set("obs.exposition_bytes", median(endpoint.exposition_bytes()), "bytes");
    res.set("scraper.lateness_ms_p99", quantile(scrapes.lateness_ms, 0.99), "ms");
    // Scrape latency is too noisy on a shared host to carry a bound; it is
    // reported with the per-layer metrics instead (see README.md).
    res.set("scrape_p50_ms", quantile(scrapes.latency_ms, 0.50), "ms");
    res.set("scrape_p99_ms", quantile(scrapes.latency_ms, 0.99), "ms");
    if (!write_spans(stem + ".spans.jsonl",
                     {chains.back().producer.get(), chains.back().consumer.get()})) {
      res.fail("cannot write the span file");
    }
  }
  res.check_finite();
  // The bytes are regenerated from the seed on every run; do not let a
  // long series of seeds fill the disk.
  std::filesystem::remove(path);

  const std::string line = res.json();
  std::ofstream(stem + "-trace" + std::to_string(args.trace) + ".json", std::ios::trunc)
      << "{\"host\": " << fingerprint << ", \"workload\": \"" << sc.name
      << "\", \"seed\": " << args.seed << ", \"result\": " << line << "}\n";
  std::printf("%s\n", line.c_str());
  return 0;
}
