#include <gtest/gtest.h>

#include "ml/rng.hpp"
#include "switchsim/replay.hpp"

namespace iguard::switchsim {
namespace {

/// Synthetic mixed trace: `flows` bidirectional flows, ~8 packets each,
/// interleaved in time. Malicious flows send large packets so the min-size
/// feature separates the classes crisply after quantisation.
traffic::Trace make_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 3 == 0;
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 7),
                          static_cast<std::uint16_t>(1024 + f), 443, traffic::kProtoTcp};
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.001 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0005);
      p.ft = i % 2 == 0 ? ft : ft.reversed();  // both directions
      p.length = mal ? static_cast<std::uint16_t>(1200 + rng.index(200))
                     : static_cast<std::uint16_t>(80 + rng.index(60));
      p.malicious = mal;
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

class ReplayTest : public ::testing::Test {
 protected:
  ReplayTest() {
    ml::Matrix fake(2, kSwitchFlFeatures);
    for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) {
      fake(0, j) = 0.0;
      fake(1, j) = 1e6;
    }
    quant_.fit(fake);
    // One tree whose only rule admits flows with min packet size below the
    // quantised level of ~600 B: benign flows match, attack flows do not.
    wl_.tree_count = 1;
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, quant_.domain_max()});
    box[5] = {0, quant_.quantize_value(5, 600.0)};  // feature 5 = min size
    wl_.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }

  DeployedModel model() const {
    DeployedModel dm;
    dm.fl_tables = &wl_;
    dm.fl_quantizer = &quant_;
    return dm;
  }

  PipelineConfig pipe_cfg() const {
    PipelineConfig cfg;
    cfg.packet_threshold_n = 4;
    cfg.idle_timeout_delta = 10.0;
    return cfg;
  }

  rules::Quantizer quant_{16};
  core::VoteWhitelist wl_;
};

TEST_F(ReplayTest, ShardOfIsDirectionInvariant) {
  ml::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    traffic::FiveTuple ft{static_cast<std::uint32_t>(rng.integer(1, 1 << 30)),
                          static_cast<std::uint32_t>(rng.integer(1, 1 << 30)),
                          static_cast<std::uint16_t>(rng.integer(1, 65535)),
                          static_cast<std::uint16_t>(rng.integer(1, 65535)),
                          traffic::kProtoUdp};
    for (std::size_t k : {2u, 4u, 8u}) {
      EXPECT_EQ(shard_of(ft, k), shard_of(ft.reversed(), k));
    }
  }
}

TEST_F(ReplayTest, ShardTraceIsFlowDisjointAndOrderPreserving) {
  ml::Rng rng(7);
  const auto trace = make_trace(60, 8, rng);
  ReplayConfig rc;
  rc.shards = 4;
  const auto parts = shard_trace(trace, rc);
  std::size_t total = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    total += parts[s].size();
    double prev = -1.0;
    for (const auto& p : parts[s].packets) {
      EXPECT_EQ(shard_of(p.ft, rc.shards, rc.shard_seed), s);
      EXPECT_GE(p.ts, prev);  // stable partition keeps time order
      prev = p.ts;
    }
  }
  EXPECT_EQ(total, trace.size());
}

TEST_F(ReplayTest, ShardedAggregateEqualsSequentialPerShardSum) {
  // The parallel K-shard replay must equal running the K per-shard pipelines
  // one after another and summing their stats — shard isolation is exact.
  ml::Rng rng(11);
  const auto trace = make_trace(80, 8, rng);
  const auto dm = model();
  ReplayConfig rc;
  rc.shards = 4;

  const auto parallel = replay_sharded(trace, pipe_cfg(), dm, rc);

  const auto parts = shard_trace(trace, rc);
  std::vector<SimStats> seq(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    Pipeline pipe(pipe_cfg(), dm);
    seq[s] = pipe.run(parts[s]);
  }
  const SimStats want = merge_stats(seq);

  EXPECT_EQ(parallel.stats.packets, want.packets);
  EXPECT_EQ(parallel.stats.dropped, want.dropped);
  EXPECT_EQ(parallel.stats.flows_classified, want.flows_classified);
  EXPECT_EQ(parallel.stats.blacklist_hits, want.blacklist_hits);
  EXPECT_EQ(parallel.stats.collisions, want.collisions);
  EXPECT_EQ(parallel.stats.path_count, want.path_count);
  EXPECT_EQ(parallel.stats.tp, want.tp);
  EXPECT_EQ(parallel.stats.fp, want.fp);
  EXPECT_EQ(parallel.stats.tn, want.tn);
  EXPECT_EQ(parallel.stats.fn, want.fn);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    EXPECT_EQ(parallel.per_shard[s].pred, seq[s].pred);
    EXPECT_EQ(parallel.per_shard[s].truth, seq[s].truth);
  }
}

TEST_F(ReplayTest, BitIdenticalAcrossThreadCounts) {
  ml::Rng rng(13);
  const auto trace = make_trace(100, 8, rng);
  const auto dm = model();
  ReplayConfig rc;
  rc.shards = 8;
  rc.num_threads = 1;
  const auto a = replay_sharded(trace, pipe_cfg(), dm, rc);
  rc.num_threads = 8;
  const auto b = replay_sharded(trace, pipe_cfg(), dm, rc);
  EXPECT_EQ(a.stats.pred, b.stats.pred);
  EXPECT_EQ(a.stats.truth, b.stats.truth);
  EXPECT_EQ(a.stats.packets, b.stats.packets);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.path_count, b.stats.path_count);
  EXPECT_EQ(a.stats.faults.leaked_packets, b.stats.faults.leaked_packets);
}

TEST_F(ReplayTest, MergedLabelsFollowOriginalTraceOrder) {
  // pred/truth from the sharded replay must line up with the input trace
  // packet-for-packet: truth is an input, so it must round-trip exactly.
  ml::Rng rng(17);
  const auto trace = make_trace(50, 6, rng);
  ReplayConfig rc;
  rc.shards = 4;
  const auto out = replay_sharded(trace, pipe_cfg(), model(), rc);
  ASSERT_EQ(out.stats.truth.size(), trace.size());
  ASSERT_EQ(out.stats.pred.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(out.stats.truth[i], trace.packets[i].malicious ? 1 : 0);
  }
}

TEST_F(ReplayTest, SingleShardMatchesPlainPipelineRun) {
  ml::Rng rng(19);
  const auto trace = make_trace(40, 8, rng);
  const auto dm = model();
  const auto sharded = replay_sharded(trace, pipe_cfg(), dm, ReplayConfig{});
  Pipeline pipe(pipe_cfg(), dm);
  const auto plain = pipe.run(trace);
  EXPECT_EQ(sharded.stats.pred, plain.pred);
  EXPECT_EQ(sharded.stats.truth, plain.truth);
  EXPECT_EQ(sharded.stats.dropped, plain.dropped);
  EXPECT_EQ(sharded.stats.path_count, plain.path_count);
}

TEST_F(ReplayTest, RecordLabelsOffKeepsConfusionCounts) {
  ml::Rng rng(23);
  const auto trace = make_trace(60, 8, rng);
  const auto dm = model();
  PipelineConfig on = pipe_cfg();
  PipelineConfig off = pipe_cfg();
  off.record_labels = false;

  Pipeline pipe_on(on, dm);
  Pipeline pipe_off(off, dm);
  const auto a = pipe_on.run(trace);
  const auto b = pipe_off.run(trace);

  EXPECT_TRUE(b.pred.empty());
  EXPECT_TRUE(b.truth.empty());
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.tn, b.tn);
  EXPECT_EQ(a.fn, b.fn);
  EXPECT_EQ(a.tp + a.fp + a.tn + a.fn, a.packets);
  // The recorded vectors and the counters tell the same story.
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  for (std::size_t i = 0; i < a.pred.size(); ++i) {
    if (a.pred[i] && a.truth[i]) ++tp;
    else if (a.pred[i]) ++fp;
    else if (a.truth[i]) ++fn;
    else ++tn;
  }
  EXPECT_EQ(a.tp, tp);
  EXPECT_EQ(a.fp, fp);
  EXPECT_EQ(a.tn, tn);
  EXPECT_EQ(a.fn, fn);
}

TEST_F(ReplayTest, SharedPrecompiledTablesMatchOwnCompilation) {
  // A DeployedModel carrying pre-compiled whitelists (compile once, share
  // across shard pipelines) must replay bit-identically to pipelines that
  // compile their own copies.
  ml::Rng rng(31);
  const auto trace = make_trace(80, 8, rng);
  const auto own = model();
  DeployedModel shared = model();
  const core::CompiledVoteWhitelist fl_compiled(wl_);
  shared.fl_compiled = &fl_compiled;

  ReplayConfig rc;
  rc.shards = 4;
  const auto a = replay_sharded(trace, pipe_cfg(), own, rc);
  const auto b = replay_sharded(trace, pipe_cfg(), shared, rc);
  EXPECT_EQ(a.stats.pred, b.stats.pred);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.path_count, b.stats.path_count);
  EXPECT_EQ(a.stats.flows_classified, b.stats.flows_classified);
}

// --- model-swap determinism matrix ------------------------------------------

/// Three-table vote whitelist over min packet size (feature 5): two broad
/// tables admit up to ~900 B, one narrow table only up to ~300 B. Early
/// benign traffic (~100 B) is covered by all three; drifted benign traffic
/// (~700 B) stays majority-benign but misses the narrow table on every
/// mirror — the sustained-miss regime the drift detector fires on.
core::VoteWhitelist swap_whitelist(const rules::Quantizer& q) {
  core::VoteWhitelist wl;
  wl.tree_count = 3;
  for (double cap : {900.0, 900.0, 300.0}) {
    std::vector<rules::FieldRange> box(kSwitchFlFeatures, {0, q.domain_max()});
    box[5] = {0, q.quantize_value(5, cap)};
    wl.tables.emplace_back(std::vector<rules::RangeRule>{{box, 0, 0}});
  }
  return wl;
}

/// Benign traffic whose packet size migrates mid-trace (small -> ~700 B),
/// with malicious large-packet flows mixed in throughout.
traffic::Trace drift_trace(std::size_t flows, std::size_t packets_per_flow, ml::Rng& rng) {
  traffic::Trace t;
  for (std::size_t f = 0; f < flows; ++f) {
    const bool mal = f % 5 == 0;
    const bool drifted = f >= flows / 2;  // late flows carry the new profile
    traffic::FiveTuple ft{0x0A000000u + static_cast<std::uint32_t>(f),
                          0x0B000000u + static_cast<std::uint32_t>(f % 7),
                          static_cast<std::uint16_t>(1024 + f), 443, traffic::kProtoTcp};
    for (std::size_t i = 0; i < packets_per_flow; ++i) {
      traffic::Packet p;
      p.ts = 0.001 * static_cast<double>(f) + 0.05 * static_cast<double>(i) +
             rng.uniform(0.0, 0.0005);
      p.ft = i % 2 == 0 ? ft : ft.reversed();
      if (mal) {
        p.length = static_cast<std::uint16_t>(1200 + rng.index(200));
      } else if (drifted) {
        p.length = static_cast<std::uint16_t>(650 + rng.index(100));
      } else {
        p.length = static_cast<std::uint16_t>(80 + rng.index(60));
      }
      p.malicious = mal;
      t.packets.push_back(p);
    }
  }
  t.sort_by_time();
  return t;
}

PipelineConfig swap_pipe_cfg(bool enable_swap) {
  PipelineConfig cfg;
  cfg.packet_threshold_n = 4;
  cfg.idle_timeout_delta = 10.0;
  cfg.swap.enabled = enable_swap;
  cfg.swap.drift.window = 16;
  cfg.swap.drift.baseline_windows = 1;
  cfg.swap.drift.miss_rate_margin = 0.10;
  // A ~400 B size jump is ~25 quantised levels: out of per-field reach, so
  // the updater cannot absorb the drift and the miss rate must fire.
  cfg.swap.update.max_extension_per_field = 8;
  cfg.swap.publish_after_extensions = 0;  // drift is the only trigger
  cfg.swap.recent_capacity = 512;
  return cfg;
}

TEST_F(ReplayTest, DriftTriggeredSwapsAreBitIdenticalAcrossShardAndThreadCounts) {
  ml::Rng rng(31);
  const auto trace = drift_trace(400, 8, rng);
  rules::Quantizer q = quant_;
  const auto wl = swap_whitelist(q);
  DeployedModel dm;
  dm.fl_tables = &wl;
  dm.fl_quantizer = &q;
  const auto cfg = swap_pipe_cfg(true);

  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    ReplayConfig rc;
    rc.shards = k;
    rc.num_threads = 1;
    const auto a = replay_sharded(trace, cfg, dm, rc);
    rc.num_threads = k;
    const auto b = replay_sharded(trace, cfg, dm, rc);
    EXPECT_EQ(a.stats.pred, b.stats.pred) << "shards=" << k;
    EXPECT_EQ(a.stats.truth, b.stats.truth) << "shards=" << k;
    EXPECT_EQ(a.stats.path_count, b.stats.path_count) << "shards=" << k;
    EXPECT_EQ(a.stats.tp, b.stats.tp) << "shards=" << k;
    EXPECT_EQ(a.stats.fn, b.stats.fn) << "shards=" << k;
    EXPECT_EQ(a.stats.swap.publishes, b.stats.swap.publishes) << "shards=" << k;
    EXPECT_EQ(a.stats.swap.drift_fires, b.stats.swap.drift_fires) << "shards=" << k;
    EXPECT_EQ(a.stats.swap.mirrors_applied, b.stats.swap.mirrors_applied) << "shards=" << k;
    EXPECT_EQ(a.stats.swap.extensions_applied, b.stats.swap.extensions_applied)
        << "shards=" << k;
    EXPECT_EQ(a.stats.swap.final_version, b.stats.swap.final_version) << "shards=" << k;
    EXPECT_EQ(a.stats.faults.mirrors_enqueued, b.stats.faults.mirrors_enqueued)
        << "shards=" << k;
    EXPECT_EQ(a.stats.faults.mirrors_delivered, b.stats.faults.mirrors_delivered)
        << "shards=" << k;
    if (k == 1) {
      // The workload genuinely drifts: the single-shard run must swap.
      EXPECT_GE(a.stats.swap.publishes, 1u);
      EXPECT_GE(a.stats.swap.drift_fires, 1u);
      EXPECT_GT(a.stats.swap.final_version, 1u);
    }
    // Hitless accounting at every shard count: every packet took exactly one
    // path and produced exactly one confusion entry.
    std::size_t paths = 0;
    for (const auto c : a.stats.path_count) paths += c;
    EXPECT_EQ(paths, a.stats.packets) << "shards=" << k;
    EXPECT_EQ(a.stats.tp + a.stats.fp + a.stats.tn + a.stats.fn, a.stats.packets)
        << "shards=" << k;
  }
}

TEST_F(ReplayTest, SwapLoopWithoutTriggersIsByteIdenticalToDisabled) {
  // With the loop enabled but no trigger armed (drift off, no extension
  // threshold), mirrors flow and staging learns — but nothing publishes, so
  // every data-plane observable must match a swap-disabled run exactly.
  ml::Rng rng(37);
  const auto trace = drift_trace(150, 8, rng);
  rules::Quantizer q = quant_;
  const auto wl = swap_whitelist(q);
  DeployedModel dm;
  dm.fl_tables = &wl;
  dm.fl_quantizer = &q;
  auto on = swap_pipe_cfg(true);
  on.swap.drift.enabled = false;
  const auto off = swap_pipe_cfg(false);

  Pipeline pa(on, dm), pb(off, dm);
  const auto a = pa.run(trace);
  const auto b = pb.run(trace);
  EXPECT_EQ(a.pred, b.pred);
  EXPECT_EQ(a.truth, b.truth);
  EXPECT_EQ(a.path_count, b.path_count);
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.tn, b.tn);
  EXPECT_EQ(a.fn, b.fn);
  EXPECT_EQ(a.green_mirrors, b.green_mirrors);
  EXPECT_EQ(a.benign_feature_mirrors, b.benign_feature_mirrors);
  EXPECT_EQ(a.faults.leaked_packets, b.faults.leaked_packets);
  // The loop was live (mirrors transported and consumed), just never fired.
  EXPECT_EQ(a.swap.publishes, 0u);
  EXPECT_EQ(a.swap.final_version, 1u);
  EXPECT_GT(a.swap.mirrors_applied, 0u);
  EXPECT_EQ(a.swap.mirrors_applied, a.faults.mirrors_delivered);
  EXPECT_EQ(b.swap.final_version, 0u);  // loop off: all-zero stats
}

TEST_F(ReplayTest, SwapLatencyRunsLoseNoPacketsAndRetireEveryVersion) {
  ml::Rng rng(41);
  const auto trace = drift_trace(300, 8, rng);
  rules::Quantizer q = quant_;
  const auto wl = swap_whitelist(q);
  DeployedModel dm;
  dm.fl_tables = &wl;
  dm.fl_quantizer = &q;
  auto cfg = swap_pipe_cfg(true);
  cfg.swap.swap_latency_s = 0.02;  // publish visibly later than the trigger
  ReplayConfig rc;
  rc.shards = 4;
  const auto out = replay_sharded(trace, cfg, dm, rc);

  std::size_t paths = 0;
  for (const auto c : out.stats.path_count) paths += c;
  EXPECT_EQ(paths, out.stats.packets);
  EXPECT_EQ(out.stats.packets, trace.size());
  EXPECT_EQ(out.stats.tp + out.stats.fp + out.stats.tn + out.stats.fn, out.stats.packets);
  EXPECT_GE(out.stats.swap.publishes, 1u);
  for (const auto& s : out.per_shard) {
    // Each publish retires exactly one version and every retired version is
    // reclaimed by end of run — no leaked bundles, no dangling readers.
    EXPECT_EQ(s.swap.bundles_retired, s.swap.publishes);
    EXPECT_EQ(s.swap.final_version, 1u + s.swap.publishes);
    // Every emitted mirror is accounted for: delivered or counted lost.
    EXPECT_EQ(s.faults.mirrors_delivered + s.faults.mirrors_lost, s.benign_feature_mirrors);
    EXPECT_EQ(s.swap.mirrors_applied, s.faults.mirrors_delivered);
  }
}

}  // namespace
}  // namespace iguard::switchsim
