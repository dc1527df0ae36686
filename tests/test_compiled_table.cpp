#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/whitelist.hpp"
#include "ml/rng.hpp"
#include "rules/compiled_table.hpp"
#include "rules/rule_table.hpp"
#include "switchsim/flow_state.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"

namespace iguard::rules {
namespace {

/// Reference first-match index: the linear scan the compiled engine must
/// reproduce bit for bit.
int linear_match_index(const RuleTable& t, std::span<const std::uint32_t> key) {
  for (std::size_t i = 0; i < t.rules().size(); ++i) {
    if (t.rules()[i].matches(key)) return static_cast<int>(i);
  }
  return -1;
}

void expect_equivalent(const RuleTable& lin, const CompiledRuleTable& comp,
                       std::span<const std::uint32_t> key) {
  const int want = linear_match_index(lin, key);
  ASSERT_EQ(comp.match_index(key), want);
  ASSERT_EQ(comp.classify(key), lin.classify(key));
  const auto m_lin = lin.match(key);
  const auto m_comp = comp.match(key);
  ASSERT_EQ(m_comp.has_value(), m_lin.has_value());
  if (m_lin) {
    ASSERT_EQ(*m_comp, *m_lin);
  }
}

/// Random rule over `width` fields drawn from a small domain so overlaps,
/// adjacency, duplicates, and empties all occur often.
RangeRule random_rule(ml::Rng& rng, std::size_t width, std::uint32_t domain) {
  RangeRule r;
  r.fields.resize(width);
  for (auto& f : r.fields) {
    switch (rng.index(10)) {
      case 0:  // full domain
        f = {0, domain};
        break;
      case 1:  // empty (lo > hi): must match nothing
        f = {domain / 2 + 1, domain / 2};
        break;
      case 2: {  // point
        const auto v = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {v, v};
        break;
      }
      default: {
        const auto a = static_cast<std::uint32_t>(rng.integer(0, domain));
        const auto b = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {std::min(a, b), std::max(a, b)};
      }
    }
  }
  r.label = static_cast<int>(rng.index(2));
  r.priority = static_cast<int>(rng.index(5));  // duplicate priorities likely
  return r;
}

TEST(CompiledRuleTable, PropertyEquivalentToLinearScan) {
  ml::Rng rng(0xC0117ull);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t width = 1 + rng.index(5);
    const std::uint32_t domain = trial % 2 == 0 ? 15u : 255u;
    const std::size_t n_rules = rng.index(40);
    std::vector<RangeRule> rules;
    for (std::size_t i = 0; i < n_rules; ++i) rules.push_back(random_rule(rng, width, domain));

    const RuleTable lin(rules);
    const CompiledRuleTable comp(rules);
    ASSERT_EQ(comp.size(), lin.size());
    ASSERT_EQ(comp.rules(), lin.rules());  // same priority-stable order

    std::vector<std::uint32_t> key(width);
    // Random keys, including out-of-domain values.
    for (int k = 0; k < 50; ++k) {
      for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 2 * domain));
      expect_equivalent(lin, comp, key);
    }
    // Endpoint-adjacent keys: perturb a random rule's corner, where
    // off-by-one interval bugs live.
    for (int k = 0; k < 50 && !rules.empty(); ++k) {
      const auto& r = rules[rng.index(rules.size())];
      for (std::size_t f = 0; f < width; ++f) {
        const std::uint32_t base = rng.index(2) == 0 ? r.fields[f].lo : r.fields[f].hi;
        const std::int64_t jitter = rng.integer(-1, 1);
        key[f] = static_cast<std::uint32_t>(
            std::max<std::int64_t>(0, static_cast<std::int64_t>(base) + jitter));
      }
      expect_equivalent(lin, comp, key);
    }
  }
}

TEST(CompiledRuleTable, ManyRulesCrossWordBoundaries) {
  // >2 mask words with interleaved priorities: the first set bit of the
  // word sweep must match the scan even when the winner is in word 2.
  ml::Rng rng(0x77AB1Eull);
  std::vector<RangeRule> rules;
  for (int i = 0; i < 150; ++i) rules.push_back(random_rule(rng, 3, 31));
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  std::vector<std::uint32_t> key(3);
  for (int k = 0; k < 500; ++k) {
    for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, MixedWidthsMatchOnlyOwnWidth) {
  std::vector<RangeRule> rules{
      {{{0, 10}}, 0, 0},            // width 1
      {{{0, 10}, {0, 10}}, 1, 1},   // width 2
      {{}, 0, 2},                   // width 0: matches the empty key
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  const std::uint32_t k1[] = {5};
  const std::uint32_t k2[] = {5, 5};
  const std::uint32_t k3[] = {5, 5, 5};
  expect_equivalent(lin, comp, k1);
  expect_equivalent(lin, comp, k2);
  expect_equivalent(lin, comp, k3);
  expect_equivalent(lin, comp, std::span<const std::uint32_t>{});
}

TEST(CompiledRuleTable, DomainEdgeRanges) {
  // hi = 2^32-1 exercises the hi+1 breakpoint at the end of the domain.
  const std::uint32_t max = 0xFFFFFFFFu;
  std::vector<RangeRule> rules{
      {{{max - 1, max}}, 0, 1},
      {{{0, 0}}, 0, 0},
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  for (const std::uint32_t v : {0u, 1u, max - 2, max - 1, max}) {
    const std::uint32_t key[] = {v};
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, EmptyTableMatchesNothing) {
  const CompiledRuleTable comp{RuleTable{}};
  const std::uint32_t key[] = {0, 1};
  EXPECT_EQ(comp.match_index(key), -1);
  EXPECT_EQ(comp.classify(key), 1);  // no-match defaults to malicious
}

/// Deployment-scale vote whitelist: `tables` x `rules_per_table` boxes of
/// half-width domain/6 around sampled feature rows (the shape of
/// bench_throughput's synthetic deployment).
core::VoteWhitelist sampled_whitelist(const ml::Matrix& rows, const Quantizer& q,
                                      std::size_t tables, std::size_t rules_per_table,
                                      ml::Rng& rng) {
  core::VoteWhitelist wl;
  wl.tree_count = tables;
  const std::uint32_t dmax = q.domain_max();
  const std::uint32_t half = dmax / 6;
  for (std::size_t t = 0; t < tables; ++t) {
    std::vector<RangeRule> tree_rules;
    for (std::size_t r = 0; r < rules_per_table; ++r) {
      const auto row = rows.row(rng.index(rows.rows()));
      std::vector<FieldRange> box(rows.cols());
      for (std::size_t j = 0; j < box.size(); ++j) {
        const std::uint32_t v = q.quantize_value(j, row[j]);
        box[j] = {v > half ? v - half : 0, v < dmax - half ? v + half : dmax};
      }
      tree_rules.push_back({std::move(box), 0, static_cast<int>(r)});
    }
    wl.tables.emplace_back(std::move(tree_rules));
  }
  return wl;
}

/// Per-packet PL feature rows: {dst_port, proto, length, ttl}.
ml::Matrix pl_features(const traffic::Trace& trace) {
  ml::Matrix rows(trace.size(), 4);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& p = trace.packets[i];
    rows(i, 0) = static_cast<double>(p.ft.dst_port);
    rows(i, 1) = static_cast<double>(p.ft.proto);
    rows(i, 2) = static_cast<double>(p.length);
    rows(i, 3) = static_cast<double>(p.ttl);
  }
  return rows;
}

/// Compiled and linear votes agree on every key; returns how many keys the
/// vote called malicious so callers can check both verdicts were exercised.
std::size_t expect_votes_identical(const core::VoteWhitelist& wl,
                                   const core::CompiledVoteWhitelist& comp,
                                   const std::vector<std::vector<std::uint32_t>>& keys) {
  std::size_t malicious = 0;
  for (const auto& key : keys) {
    const int want = wl.classify(key);
    EXPECT_EQ(comp.classify(key), want);
    EXPECT_DOUBLE_EQ(comp.malicious_vote_fraction(key), wl.malicious_vote_fraction(key));
    malicious += want == 1 ? 1 : 0;
  }
  return malicious;
}

TEST(CompiledVoteWhitelist, VoteIdenticalToLinear) {
  ml::Rng rng(0x70735ull);
  core::VoteWhitelist wl;
  wl.tree_count = 5;
  for (std::size_t t = 0; t < 5; ++t) {
    std::vector<RangeRule> rules;
    const std::size_t n = 1 + rng.index(20);
    for (std::size_t i = 0; i < n; ++i) rules.push_back(random_rule(rng, 4, 31));
    wl.tables.emplace_back(std::move(rules));
  }
  const core::CompiledVoteWhitelist comp(wl);
  std::vector<std::uint32_t> key(4);
  for (int k = 0; k < 1000; ++k) {
    for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
    ASSERT_EQ(comp.classify(key), wl.classify(key));
    ASSERT_DOUBLE_EQ(comp.malicious_vote_fraction(key), wl.malicious_vote_fraction(key));
  }

  // Real keys against a deployment-scale table set. The pipeline's only
  // engine-dependent step is classify(key), so agreeing on the FL keys of
  // every finalised flow and the PL key of every packet of an attack-heavy
  // trace is agreement on the whole replay.
  traffic::BenignConfig bcfg;
  bcfg.flows = 40;
  traffic::AttackConfig acfg;
  acfg.flows = 200;
  const traffic::Trace benign = traffic::benign_trace(bcfg, rng);
  std::vector<traffic::Trace> parts{benign};
  for (const auto type : {traffic::AttackType::kMirai, traffic::AttackType::kAidra,
                          traffic::AttackType::kOsScan}) {
    parts.push_back(traffic::attack_trace(type, acfg, rng));
  }
  const traffic::Trace trace = traffic::merge_traces(std::move(parts));

  // FL: quantizer and whitelist fitted on benign flows, as in deployment;
  // keys from every flow record of the mixed trace.
  const auto benign_fl = switchsim::extract_switch_features(benign, 8, 10.0);
  Quantizer fl_q(16);
  fl_q.fit(benign_fl.x);
  const core::VoteWhitelist fl = sampled_whitelist(benign_fl.x, fl_q, 5, 512, rng);
  const core::CompiledVoteWhitelist fl_comp(fl);
  const auto fl_rows = switchsim::extract_switch_features(trace, 8, 10.0);
  std::vector<std::vector<std::uint32_t>> fl_keys;
  for (std::size_t i = 0; i < fl_rows.x.rows(); ++i) {
    fl_keys.push_back(fl_q.quantize(fl_rows.x.row(i)));
  }

  // PL: {dst_port, proto, length, ttl} of each packet; fitted on the
  // benign packets, keys from every packet of the mixed trace.
  const ml::Matrix benign_pl = pl_features(benign);
  Quantizer pl_q(16);
  pl_q.fit(benign_pl);
  const core::VoteWhitelist pl = sampled_whitelist(benign_pl, pl_q, 5, 512, rng);
  const core::CompiledVoteWhitelist pl_comp(pl);
  const ml::Matrix pl_rows = pl_features(trace);
  std::vector<std::vector<std::uint32_t>> pl_keys;
  for (std::size_t i = 0; i < pl_rows.rows(); ++i) pl_keys.push_back(pl_q.quantize(pl_rows.row(i)));

  // Both verdicts must occur, or agreement would prove little.
  const std::size_t fl_mal = expect_votes_identical(fl, fl_comp, fl_keys);
  EXPECT_GT(fl_mal, 0u);
  EXPECT_LT(fl_mal, fl_keys.size());
  const std::size_t pl_mal = expect_votes_identical(pl, pl_comp, pl_keys);
  EXPECT_GT(pl_mal, 0u);
  EXPECT_LT(pl_mal, pl_keys.size());
}

TEST(Quantizer, QuantizeIntoMatchesQuantize) {
  ml::Matrix fake(2, 13);
  for (std::size_t j = 0; j < 13; ++j) {
    fake(0, j) = -3.0 * static_cast<double>(j);
    fake(1, j) = 100.0 + static_cast<double>(j);
  }
  Quantizer q(16);
  q.fit(fake);
  ml::Rng rng(0x9143ull);
  std::array<double, 13> x;
  std::array<std::uint32_t, 13> buf;
  for (int k = 0; k < 100; ++k) {
    for (auto& v : x) v = rng.uniform(-50.0, 150.0);
    q.quantize_into(x, buf);
    const auto ref = q.quantize(x);
    for (std::size_t j = 0; j < 13; ++j) ASSERT_EQ(buf[j], ref[j]);
  }
  std::array<std::uint32_t, 5> small;
  EXPECT_THROW(q.quantize_into(x, small), std::invalid_argument);
}

}  // namespace
}  // namespace iguard::rules
