#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "ml/rng.hpp"
#include "rules/quantize.hpp"
#include "rules/range_rule.hpp"
#include "rules/rule_table.hpp"
#include "rules/ternary.hpp"

namespace iguard::rules {
namespace {

TEST(FieldRange, ContainsAndEmpty) {
  const FieldRange r{10, 20};
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(20));
  EXPECT_FALSE(r.contains(9));
  EXPECT_FALSE(r.contains(21));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((FieldRange{5, 4}).empty());
}

TEST(RangeRule, MatchesConjunction) {
  RangeRule r{{{0, 10}, {5, 5}}, 0, 0};
  const std::uint32_t hit[] = {3, 5};
  const std::uint32_t miss1[] = {11, 5};
  const std::uint32_t miss2[] = {3, 6};
  EXPECT_TRUE(r.matches(hit));
  EXPECT_FALSE(r.matches(miss1));
  EXPECT_FALSE(r.matches(miss2));
}

TEST(MergeRules, AdjacentOnOneField) {
  RangeRule a{{{0, 9}, {0, 5}}, 0, 0};
  RangeRule b{{{10, 20}, {0, 5}}, 0, 0};
  auto merged = merge_rules({a, b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].fields[0], (FieldRange{0, 20}));
}

TEST(MergeRules, DifferentLabelsDontMerge) {
  RangeRule a{{{0, 9}}, 0, 0};
  RangeRule b{{{10, 20}}, 1, 0};
  EXPECT_EQ(merge_rules({a, b}).size(), 2u);
}

TEST(MergeRules, DisjointOnTwoFieldsDontMerge) {
  RangeRule a{{{0, 9}, {0, 5}}, 0, 0};
  RangeRule b{{{10, 20}, {6, 9}}, 0, 0};
  EXPECT_EQ(merge_rules({a, b}).size(), 2u);
}

TEST(MergeRules, CascadesToFixpoint) {
  std::vector<RangeRule> rules;
  for (std::uint32_t i = 0; i < 8; ++i) rules.push_back({{{i * 10, i * 10 + 9}}, 0, 0});
  auto merged = merge_rules(rules);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].fields[0], (FieldRange{0, 79}));
}

// Property: the ternary expansion covers exactly [lo, hi] — every value in
// the range matches exactly one prefix, every value outside matches none.
class ExpandRangeProperty : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ExpandRangeProperty, CoversExactly) {
  const auto [lo, hi] = GetParam();
  const unsigned bits = 10;
  const auto cover = expand_range(lo, hi, bits);
  EXPECT_EQ(cover.size(), expansion_count(lo, hi, bits));
  for (std::uint32_t v = 0; v < (1u << bits); ++v) {
    std::size_t matches = 0;
    for (const auto& t : cover) matches += t.matches(v) ? 1 : 0;
    const bool inside = lo <= v && v <= hi;
    EXPECT_EQ(matches, inside ? 1u : 0u) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, ExpandRangeProperty,
    ::testing::Values(std::pair<std::uint32_t, std::uint32_t>{0, 1023},   // full domain
                      std::pair<std::uint32_t, std::uint32_t>{0, 0},      // single point
                      std::pair<std::uint32_t, std::uint32_t>{1023, 1023},
                      std::pair<std::uint32_t, std::uint32_t>{1, 1022},   // worst case
                      std::pair<std::uint32_t, std::uint32_t>{512, 1023},
                      std::pair<std::uint32_t, std::uint32_t>{100, 611},
                      std::pair<std::uint32_t, std::uint32_t>{333, 333}));

TEST(ExpandRange, FullDomainIsOnePrefix) {
  EXPECT_EQ(expansion_count(0, 1023, 10), 1u);
}

TEST(ExpandRange, WorstCaseBound) {
  // Classic bound: a w-bit range expands to at most 2w - 2 prefixes.
  const unsigned bits = 12;
  EXPECT_LE(expansion_count(1, (1u << bits) - 2, bits), 2u * bits - 2);
}

TEST(ExpandRange, BadRangeThrows) {
  EXPECT_THROW(expansion_count(5, 4, 10), std::invalid_argument);
  EXPECT_THROW(expansion_count(0, 1 << 11, 10), std::invalid_argument);
}

TEST(TcamEntries, CrossProduct) {
  RangeRule r{{{1, 6}, {0, 3}}, 0, 0};  // [1,6] in 3 bits -> {1, 2-3, 4-5, 6} = 4
  EXPECT_EQ(expansion_count(1, 6, 3), 4u);
  EXPECT_EQ(expansion_count(0, 3, 3), 1u);
  EXPECT_EQ(tcam_entries(r, 3), 4u);
}

TEST(Quantizer, RoundTripMonotone) {
  ml::Matrix x{{0.0}, {50.0}, {100.0}};
  Quantizer q(8);
  q.fit(x);
  const std::uint32_t a = q.quantize_value(0, 10.0);
  const std::uint32_t b = q.quantize_value(0, 60.0);
  const std::uint32_t c = q.quantize_value(0, 90.0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  // dequantize returns a value in the right neighbourhood.
  EXPECT_NEAR(q.dequantize(0, b), 60.0, 5.0);
}

TEST(Quantizer, ClampsOutOfSpan) {
  ml::Matrix x{{0.0}, {100.0}};
  Quantizer q(8);
  q.fit(x);
  EXPECT_EQ(q.quantize_value(0, -1000.0), 0u);
  EXPECT_EQ(q.quantize_value(0, 1000.0), q.domain_max());
}

TEST(Quantizer, NanMapsToLowestLevel) {
  // Regression: NaN used to fall through both clamps into an undefined
  // float->int cast; it must map deterministically instead.
  ml::Matrix x{{0.0}, {100.0}};
  Quantizer q(8);
  q.fit(x);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(q.quantize_value(0, nan), 0u);
  const std::vector<double> row{nan};
  EXPECT_EQ(q.quantize(row)[0], 0u);
}

TEST(Quantizer, QuantizePreservesOrderOfSamples) {
  ml::Rng rng(3);
  ml::Matrix x(100, 2);
  for (auto& v : x.flat()) v = rng.uniform(-50.0, 50.0);
  Quantizer q(16);
  q.fit(x);
  for (int trial = 0; trial < 200; ++trial) {
    const double a = rng.uniform(-50.0, 50.0);
    const double b = rng.uniform(-50.0, 50.0);
    if (a <= b) {
      EXPECT_LE(q.quantize_value(0, a), q.quantize_value(0, b));
    }
  }
}

TEST(RuleTable, PriorityOrderWins) {
  RangeRule low_prio{{{0, 100}}, 1, 5};
  RangeRule high_prio{{{0, 50}}, 0, 1};
  RuleTable t({low_prio, high_prio});
  const std::uint32_t key1[] = {25};
  const std::uint32_t key2[] = {75};
  EXPECT_EQ(t.classify(key1), 0);  // high-priority benign rule matches first
  EXPECT_EQ(t.classify(key2), 1);
}

TEST(RuleTable, NoMatchDefaultsMalicious) {
  RuleTable t({RangeRule{{{0, 10}}, 0, 0}});
  const std::uint32_t key[] = {50};
  EXPECT_EQ(t.classify(key), 1);
  EXPECT_FALSE(t.match(key).has_value());
}

TEST(RuleTable, AddRuleKeepsOrder) {
  RuleTable t;
  t.add_rule({{{0, 10}}, 1, 2});
  t.add_rule({{{0, 10}}, 0, 1});
  const std::uint32_t key[] = {5};
  EXPECT_EQ(t.classify(key), 0);
}

}  // namespace
}  // namespace iguard::rules
