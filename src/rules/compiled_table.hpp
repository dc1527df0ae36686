// Compiled rule-match engine: the bitmap-intersection model of a TCAM range
// stage. A RuleTable's priority-ordered linear scan costs O(rules × fields)
// per lookup; a real Tofino answers the same query in one pipeline pass. To
// match that asymptotically, compilation builds one interval index per field:
// the sorted range endpoints of every rule partition the 32-bit domain into
// intervals on which the covering rule set is constant, and each interval
// carries that set as a 64-bit-word bitmask (bit i = priority-sorted rule i).
// A lookup is then `fields` binary searches plus a word-wise AND sweep; the
// first set bit of the intersection is the highest-priority match — exactly
// the TCAM's priority encoder. Results are bit-identical to RuleTable by
// construction (tests/test_compiled_table.cpp property-checks this on random
// rule sets and on real trace keys), so the linear RuleTable serves only as
// the test oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rules/rule_table.hpp"

namespace iguard::rules {

class CompiledRuleTable {
 public:
  CompiledRuleTable() = default;
  /// Compile a priority-sorted table. The source rules are copied so match()
  /// can return them and so recompilation never dangles.
  explicit CompiledRuleTable(const RuleTable& table) { compile(table.rules()); }
  explicit CompiledRuleTable(std::vector<RangeRule> rules) {
    compile(RuleTable(std::move(rules)).rules());
  }

  std::size_t size() const { return rules_.size(); }
  const std::vector<RangeRule>& rules() const { return rules_; }

  /// Index (into rules(), i.e. priority order) of the first matching rule,
  /// or -1. Performs no heap allocation.
  int match_index(std::span<const std::uint32_t> key) const;

  /// True iff any rule matches (the per-tree benign vote). No allocation.
  bool matches_any(std::span<const std::uint32_t> key) const { return match_index(key) >= 0; }

  /// First matching rule in priority order — same contract as
  /// RuleTable::match (copies the rule; use match_index on hot paths).
  std::optional<RangeRule> match(std::span<const std::uint32_t> key) const {
    const int i = match_index(key);
    return i >= 0 ? std::optional<RangeRule>(rules_[static_cast<std::size_t>(i)]) : std::nullopt;
  }

  /// Whitelist semantics, identical to RuleTable::classify: matched rule's
  /// label, else 1 (no-match defaults to malicious). No allocation.
  int classify(std::span<const std::uint32_t> key) const {
    const int i = match_index(key);
    return i >= 0 ? rules_[static_cast<std::size_t>(i)].label : 1;
  }

 private:
  /// Interval index for one field of one key-width group. Interval i spans
  /// [bounds[i], bounds[i+1]) (the last one extends to 2^32), and
  /// masks[i * words + w] holds bit b for every local rule 64*w + b whose
  /// range covers the whole interval. Bounds are stored as uint32 (every
  /// start point fits: the one candidate equal to 2^32 is popped during
  /// compilation) so the binary-search working set is half the size.
  /// covered[i] == 0 marks an interval no rule covers on this field — a key
  /// landing there cannot match anything, so lookups reject before touching
  /// any mask row (the common case for off-whitelist traffic).
  struct FieldIndex {
    std::vector<std::uint32_t> bounds;   // ascending interval start points
    std::vector<std::uint8_t> covered;   // per interval: any mask bit set
    std::vector<std::uint64_t> masks;    // bounds.size() rows × `words` words
  };

  /// Rules are grouped by field count: a key only ever matches rules of its
  /// own width (RangeRule::matches), and priority order within a width group
  /// is the global priority order restricted to that group.
  struct WidthGroup {
    std::size_t width = 0;
    std::size_t words = 0;
    std::vector<FieldIndex> fields;        // one per key position
    std::vector<std::uint32_t> to_global;  // local rule index -> rules_ index
  };

  void compile(const std::vector<RangeRule>& sorted_rules);

  std::vector<RangeRule> rules_;        // priority-sorted, as in RuleTable
  std::vector<WidthGroup> groups_;      // ascending width
};

}  // namespace iguard::rules
