// Online whitelist refinement — Fig. 1 step 12 / §2: "FL features from
// benign traffic may be used to update the whitelist rules table". The data
// plane mirrors the flow-level features of flows it classified benign; the
// controller uses them to *tighten the ensemble's agreement*: when the
// majority voted benign but some per-tree tables missed, the nearest rule
// of each missing table is stretched just enough to cover the observation —
// bounded by a per-field extension budget so a trickle of borderline flows
// cannot pry a table open (the same conservatism as the robust support
// clip). Keys the majority rejected are never learned from: the data plane
// does not mirror them as benign in the first place.
#pragma once

#include <cstdint>
#include <span>

#include "core/whitelist.hpp"

namespace iguard::core {

struct OnlineUpdateConfig {
  /// Max per-field stretch (quantised levels) an update may apply to a rule.
  std::uint32_t max_extension_per_field = 1300;  // ~2% of a 16-bit domain
  /// Stop updating after this many applied extensions (safety valve).
  std::size_t max_updates = 10'000;

  bool operator==(const OnlineUpdateConfig&) const = default;
};

class WhitelistUpdater {
 public:
  WhitelistUpdater(VoteWhitelist& whitelist, OnlineUpdateConfig cfg = {})
      : wl_(&whitelist), cfg_(cfg) {}

  /// Feed one mirrored benign observation (quantised feature key). Tables
  /// already matching are untouched; each non-matching table's nearest rule
  /// is extended iff every field's gap fits the budget. Returns the number
  /// of tables whose rules were extended.
  std::size_t observe_benign(std::span<const std::uint32_t> key);

  std::size_t keys_seen() const { return keys_seen_; }
  std::size_t keys_fully_covered() const { return fully_covered_; }
  std::size_t extensions_applied() const { return extensions_; }
  /// True once the max_updates safety valve has closed: no further rule
  /// extensions will be applied, the whitelist is frozen.
  bool budget_exhausted() const { return extensions_ >= cfg_.max_updates; }
  /// Admissible table extensions refused solely because the budget was
  /// spent — operators (and the drift detector, core/model_swap.hpp) watch
  /// this to see the valve closing. Tables with no admissible nearest rule
  /// are NOT counted: they would never have been extended regardless of
  /// budget, and counting them would overstate the drift signal.
  std::size_t rejected_by_budget() const { return rejected_by_budget_; }

 private:
  VoteWhitelist* wl_;
  OnlineUpdateConfig cfg_;
  std::size_t keys_seen_ = 0;
  std::size_t fully_covered_ = 0;
  std::size_t extensions_ = 0;
  std::size_t rejected_by_budget_ = 0;
};

}  // namespace iguard::core
