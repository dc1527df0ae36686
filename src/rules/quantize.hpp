// Feature quantisation: maps continuous flow features onto fixed-width
// integer domains so whitelist hypercubes become integer range rules a
// match-action table can hold. Fitted per feature on the training data with
// a safety margin; values outside the fitted span clamp to the domain edge
// (a switch register can do the same with a saturating subtract/shift).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "rules/range_rule.hpp"

namespace iguard::rules {

class Quantizer {
 public:
  /// `bits` per field (<= 32); domain is [0, 2^bits - 1].
  explicit Quantizer(unsigned bits = 16) : bits_(bits) {}

  /// Fit per-feature [lo, hi] spans (with +-5% margin) from data rows.
  void fit(const ml::Matrix& x);

  unsigned bits() const { return bits_; }
  std::uint32_t domain_max() const {
    return bits_ >= 32 ? 0xFFFFFFFFu : ((1u << bits_) - 1u);
  }
  std::size_t field_count() const { return lo_.size(); }
  bool fitted() const { return !lo_.empty(); }

  /// Quantise one feature vector (clamping out-of-span values).
  std::vector<std::uint32_t> quantize(std::span<const double> x) const;

  /// Allocation-free variant: write the quantised levels into the first
  /// x.size() slots of `out` (which must be at least that large). The
  /// pipeline's per-packet path uses this with stack buffers.
  void quantize_into(std::span<const double> x, std::span<std::uint32_t> out) const;

  std::uint32_t quantize_value(std::size_t field, double v) const;

  /// Inverse map of a quantised level to the centre of its bucket.
  double dequantize(std::size_t field, std::uint32_t q) const;

  /// Convert a continuous half-open box [lo_i, hi_i) per field into a closed
  /// integer FieldRange list. A split threshold p (split is q < p vs q >= p)
  /// maps left to [.., quantize(p)-1] and right to [quantize(p), ..].
  std::vector<FieldRange> to_ranges(std::span<const double> lo,
                                    std::span<const double> hi) const;

 private:
  unsigned bits_;
  std::vector<double> lo_, hi_;
};

}  // namespace iguard::rules
