#include "rules/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace iguard::rules {

void Quantizer::fit(const ml::Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("Quantizer::fit: empty data");
  const std::size_t m = x.cols();
  lo_.assign(m, std::numeric_limits<double>::infinity());
  hi_.assign(m, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto r = x.row(i);
    for (std::size_t j = 0; j < m; ++j) {
      lo_[j] = std::min(lo_[j], r[j]);
      hi_[j] = std::max(hi_[j], r[j]);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double span = std::max(hi_[j] - lo_[j], 1e-9);
    lo_[j] -= 0.05 * span;
    hi_[j] += 0.05 * span;
  }
}

std::uint32_t Quantizer::quantize_value(std::size_t field, double v) const {
  // NaN compares false against both clamps below and would reach the
  // undefined float->int cast; map it to the lowest level deterministically.
  if (std::isnan(v)) return 0;
  const double span = hi_[field] - lo_[field];
  const double z = (v - lo_[field]) / span;
  const double scaled = z * static_cast<double>(domain_max());
  if (scaled <= 0.0) return 0;
  if (scaled >= static_cast<double>(domain_max())) return domain_max();
  return static_cast<std::uint32_t>(scaled);
}

std::vector<std::uint32_t> Quantizer::quantize(std::span<const double> x) const {
  std::vector<std::uint32_t> q(x.size());
  quantize_into(x, q);
  return q;
}

void Quantizer::quantize_into(std::span<const double> x, std::span<std::uint32_t> out) const {
  if (x.size() != lo_.size()) throw std::invalid_argument("Quantizer: width mismatch");
  if (out.size() < x.size()) throw std::invalid_argument("Quantizer: output buffer too small");
  for (std::size_t j = 0; j < x.size(); ++j) out[j] = quantize_value(j, x[j]);
}

double Quantizer::dequantize(std::size_t field, std::uint32_t q) const {
  const double z = (static_cast<double>(q) + 0.5) / (static_cast<double>(domain_max()) + 1.0);
  return lo_[field] + z * (hi_[field] - lo_[field]);
}

std::vector<FieldRange> Quantizer::to_ranges(std::span<const double> lo,
                                             std::span<const double> hi) const {
  if (lo.size() != lo_.size() || hi.size() != lo_.size()) {
    throw std::invalid_argument("Quantizer::to_ranges: width mismatch");
  }
  std::vector<FieldRange> out(lo.size());
  for (std::size_t j = 0; j < lo.size(); ++j) {
    const bool open_lo = std::isinf(lo[j]) && lo[j] < 0.0;
    const bool open_hi = std::isinf(hi[j]) && hi[j] > 0.0;
    const std::uint32_t qlo = open_lo ? 0u : quantize_value(j, lo[j]);
    // hi is exclusive in tree-split space; the last included level is q(hi)-1
    // unless the box is unbounded above.
    std::uint32_t qhi;
    if (open_hi) {
      qhi = domain_max();
    } else {
      const std::uint32_t q = quantize_value(j, hi[j]);
      qhi = q == 0 ? 0 : q - 1;
    }
    out[j] = {qlo, std::max(qlo, qhi)};
  }
  return out;
}

}  // namespace iguard::rules
