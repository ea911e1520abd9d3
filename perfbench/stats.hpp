/// \file stats.hpp
/// Order statistics of the benchmark's samples. Quartiles use the
/// same rule as Python's statistics.quantiles(values, n=4) (the
/// default "exclusive" method), so a spread the benchmark prints and a
/// spread computed over its JSON results agree.
#pragma once

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// {Q1, Q2, Q3} by the exclusive method. A single value is its own
/// quartiles (Python needs two or more; the benchmark never asks for
/// fewer than one).
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

}  // namespace perfbench
