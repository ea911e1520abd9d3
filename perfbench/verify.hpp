/// \file verify.hpp
/// Output checks of the timed pipeline calls. They hold for any seed,
/// so no expected values are committed: every call must reproduce the
/// run's first call byte for byte, and that first call must be
/// checker-clean and canonical-equal to the serial replay of the same
/// input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "io/pack.hpp"

namespace perfbench {

using Parts = std::vector<msc::io::Bytes>;

/// Structural check of the reference outputs: every part is
/// check::checkComplex-clean with Euler characteristic 1 (each part
/// covers a solid box), and the union of the parts is canonical-equal
/// (check::compareExact) to the replay's. Returns "" when clean, else
/// the first failure.
std::string checkReference(const msc::Domain& domain, const Parts& outputs,
                           const Parts& replay_parts);

/// One call's outputs against the run's first call: byte-identical
/// parts, and the container the call wrote holds exactly those parts.
/// Returns "" when clean.
std::string checkCall(const Parts& got, const std::string& written_file, const Parts& reference);

/// Calls attempted and failed. A call fails if it throws, if its
/// output differs from the reference, or -- for every call -- if the
/// reference itself fails checkReference.
class ErrorTally {
 public:
  void record(bool call_ok) {
    ++attempted_;
    if (!call_ok) ++failed_;
  }
  /// The reference turned out wrong: every call reproduced it.
  void failAll() { failed_ = attempted_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double rate() const {
    return attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0;
  }

 private:
  std::int64_t attempted_{0};
  std::int64_t failed_{0};
};

}  // namespace perfbench
