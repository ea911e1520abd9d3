/// \file spans.hpp
/// The benchmark's own span recorder. Spans are recorded around the
/// calls into each layer, from the benchmark's files, kept in memory
/// and written out when the benchmark ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double nowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start{0};
  double end{0};
  int parent{-1};  ///< index into the log, -1 for a root
  int run{0};      ///< replay this span belongs to
  int rank{-1};    ///< rank the work is owned by under assignBlocks, -1 if none
  int round{-1};   ///< merge round, -1 outside the merge stage
};

/// Serial span log: spans opened while another is open become its
/// children. Not thread-safe (the traced replay is single-threaded).
class SpanLog {
 public:
  int begin(std::string name, int run, int rank = -1, int round = -1);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, run, rank,
  /// round. Returns false if the file cannot be written.
  bool writeJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing (the untraced replay).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int run, int rank = -1, int round = -1)
      : log_(log), id_(log ? log->begin(name, run, rank, round) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals.
std::vector<double> selfTimes(const std::vector<Span>& spans);

/// Self time summed per span name, for the spans of one run. The
/// root span's self time is reported under "unattributed".
std::map<std::string, double> selfTimeByName(const std::vector<Span>& spans, int run);

/// Relative tiling error of one run: |sum of all self times - wall| /
/// wall, where `wall` is measured outside the spans.
double tilingError(const std::vector<Span>& spans, int run, double wall);

}  // namespace perfbench
