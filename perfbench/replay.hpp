/// \file replay.hpp
/// Serial replay of one threaded pipeline run: the same blocks, the
/// same assignBlocks ownership, the same merge schedule and the same
/// pack -> unpack -> glue -> finishMerge -> write sequence, executed on
/// one thread by calling each layer's public function directly. With a
/// SpanLog attached every layer call is wrapped in a span; with a
/// Registry attached the kernels' work counters are collected, one
/// registry slot per layer. With neither it is the plain
/// single-threaded baseline and the correctness oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/pack.hpp"
#include "metrics/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Registry slots: the kernels' `metrics_rank` parameter selects the
/// slot, which keeps e.g. block simplification and finishMerge's
/// re-simplification apart.
enum Slot : int { kSlotGradient = 0, kSlotTrace, kSlotSimplify, kSlotGlue, kSlotFinish, kNumSlots };

/// Bytes a replay ships between ranks, computed from the pack sizes of
/// the complexes whose owner differs from the receiving rank.
struct ParStats {
  std::int64_t messages{0};
  std::int64_t shipped_bytes{0};
  std::int64_t max_root_bytes{0};  ///< most packed bytes one root receives in one round
};

struct ReplayResult {
  std::vector<msc::io::Bytes> parts;  ///< packed outputs, survivor order
  double wall_s{0};
  std::int64_t read_bytes{0};
  std::int64_t pack_bytes{0};
  std::int64_t output_file_bytes{0};
  ParStats par;
};

/// Replay `w` over the raw volume at `volume`, writing the output
/// container to `output`. `log` and `reg` may be null; `run` tags the
/// spans. `reg` must have at least kNumSlots slots.
ReplayResult replay(const Workload& w, const std::string& volume, const std::string& output,
                    SpanLog* log, msc::metrics::Registry* reg, int run);

/// Per-rank busy time of one traced replay, from its layer spans:
/// compute = gradient + trace + simplify of the rank's blocks; merge
/// busy per round = pack of the members it ships + unpack, glue and
/// finishMerge of the groups it roots.
struct RankBusy {
  std::vector<double> compute;                  ///< per rank
  std::vector<std::vector<double>> merge;       ///< [round][rank]
};
RankBusy rankBusy(const std::vector<Span>& spans, int run, int nranks, int rounds);

/// max / mean of per-rank compute time (1 = perfectly balanced).
double computeImbalance(const RankBusy& b);

/// Stage wall minus the busiest rank's busy time: barrier wait plus
/// contention. For the merge stage the busiest rank is taken per round
/// (rounds end in a barrier) and the maxima are summed.
double computeWait(double compute_wall, const RankBusy& b);
double mergeWait(double merge_wall, const RankBusy& b);

}  // namespace perfbench
