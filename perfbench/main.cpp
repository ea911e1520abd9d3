/// msc_perfbench: end-to-end and per-layer benchmark of the threaded
/// pipeline (pipeline::runThreadedPipeline on 4 real ranks).
///
///   msc_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--workdir WORK] [--results RESULTS]
///
/// One run, in order:
///  1. generate the workload's raw f32 volume from the seed;
///  2. set-up, three times: a fresh process makes one cold pipeline
///     call on the volume. setup_s is the median of their wall times
///     and peak_rss_mib the median of their peak resident memory; the
///     first one's output is the run's reference;
///  3. one untimed warm-up call, then a closed loop of pipeline calls,
///     one at a time, for S seconds (S/2 with --trace 1), every
///     instrument off. Each call is checked against the reference
///     outside the timed region, and a fixed calibration loop is timed
///     before it (host.calib_s). Every call's times go to
///     RESULTS/<workload>-seed<N>.calls.tsv;
///  4. the untraced serial replay (the single-threaded baseline and the
///     correctness oracle): the reference must be checker-clean and
///     canonical-equal to it, else every call counts as failed;
///  5. with --trace 1 only: traced and untraced serial replays, in an
///     order rotated by the seed, for the remaining S/2 seconds. The
///     spans go to RESULTS/<workload>-seed<N>.spans.jsonl.
/// The last stdout line is the JSON result: end-to-end metrics with
/// --trace 0, per-layer metrics with --trace 1. The error rate (failed
/// over attempted calls) is printed above it and carried by the
/// result's "attempted" and "failed" counts.
///
///   msc_perfbench --workload NAME --call VOLUME --output FILE
/// is the set-up child: one pipeline call, exit status 0 on success.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/complex_file.hpp"
#include "pipeline/threaded_pipeline.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workloads.hpp"

extern char** environ;

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string results = ".bench_build/results";
  std::string call_volume;  ///< set-up child mode when non-empty
  std::string call_output;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = static_cast<unsigned>(std::stoul(v));
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--results") a.results = v;
    else if (k == "--call") a.call_volume = v;
    else if (k == "--output") a.call_output = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.call_volume.empty() != a.call_output.empty())
    throw std::invalid_argument("--call and --output go together");
  return a;
}

volatile double g_calib_sink = 0;  // keeps the calibration loop from being folded away

/// A fixed amount of single-threaded integer and floating-point work.
/// Its time tracks the host's speed mode, not the code under test.
double calibrate() {
  const double t0 = nowSeconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-9;
  }
  g_calib_sink = acc;
  return nowSeconds() - t0;
}

/// One set-up: a fresh process (this binary in --call mode) makes one
/// pipeline call. A fresh process pays every cold cost a user's first
/// call pays, and its peak memory does not depend on what an earlier
/// call left in the allocator.
struct SetupResult {
  bool ok{false};
  double wall_s{0};
  double peak_rss_mib{0};
};

SetupResult runSetupChild(const Workload& w, const std::string& volume,
                          const std::string& output) {
  const char* const self = "/proc/self/exe";
  std::vector<std::string> args = {self, "--workload", w.name, "--call", volume, "--output", output};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  SetupResult r;
  const double t0 = nowSeconds();
  pid_t pid = 0;
  if (posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ) != 0)
    throw std::runtime_error("cannot start the set-up process");
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) throw std::runtime_error("lost the set-up process");
  r.wall_s = nowSeconds() - t0;
  r.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, const ErrorTally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(tally.attempted()),
              static_cast<long long>(tally.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// What the untraced part of a run hands to the per-layer report.
struct TimedRun {
  std::vector<double> walls;
  std::vector<msc::simnet::StageTimes> stages;
  std::vector<double> calib;
};

std::vector<double> stageColumn(const TimedRun& t, double (*pick)(const msc::simnet::StageTimes&)) {
  std::vector<double> v;
  for (const auto& s : t.stages) v.push_back(pick(s));
  return v;
}

/// Step 5: traced replays, alternating with untraced ones, and the
/// per-layer metrics they give. Clears `*correct` if the traced
/// output, the work counts or the span tiling are off.
std::vector<Metric> perLayerMetrics(const Workload& w, const Args& args, const std::string& volume,
                                    const std::string& replay_out, const ReplayResult& oracle,
                                    const TimedRun& timed, double measure_s, bool* correct) {
  SpanLog log;
  msc::metrics::Registry reg(kNumSlots);
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> units;
  const auto add = [&](const std::string& name, double v, const std::string& unit) {
    samples[name].push_back(v);
    units[name] = unit;
  };
  const double compute_wall = median(stageColumn(timed, [](const auto& s) { return s.compute; }));
  const double merge_wall = median(stageColumn(timed, [](const auto& s) { return s.mergeTotal(); }));

  std::vector<double> untraced{oracle.wall_s}, traced;
  std::map<std::string, double> first_counts;
  double worst_tiling = 0;
  bool traced_turn = args.seed % 2 == 0;
  const double t0 = nowSeconds();
  while (traced.empty() || untraced.size() < 2 || nowSeconds() - t0 < measure_s) {
    const bool now_traced = traced_turn;
    traced_turn = !traced_turn;
    if (!now_traced) {
      untraced.push_back(replay(w, volume, replay_out, nullptr, nullptr, 0).wall_s);
      continue;
    }
    reg.reset();
    const int id = static_cast<int>(traced.size()) + 1;
    const ReplayResult r = replay(w, volume, replay_out, &log, &reg, id);
    traced.push_back(r.wall_s);
    if (r.parts != oracle.parts) {
      std::fprintf(stderr, "traced replay output differs from the untraced replay\n");
      *correct = false;
    }
    worst_tiling = std::max(worst_tiling, tilingError(log.spans(), id, r.wall_s));
    std::map<std::string, double> self = selfTimeByName(log.spans(), id);

    using C = msc::metrics::Counter;
    const auto cnt = [&](Slot slot, C c) { return static_cast<double>(reg.counter(slot, c)); };
    const std::map<std::string, double> counts = {
        {"core.gradient.cells", cnt(kSlotGradient, C::kGradCells)},
        {"core.gradient.pairs", cnt(kSlotGradient, C::kGradPairs)},
        {"core.gradient.criticals", cnt(kSlotGradient, C::kGradCriticals)},
        {"core.trace.steps", cnt(kSlotTrace, C::kTraceSteps)},
        {"core.trace.arcs", cnt(kSlotTrace, C::kTraceArcs)},
        {"core.trace.geom_cells", cnt(kSlotTrace, C::kTraceGeomCells)},
        {"core.simplify.cancelled", cnt(kSlotSimplify, C::kSimplifyCancelled)},
        {"core.simplify.arcs_removed", cnt(kSlotSimplify, C::kSimplifyArcsRemoved)},
        {"core.merge.glue.arcs_merged", cnt(kSlotGlue, C::kMergeArcsMerged)},
        {"core.merge.glue.arcs_deduped", cnt(kSlotGlue, C::kMergeArcsDeduped)},
        {"core.merge.finish.cancelled", cnt(kSlotFinish, C::kSimplifyCancelled)},
        {"par.messages", static_cast<double>(r.par.messages)},
        {"io.read.mib", static_cast<double>(r.read_bytes) / kMiB},
        {"io.pack.mib", static_cast<double>(r.pack_bytes) / kMiB},
        {"io.write.mib", static_cast<double>(r.output_file_bytes) / kMiB},
        {"par.shipped_mib", static_cast<double>(r.par.shipped_bytes) / kMiB},
        {"par.max_root_mib", static_cast<double>(r.par.max_root_bytes) / kMiB},
    };
    if (first_counts.empty()) first_counts = counts;
    if (counts != first_counts) {
      std::fprintf(stderr, "work counts differ between traced replays\n");
      *correct = false;
    }
    for (const auto& [name, v] : counts) add(name, v, name.ends_with("mib") ? "MiB" : "count");
    const double arcs_in =
        counts.at("core.merge.glue.arcs_merged") + counts.at("core.merge.glue.arcs_deduped");
    add("core.merge.glue.arcs_in", arcs_in, "count");
    add("core.merge.glue.dedup_ratio",
        arcs_in > 0 ? counts.at("core.merge.glue.arcs_deduped") / arcs_in : 0.0, "deduped/arcs_in");
    for (const char* layer : {"io.read", "core.gradient", "core.trace", "core.simplify", "io.pack",
                              "io.unpack", "core.merge.glue", "core.merge.finish", "io.write"})
      add(std::string(layer) + ".s", self[layer], "s");
    add("io.read.mib_per_s", counts.at("io.read.mib") / self["io.read"], "MiB/s");
    add("core.gradient.cells_per_s", counts.at("core.gradient.cells") / self["core.gradient"],
        "cells/s");
    add("trace.unattributed_frac", self["unattributed"] / r.wall_s, "frac");

    const RankBusy busy =
        rankBusy(log.spans(), id, w.nranks, static_cast<int>(w.radices.size()));
    add("pipeline.compute_imbalance", computeImbalance(busy), "max/mean");
    add("pipeline.compute_wait_s", computeWait(compute_wall, busy), "s");
    add("pipeline.merge_wait_s", mergeWait(merge_wall, busy), "s");
  }
  if (worst_tiling > 0.05) {
    std::fprintf(stderr, "span self times do not tile the replay wall (error %.4f)\n",
                 worst_tiling);
    *correct = false;
  }
  const std::string spans_path =
      (fs::path(args.results) / (w.name + "-seed" + std::to_string(args.seed) + ".spans.jsonl"))
          .string();
  if (!log.writeJsonl(spans_path)) throw std::runtime_error("cannot write " + spans_path);
  std::printf("spans: %s (%zu traced, %zu untraced replays)\n", spans_path.c_str(),
              traced.size(), untraced.size());

  std::vector<Metric> metrics;
  for (const auto& [name, v] : samples) metrics.push_back({name, median(v), units[name]});
  const double serial = median(untraced);
  const std::vector<Metric> rest = {
      {"pipeline.read_s", median(stageColumn(timed, [](const auto& s) { return s.read; })), "s"},
      {"pipeline.compute_s", compute_wall, "s"},
      {"pipeline.merge_s", merge_wall, "s"},
      {"pipeline.write_s", median(stageColumn(timed, [](const auto& s) { return s.write; })), "s"},
      {"pipeline.serial_s", serial, "s"},
      {"pipeline.speedup", serial / median(timed.walls), "serial/wall"},
      {"host.calib_s", median(timed.calib), "s"},
      {"trace.overhead_frac", (median(traced) - serial) / serial, "frac"},
      {"trace.tiling_err_frac", worst_tiling, "frac"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  return metrics;
}

int run(const Args& args) {
  const Workload w = workloadByName(args.workload);
  const msc::Domain domain{w.dims};
  const fs::path dir = fs::path(args.workdir) / (w.name + "-seed" + std::to_string(args.seed) +
                                                 "-pid" + std::to_string(::getpid()));
  fs::create_directories(dir);
  fs::create_directories(args.results);
  const std::string volume = (dir / "input.raw").string();
  const std::string output = (dir / "out.msc").string();
  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;

  // 1-2. Input, then the set-up processes.
  const double gen0 = nowSeconds();
  writeWorkloadVolume(w, args.seed, volume);
  const double gen_s = nowSeconds() - gen0;
  ErrorTally tally;
  Parts reference;
  std::vector<double> setup_s, peak_rss;
  for (int k = 0; k < kSetups; ++k) {
    const SetupResult r = runSetupChild(w, volume, output);
    setup_s.push_back(r.wall_s);
    peak_rss.push_back(r.peak_rss_mib);
    std::string why = r.ok ? "" : "set-up process failed";
    if (r.ok) {
      try {
        const Parts got = msc::io::readComplexFile(output);
        if (reference.empty()) reference = got;  // the run's first call
        why = checkCall(got, output, reference);
      } catch (const std::exception& e) {
        why = e.what();
      }
    }
    if (!why.empty()) std::fprintf(stderr, "set-up call failed: %s\n", why.c_str());
    tally.record(why.empty());
  }

  // 3. Warm-up, then the timed closed loop.
  TimedRun timed;
  const auto call = [&](msc::simnet::StageTimes* times) -> bool {
    timed.calib.push_back(calibrate());
    const double t0 = nowSeconds();
    try {
      const msc::pipeline::ThreadedResult r =
          msc::pipeline::runThreadedPipeline(pipelineConfig(w, volume, output));
      timed.walls.push_back(nowSeconds() - t0);
      *times = r.times;
      const std::string why = checkCall(r.outputs, output, reference);
      if (!why.empty()) std::fprintf(stderr, "call failed: %s\n", why.c_str());
      return why.empty();
    } catch (const std::exception& e) {
      timed.walls.push_back(nowSeconds() - t0);
      std::fprintf(stderr, "call threw: %s\n", e.what());
      return false;
    }
  };
  msc::simnet::StageTimes times;
  tally.record(call(&times));
  timed = {};
  const double loop0 = nowSeconds();
  while (timed.walls.empty() || nowSeconds() - loop0 < measure_s) {
    tally.record(call(&times));
    timed.stages.push_back(times);
  }
  // Every timed call, with the calibration time taken just before it,
  // so a slow-host stretch can be told apart from a slow call.
  const std::string calls_path =
      (fs::path(args.results) / (w.name + "-seed" + std::to_string(args.seed) + ".calls.tsv"))
          .string();
  if (std::FILE* f = std::fopen(calls_path.c_str(), "w")) {
    std::fprintf(f, "call\twall_s\tcalib_s\tread_s\tcompute_s\tmerge_s\twrite_s\n");
    for (std::size_t i = 0; i < timed.walls.size(); ++i) {
      const auto& s = timed.stages[i];
      std::fprintf(f, "%zu\t%.9f\t%.9f\t%.9f\t%.9f\t%.9f\t%.9f\n", i, timed.walls[i],
                   timed.calib[i], s.read, s.compute, s.mergeTotal(), s.write);
    }
    std::fclose(f);
  }

  // 4. Oracle replay and the reference check.
  const std::string replay_out = (dir / "replay.msc").string();
  const ReplayResult oracle = replay(w, volume, replay_out, nullptr, nullptr, 0);
  const std::string ref_why = checkReference(domain, reference, oracle.parts);
  if (!ref_why.empty()) {
    std::fprintf(stderr, "reference check failed: %s\n", ref_why.c_str());
    tally.failAll();
  }
  bool correct = tally.failed() == 0;

  const double wall = median(timed.walls);
  const auto wq = quartiles(timed.walls);
  std::printf("%s seed %u: %zu timed calls, wall_s q1 %.4f median %.4f q3 %.4f; "
              "set-up %.3f %.3f %.3f s, peak rss %.1f %.1f %.1f MiB; input generated in %.3f s; "
              "error_rate %.6g (%lld of %lld calls failed); host.calib_s %.6f\n",
              w.name.c_str(), args.seed, timed.walls.size(), wq[0], wq[1], wq[2], setup_s[0],
              setup_s[1], setup_s[2], peak_rss[0], peak_rss[1], peak_rss[2], gen_s, tally.rate(),
              static_cast<long long>(tally.failed()), static_cast<long long>(tally.attempted()),
              median(timed.calib));

  const std::vector<Metric> metrics =
      args.trace
          ? perLayerMetrics(w, args, volume, replay_out, oracle, timed, measure_s, &correct)
          : std::vector<Metric>{
                {"wall_s", wall, "s"},
                {"mvertices_per_s", static_cast<double>(w.vertices()) / 1e6 / wall, "Mvertex/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mib", median(peak_rss), "MiB"},
                {"output_mib", static_cast<double>(fs::file_size(output)) / kMiB, "MiB"},
            };
  fs::remove_all(dir);
  printResult(correct, tally, metrics);
  return 0;
}

/// Set-up child: one pipeline call and nothing else.
int oneCall(const Args& args) {
  const Workload w = workloadByName(args.workload);
  msc::pipeline::runThreadedPipeline(pipelineConfig(w, args.call_volume, args.call_output));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    return args.call_volume.empty() ? run(args) : oneCall(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msc_perfbench: %s\n", e.what());
    return 2;
  }
}
