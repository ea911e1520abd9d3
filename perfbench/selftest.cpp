/// msc_perfbench_selftest: checks of the benchmark's own logic --
/// order statistics, span self time and tiling, the imbalance and
/// wait derivations, and that a planted wrong output raises the error
/// rate. perfbench/run.py runs it before every measurement; a failure
/// stops the run.
///
///   msc_perfbench_selftest [--workdir DIR]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "pipeline/threaded_pipeline.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

int g_failed = 0;
int g_passed = 0;

void expect(bool ok, const std::string& what) {
  if (ok) {
    ++g_passed;
    return;
  }
  ++g_failed;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void testStats() {
  // Reference values from Python's statistics.quantiles(v, n=4).
  const auto q10 = quartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  expect(near(q10[0], 2.75) && near(q10[1], 5.5) && near(q10[2], 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const auto q2 = quartiles({2, 1});
  expect(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25),
         "quartiles of {1, 2} are 0.75, 1.5, 2.25");
  const auto q5 = quartiles({5, 1, 4, 2, 3});
  expect(near(q5[0], 1.5) && near(q5[1], 3) && near(q5[2], 4.5),
         "quartiles of 1..5 are 1.5, 3, 4.5");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5), "median");
}

void testSpans() {
  // Children may overlap and stick out of their parent: self time is
  // the parent's duration minus the union of the clipped children.
  std::vector<Span> s = {
      {"replay", 0, 10, -1, 1, -1, -1},  // 0
      {"a", 1, 3, 0, 1, -1, -1},         // 1
      {"b", 2, 5, 0, 1, -1, -1},         // 2
      {"c", 6, 7, 0, 1, -1, -1},         // 3
      {"d", 2.5, 3.5, 1, 1, -1, -1},     // 4: child of a, clipped at 3
      {"replay", 20, 21, -1, 2, -1, -1}, // 5: another run
  };
  const auto self = selfTimes(s);
  expect(near(self[0], 5) && near(self[1], 1.5) && near(self[2], 3) && near(self[3], 1) &&
             near(self[4], 1) && near(self[5], 1),
         "self time = duration minus the union of clipped child intervals");
  const auto by = selfTimeByName(s, 1);
  expect(near(by.at("unattributed"), 5) && near(by.at("a"), 1.5) && by.count("replay") == 0,
         "a root's self time is reported as unattributed");

  // A recorded log of nested spans around real work tiles its wall.
  SpanLog log;
  const auto spin = [] {
    const double until = nowSeconds() + 0.002;
    while (nowSeconds() < until) {
    }
  };
  const double t0 = nowSeconds();
  {
    Scoped root(&log, "replay", 7);
    for (int i = 0; i < 3; ++i) {
      Scoped outer(&log, "outer", 7, i);
      spin();
      Scoped inner(&log, "inner", 7, i, 0);
      spin();
    }
  }
  const double wall = nowSeconds() - t0;
  const auto& rec = log.spans();
  expect(rec.size() == 7 && rec[1].parent == 0 && rec[2].parent == 1 && rec[3].parent == 0,
         "spans opened inside another become its children");
  expect(tilingError(rec, 7, wall) < 0.05, "self times of a nested log tile the wall");
  Scoped off(nullptr, "ignored", 0);  // a null log records nothing
}

void testDerivations() {
  RankBusy b;
  b.compute = {1, 2, 3, 2};
  b.merge = {{1, 2, 0, 0}, {0.5, 0, 0.25, 0}};
  expect(near(computeImbalance(b), 1.5), "compute_imbalance = max / mean");
  expect(near(computeWait(4, b), 1), "compute_wait_s = stage wall - busiest rank");
  expect(near(mergeWait(3, b), 0.5), "merge_wait_s = stage wall - sum of per-round maxima");

  const std::vector<Span> s = {
      {"replay", 0, 100, -1, 3, -1, -1},
      {"core.gradient", 0, 2, 0, 3, 0, -1},
      {"core.trace", 2, 3, 0, 3, 0, -1},
      {"core.simplify", 3, 4, 0, 3, 1, -1},
      {"io.read", 4, 9, 0, 3, 1, -1},  // read is not compute
      {"io.pack", 10, 11, 0, 3, 1, 0},
      {"core.merge.glue", 11, 14, 0, 3, 0, 0},
      {"io.pack", 15, 16, 0, 3, 1, -1},  // write-stage pack: no round
  };
  const RankBusy r = rankBusy(s, 3, 2, 1);
  expect(near(r.compute[0], 3) && near(r.compute[1], 1), "per-rank compute busy time");
  expect(near(r.merge[0][0], 3) && near(r.merge[0][1], 1), "per-round per-rank merge busy time");
}

void testPlantedOutputs(const fs::path& dir) {
  // A small full-merge workload through the real threaded pipeline.
  const Workload w = makeWorkload("selftest", "noise", {17, 17, 17}, 4, {4});
  const std::string vol = (dir / "in.raw").string(), out = (dir / "out.msc").string();
  writeWorkloadVolume(w, 3, vol);
  const auto res = msc::pipeline::runThreadedPipeline(pipelineConfig(w, vol, out));
  const ReplayResult rep = replay(w, vol, (dir / "replay.msc").string(), nullptr, nullptr, 0);
  const msc::Domain domain{w.dims};
  expect(checkReference(domain, res.outputs, rep.parts).empty(),
         "threaded output is clean and canonical-equal to the replay");
  expect(checkCall(res.outputs, out, res.outputs).empty(), "a reproduced call passes");

  ErrorTally tally;
  tally.record(checkCall(res.outputs, out, res.outputs).empty());
  Parts flipped = res.outputs;
  flipped[0][flipped[0].size() / 2] ^= std::byte{0x01};
  tally.record(checkCall(flipped, out, res.outputs).empty());
  expect(tally.failed() == 1 && near(tally.rate(), 0.5), "a flipped output byte raises error_rate");

  // Self-consistent but wrong: another input's complex as the reference.
  const std::string vol2 = (dir / "in2.raw").string(), out2 = (dir / "out2.msc").string();
  writeWorkloadVolume(w, 4, vol2);
  const auto other = msc::pipeline::runThreadedPipeline(pipelineConfig(w, vol2, out2));
  expect(checkCall(other.outputs, out2, other.outputs).empty(),
         "the planted run reproduces itself");
  const bool caught = !checkReference(domain, other.outputs, rep.parts).empty();
  expect(caught, "a complex of a different input fails the replay comparison");
  ErrorTally all;
  all.record(true);
  all.record(true);
  if (caught) all.failAll();
  expect(all.failed() == 2 && near(all.rate(), 1), "a wrong reference fails every call");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir = ".bench_build/work";
  if (argc == 3 && std::string(argv[1]) == "--workdir") workdir = argv[2];
  const fs::path dir = fs::path(workdir) / ("selftest-pid" + std::to_string(::getpid()));
  try {
    fs::create_directories(dir);
    testStats();
    testSpans();
    testDerivations();
    testPlantedOutputs(dir);
  } catch (const std::exception& e) {
    expect(false, std::string("threw: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::fprintf(stderr, "selftest: %d passed, %d failed\n", g_passed, g_failed);
  return g_failed == 0 ? 0 : 1;
}
