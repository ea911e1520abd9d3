/// \file workloads.hpp
/// The benchmark's workloads: a synthetic raw f32 volume generated
/// from the seed, plus the decomposition and merge plan the pipeline
/// runs it with. Why each one is chosen is recorded in BENCHMARK.json.
///
/// Seeds must give different inputs with the same amount of work, or
/// the spread of a metric over seeds measures the inputs rather than
/// the code. White noise is homogeneous, so the seed drives it
/// directly. The jet and Rayleigh-Taylor generators place a handful
/// of large random structures: drawn straight from the seed, the jet's
/// output size spreads 19% (quartile distance over median, 10 seeds).
/// Their input is therefore the generator's default field plus
/// `perturbation` times the difference of two seeded realisations.
/// The difference cancels the mean profile (jet envelope, density
/// ramp) and leaves turbulence and plumes, so each seed moves the
/// small features while the large-scale structure stays. Over 10
/// seeds the jet's output then spreads 3-5% and the Rayleigh-Taylor
/// output 5-8% (12% at a share of 0.05).
#pragma once

#include <string>
#include <vector>

#include "core/grid.hpp"
#include "merge/plan.hpp"
#include "pipeline/config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string field;  ///< "jet" | "noise" | "rt"
  msc::Vec3i dims;
  int nblocks{1};
  std::vector<int> radices;  ///< merge plan, MergePlan::partial(radices)
  float persistence{0.03f};
  int nranks{4};
  double perturbation{0};  ///< seeded share of the input (0: the seed draws the field)

  std::int64_t vertices() const { return dims.volume(); }
};

/// The three named workloads; throws std::invalid_argument otherwise.
Workload workloadByName(const std::string& name);

/// A workload by hand (self-tests use small ones).
Workload makeWorkload(std::string name, std::string field, msc::Vec3i dims, int nblocks,
                      std::vector<int> radices, double perturbation = 0);

/// Sample the workload's field for `seed` and write it as a raw f32
/// volume at `path`.
void writeWorkloadVolume(const Workload& w, unsigned seed, const std::string& path);

/// The threaded-pipeline configuration of a run: 4 ranks, every
/// instrument off, premerge and the sharded final round off (the CLI
/// defaults), reading `volume` and writing `output`.
msc::pipeline::PipelineConfig pipelineConfig(const Workload& w, const std::string& volume,
                                             const std::string& output);

}  // namespace perfbench
