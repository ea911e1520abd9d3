#include "workloads.hpp"

#include <stdexcept>
#include <utility>

#include "io/volume.hpp"
#include "synth/fields.hpp"

namespace perfbench {

Workload makeWorkload(std::string name, std::string field, msc::Vec3i dims, int nblocks,
                      std::vector<int> radices, double perturbation) {
  Workload w;
  w.name = std::move(name);
  w.field = std::move(field);
  w.dims = dims;
  w.nblocks = nblocks;
  w.radices = std::move(radices);
  w.perturbation = perturbation;
  return w;
}

Workload workloadByName(const std::string& name) {
  if (name == "jet_full") return makeWorkload(name, "jet", {81, 81, 49}, 32, {4, 8}, 0.1);
  if (name == "noise_merge") return makeWorkload(name, "noise", {49, 49, 49}, 16, {2, 8});
  // The density field has exact float plateaus; arcs crossing them
  // change length with any perturbation, so rt takes a smaller share.
  if (name == "rt_partial") return makeWorkload(name, "rt", {97, 97, 97}, 64, {8}, 0.02);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (jet_full | noise_merge | rt_partial)");
}

namespace {

msc::synth::Field seeded(const std::string& field, const msc::Domain& domain, unsigned seed) {
  if (field == "jet") return msc::synth::jetLike(domain, seed);
  if (field == "rt") return msc::synth::rtLike(domain, seed);
  if (field == "noise") return msc::synth::noise(seed);
  throw std::invalid_argument("unknown field '" + field + "'");
}

/// The generator's own default field (the repository's fixed case).
msc::synth::Field defaultField(const std::string& field, const msc::Domain& domain) {
  if (field == "jet") return msc::synth::jetLike(domain);
  if (field == "rt") return msc::synth::rtLike(domain);
  throw std::invalid_argument("no default field for '" + field + "'");
}

}  // namespace

void writeWorkloadVolume(const Workload& w, unsigned seed, const std::string& path) {
  const msc::Domain domain{w.dims};
  msc::synth::Field f;
  if (w.perturbation == 0) {
    f = seeded(w.field, domain, seed);
  } else {
    f = [base = defaultField(w.field, domain), a = seeded(w.field, domain, 2 * seed + 1),
         b = seeded(w.field, domain, 2 * seed + 2), eps = w.perturbation](msc::Vec3i p) {
      return static_cast<float>(base(p) + eps * (static_cast<double>(a(p)) - b(p)));
    };
  }
  msc::io::writeVolume(path, domain, msc::synth::sampleAll(domain, f),
                       msc::io::SampleType::kFloat32);
}

msc::pipeline::PipelineConfig pipelineConfig(const Workload& w, const std::string& volume,
                                             const std::string& output) {
  msc::pipeline::PipelineConfig cfg;
  cfg.domain = msc::Domain{w.dims};
  cfg.source.volume_path = volume;
  cfg.source.sample_type = msc::io::SampleType::kFloat32;
  cfg.nblocks = w.nblocks;
  cfg.nranks = w.nranks;
  cfg.persistence_threshold = w.persistence;
  cfg.plan = msc::MergePlan::partial(w.radices);
  cfg.output_path = output;
  return cfg;
}

}  // namespace perfbench
