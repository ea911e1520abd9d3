#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <utility>

#include "core/boundary.hpp"
#include "core/lower_star.hpp"
#include "core/merge.hpp"
#include "core/simplify.hpp"
#include "core/trace.hpp"
#include "decomp/decompose.hpp"
#include "io/complex_file.hpp"
#include "io/volume.hpp"

namespace perfbench {

ReplayResult replay(const Workload& w, const std::string& volume, const std::string& output,
                    SpanLog* log, msc::metrics::Registry* reg, int run) {
  ReplayResult res;
  const double t0 = nowSeconds();
  {
    Scoped root(log, "replay", run);
    const msc::Domain domain{w.dims};
    const std::vector<msc::Block> blocks = msc::decompose(domain, w.nblocks);
    std::vector<int> owner(static_cast<std::size_t>(w.nblocks), 0);
    const auto assignment = msc::assignBlocks(w.nblocks, w.nranks);
    for (int r = 0; r < w.nranks; ++r)
      for (const int b : assignment[static_cast<std::size_t>(r)])
        owner[static_cast<std::size_t>(b)] = r;

    // --- Read + compute, rank by rank (what computeBlockComplex does,
    // one layer call at a time).
    std::map<int, msc::MsComplex> owned;
    for (int r = 0; r < w.nranks; ++r) {
      for (const int id : assignment[static_cast<std::size_t>(r)]) {
        const msc::Block& blk = blocks[static_cast<std::size_t>(id)];
        msc::BlockField bf;
        {
          Scoped s(log, "io.read", run, r);
          bf = msc::io::readBlock(volume, blk, msc::io::SampleType::kFloat32);
        }
        res.read_bytes += blk.numVertices() * static_cast<std::int64_t>(sizeof(float));
        msc::GradientField grad;
        {
          Scoped s(log, "core.gradient", run, r);
          msc::GradientOptions gopts;
          gopts.restrict_boundary = true;
          msc::BoundarySignatures sigs;
          if (w.nblocks > 1) {
            sigs = msc::BoundarySignatures(blocks, blk);
            gopts.signatures = &sigs;
          }
          gopts.metrics = reg;
          gopts.metrics_rank = kSlotGradient;
          grad = msc::computeGradientLowerStar(bf, gopts);
        }
        msc::MsComplex c;
        {
          Scoped s(log, "core.trace", run, r);
          msc::TraceOptions topts;
          topts.metrics = reg;
          topts.metrics_rank = kSlotTrace;
          c = msc::traceComplex(grad, bf, topts);
        }
        {
          Scoped s(log, "core.simplify", run, r);
          msc::SimplifyOptions sopts;
          sopts.persistence_threshold = w.persistence;
          sopts.metrics = reg;
          sopts.metrics_rank = kSlotSimplify;
          msc::simplify(c, sopts);
          c.compact();
        }
        owned.emplace(id, std::move(c));
      }
    }

    // --- Merge rounds, in the schedule every rank derives.
    const msc::MergePlan plan = msc::MergePlan::partial(w.radices);
    std::vector<int> survivors(static_cast<std::size_t>(w.nblocks));
    std::iota(survivors.begin(), survivors.end(), 0);
    for (int round = 0; round < plan.rounds(); ++round) {
      const auto groups = plan.round(round, static_cast<int>(survivors.size()));
      std::vector<int> next;
      for (const msc::MergeGroup& g : groups) {
        const int root_blk = survivors[static_cast<std::size_t>(g.root)];
        const int root_owner = owner[static_cast<std::size_t>(root_blk)];
        // Members in block-id order, as the threaded root receives them.
        std::vector<int> member_blks;
        for (std::size_t m = 1; m < g.members.size(); ++m)
          member_blks.push_back(survivors[static_cast<std::size_t>(g.members[m])]);
        std::sort(member_blks.begin(), member_blks.end());
        std::int64_t root_in = 0;
        std::vector<msc::MsComplex> members;
        for (const int blk : member_blks) {
          const int src = owner[static_cast<std::size_t>(blk)];
          msc::io::Bytes packed;
          {
            Scoped s(log, "io.pack", run, src, round);
            packed = msc::io::pack(owned.at(blk));
          }
          owned.erase(blk);
          const auto n = static_cast<std::int64_t>(packed.size());
          res.pack_bytes += n;
          root_in += n;
          if (src != root_owner) {
            ++res.par.messages;
            res.par.shipped_bytes += n;
          }
          Scoped s(log, "io.unpack", run, root_owner, round);
          members.push_back(msc::io::unpack(packed));
        }
        res.par.max_root_bytes = std::max(res.par.max_root_bytes, root_in);
        msc::MsComplex& root = owned.at(root_blk);
        {
          // mergeComplexes(), one layer call at a time.
          Scoped s(log, "core.merge.glue", run, root_owner, round);
          root.compact();
          for (msc::MsComplex& m : members)
            msc::glue(root, std::move(m), nullptr, reg, kSlotGlue);
        }
        {
          Scoped s(log, "core.merge.finish", run, root_owner, round);
          msc::finishMerge(root, w.persistence, nullptr, reg, kSlotFinish);
          root.compact();
        }
        next.push_back(root_blk);
      }
      survivors = std::move(next);
    }

    // --- Write: every survivor is packed by its owner; the threaded
    // driver also gathers the packs on rank 0.
    for (const int id : survivors) {
      const int src = owner[static_cast<std::size_t>(id)];
      Scoped s(log, "io.pack", run, src);
      res.parts.push_back(msc::io::pack(owned.at(id)));
      const auto n = static_cast<std::int64_t>(res.parts.back().size());
      res.pack_bytes += n;
      if (src != 0) {
        ++res.par.messages;
        res.par.shipped_bytes += n;
      }
    }
    {
      Scoped s(log, "io.write", run);
      msc::io::writeComplexFile(output, res.parts);
    }
  }
  res.wall_s = nowSeconds() - t0;
  res.output_file_bytes = static_cast<std::int64_t>(std::filesystem::file_size(output));
  return res;
}

RankBusy rankBusy(const std::vector<Span>& spans, int run, int nranks, int rounds) {
  RankBusy b;
  b.compute.assign(static_cast<std::size_t>(nranks), 0.0);
  b.merge.assign(static_cast<std::size_t>(rounds),
                 std::vector<double>(static_cast<std::size_t>(nranks), 0.0));
  const std::vector<double> self = selfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.run != run || s.rank < 0 || s.rank >= nranks) continue;
    const auto rk = static_cast<std::size_t>(s.rank);
    if (s.name == "core.gradient" || s.name == "core.trace" || s.name == "core.simplify")
      b.compute[rk] += self[i];
    else if (s.round >= 0 && s.round < rounds)
      b.merge[static_cast<std::size_t>(s.round)][rk] += self[i];
  }
  return b;
}

double computeImbalance(const RankBusy& b) {
  if (b.compute.empty()) return 1.0;
  const double mx = *std::max_element(b.compute.begin(), b.compute.end());
  const double mean =
      std::accumulate(b.compute.begin(), b.compute.end(), 0.0) / static_cast<double>(b.compute.size());
  return mean > 0 ? mx / mean : 1.0;
}

double computeWait(double compute_wall, const RankBusy& b) {
  const double mx = b.compute.empty() ? 0.0 : *std::max_element(b.compute.begin(), b.compute.end());
  return compute_wall - mx;
}

double mergeWait(double merge_wall, const RankBusy& b) {
  double busiest = 0;
  for (const auto& per_rank : b.merge)
    if (!per_rank.empty()) busiest += *std::max_element(per_rank.begin(), per_rank.end());
  return merge_wall - busiest;
}

}  // namespace perfbench
