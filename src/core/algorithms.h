// Concrete CosmoTools algorithms — the analysis tasks of §4.1:
// power spectrum, halo identification, halo center finding (with the
// in-situ/off-line split threshold), spherical-overdensity masses, and
// subhalo finding.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cosmotools.h"
#include "halo/center_finder.h"
#include "halo/fof.h"
#include "halo/so_mass.h"
#include "halo/subhalo.h"
#include "obs/obs.h"
#include "stats/concentration.h"
#include "stats/halo_shape.h"
#include "stats/power_spectrum.h"
#include "util/error.h"

namespace cosmo::core {

namespace detail {

/// Catalog record → FOF halo via the id index the halo finder publishes;
/// falls back to a linear scan if the index is absent (e.g. a hand-built
/// context). Returns nullptr for records centered in a previous step or
/// owned by the off-line path.
inline const halo::FofHalo* find_fof_halo(const AnalysisContext& ctx,
                                          std::int64_t id) {
  const auto it = ctx.fof_index.find(id);
  if (it != ctx.fof_index.end()) return &ctx.fof->halos[it->second];
  for (const auto& cand : ctx.fof->halos)
    if (cand.id == id) return &cand;
  return nullptr;
}

}  // namespace detail

/// CIC density + large FFT → P(k). The paper's canonical well-balanced
/// in-situ task ("takes only a few minutes, a small fraction of ... a
/// single time step").
class PowerSpectrumAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "powerspectrum"; }

  void SetToolParameters(const ParameterMap& p) override {
    cfg_.grid = p.get_size("grid", 32);
    cfg_.bins = p.get_size("bins", 16);
    cfg_.subtract_shot_noise = p.get_bool("subtract_shot_noise", false);
    COSMO_REQUIRE(fft::is_pow2(cfg_.grid), "power spectrum grid must be 2^n");
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    ctx.spectra.push_back(stats::measure_power_spectrum(
        *ctx.comm, *ctx.particles, ctx.box, ctx.total_particles, cfg_));
  }

 private:
  // P(k) runs on Serial, not ctx.backend: pooling it raised the PM
  // workload's peak RSS 74.1 → 90.8 MB (+22%) for +2% round time.
  stats::PowerSpectrumConfig cfg_;
};

/// Distributed FOF halo identification — well load-balanced (Table 2's Find
/// column varies little across nodes).
class HaloFinderAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "halofinder"; }

  void SetToolParameters(const ParameterMap& p) override {
    cfg_.linking_length = p.get_double("linking_length", 0.2);
    cfg_.min_size = p.get_size("min_size", 40);
    overload_ = p.get_double("overload", 4.0 * cfg_.linking_length);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    cfg_.backend = ctx.backend;
    ctx.fof = std::make_shared<halo::DistributedFofResult>(
        halo::fof_distributed(*ctx.comm, *ctx.decomp, *ctx.particles, cfg_,
                              overload_));
    ctx.fof_index.clear();
    for (std::uint32_t i = 0; i < ctx.fof->halos.size(); ++i)
      ctx.fof_index.emplace(ctx.fof->halos[i].id, i);
  }

 private:
  halo::FofConfig cfg_;
  double overload_ = 1.0;
};

/// MBP center finding with the in-situ/off-line split (§4.1): halos at or
/// below the threshold are centered here; larger halos' member lists are
/// deferred to the off-line path (their particles become Level 2 data).
/// Threshold 0 disables the split (everything is computed in-situ).
/// `threshold` is the one key: halos are centred by halo::mbp_center with
/// the default softening, exactly as analyze_level2 centres Level 2 halos.
class CenterFinderAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "centerfinder"; }

  void SetToolParameters(const ParameterMap& p) override {
    threshold_ = p.get_size("threshold", 0);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr,
                  "centerfinder requires the halofinder to run first");
    COSMO_TRACE_SPAN_CAT("halo.centers", "halo");
    halo::CenterConfig ccfg;
    ccfg.box = ctx.box;
    const auto& particles = ctx.fof->particles;
    // Split pass: defer the monsters to the off-line path, keep the rest.
    std::vector<std::uint32_t> work;  // indices into fof->halos
    work.reserve(ctx.fof->halos.size());
    for (std::uint32_t hi = 0; hi < ctx.fof->halos.size(); ++hi) {
      const auto& h = ctx.fof->halos[hi];
      if (threshold_ != 0 && h.members.size() > threshold_) {
        ctx.deferred_members.push_back(h.members);
        ctx.deferred_ids.push_back(h.id);
      } else {
        work.push_back(hi);
      }
    }
    // One task per halo. fof->halos is sorted largest-first and the pool's
    // chunk cursor claims tasks in index order, so the expensive halos
    // dispatch first; results land in preallocated slots and append in
    // halo order, so the catalog is identical on both backends.
    std::vector<halo::CenterResult> results(work.size());
    dpp::for_each_index(
        ctx.backend, work.size(),
        [&](std::size_t k) {
          const auto& h = ctx.fof->halos[work[k]];
          results[k] =
              halo::mbp_center(ctx.backend, particles, h.members, ccfg);
        },
        /*grain=*/1);
    for (std::size_t k = 0; k < work.size(); ++k) {
      const auto& h = ctx.fof->halos[work[k]];
      const auto& r = results[k];
      stats::HaloRecord rec;
      rec.id = h.id;
      rec.count = h.members.size();
      rec.cx = particles.x[r.particle];
      rec.cy = particles.y[r.particle];
      rec.cz = particles.z[r.particle];
      rec.potential = static_cast<float>(r.potential);
      ctx.catalog.push_back(rec);
    }
  }

 private:
  std::uint64_t threshold_ = 0;
};

/// SO mass around each in-situ-centered halo. Very fast, but "it relies on
/// information obtained by the center finder" — the pipeline dependency
/// the paper highlights.
class SoMassAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "somass"; }

  void SetToolParameters(const ParameterMap& p) override {
    delta_ = p.get_double("delta", 200.0);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr,
                  "somass requires the halofinder to run first");
    COSMO_TRACE_SPAN_CAT("halo.properties", "halo");
    const auto& particles = ctx.fof->particles;
    halo::SoConfig scfg;
    scfg.delta = delta_;
    scfg.particle_mass = 1.0;
    scfg.mean_density = static_cast<double>(ctx.total_particles) /
                        (ctx.box * ctx.box * ctx.box);
    scfg.box = ctx.box;
    scfg.backend = ctx.backend;
    // One task per record; each task writes only its own record's fields.
    dpp::for_each_index(
        ctx.backend, ctx.catalog.size(),
        [&](std::size_t ri) {
          auto& rec = ctx.catalog[ri];
          const halo::FofHalo* h = detail::find_fof_halo(ctx, rec.id);
          if (!h) return;  // centered in a previous step / off-line part
          const auto so = halo::so_mass(particles, h->members, rec.cx, rec.cy,
                                        rec.cz, scfg);
          rec.so_mass = static_cast<float>(so.mass);
          rec.so_radius = static_cast<float>(so.radius);
        },
        /*grain=*/1);
  }

 private:
  double delta_ = 200.0;
};

/// Halo shapes — the paper's third named Level 3 property ("halo centers,
/// shapes, and subhalo populations", §3): reduced-inertia-tensor axis
/// ratios about the MBP center.
class ShapeAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "shapes"; }

  void SetToolParameters(const ParameterMap& p) override {
    min_size_ = p.get_size("min_size", 100);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr,
                  "shapes require the halofinder to run first");
    COSMO_TRACE_SPAN_CAT("halo.properties", "halo");
    const auto& particles = ctx.fof->particles;
    dpp::for_each_index(
        ctx.backend, ctx.catalog.size(),
        [&](std::size_t ri) {
          auto& rec = ctx.catalog[ri];
          if (rec.count < min_size_) return;
          const halo::FofHalo* h = detail::find_fof_halo(ctx, rec.id);
          if (!h) return;
          const auto s = stats::halo_shape(particles, h->members, rec.cx,
                                           rec.cy, rec.cz, ctx.box,
                                           ctx.backend);
          rec.b_over_a = static_cast<float>(s.b_over_a);
          rec.c_over_a = static_cast<float>(s.c_over_a);
        },
        /*grain=*/1);
  }

 private:
  std::size_t min_size_ = 100;
};

/// NFW concentration for each centered halo — another Level 3 product the
/// paper lists (Table 1). Depends on the MBP center: "if the center is not
/// exactly at the density maximum, the concentration will be
/// underestimated" (§3.3.2), which is why the accurate-but-expensive MBP
/// definition is worth its cost.
class ConcentrationAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "concentration"; }

  void SetToolParameters(const ParameterMap& p) override {
    min_size_ = p.get_size("min_size", 100);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr,
                  "concentration requires the halofinder to run first");
    COSMO_TRACE_SPAN_CAT("halo.properties", "halo");
    const auto& particles = ctx.fof->particles;
    dpp::for_each_index(
        ctx.backend, ctx.catalog.size(),
        [&](std::size_t ri) {
          auto& rec = ctx.catalog[ri];
          if (rec.count < min_size_) return;
          const halo::FofHalo* h = detail::find_fof_halo(ctx, rec.id);
          if (!h) return;
          const auto r =
              rec.count >= 200
                  ? stats::concentration_profile_fit(particles, h->members,
                                                     rec.cx, rec.cy, rec.cz,
                                                     ctx.box, 16, ctx.backend)
                  : stats::concentration(particles, h->members, rec.cx,
                                         rec.cy, rec.cz, ctx.box,
                                         ctx.backend);
          rec.concentration = static_cast<float>(r.c);
        },
        /*grain=*/1);
  }

 private:
  std::size_t min_size_ = 100;
};

/// Subhalo finding for halos above a host-size floor ("subhalos were found
/// for halos with more than 5000 particles"). CPU-only by construction,
/// badly load-imbalanced — the paper's second off-load candidate.
class SubhaloAlgorithm : public CadencedAlgorithm {
 public:
  std::string Name() const override { return "subhalos"; }

  void SetToolParameters(const ParameterMap& p) override {
    min_host_ = p.get_size("min_host", 5000);
    // Defaults from SubhaloConfig{}, which analyze_level2 uses as is: a
    // host's subhalos must not depend on which side of the split it falls.
    const halo::SubhaloConfig defaults;
    cfg_.num_neighbors = p.get_size("num_neighbors", defaults.num_neighbors);
    cfg_.min_size = p.get_size("min_size", defaults.min_size);
    cfg_.velocity_scale =
        p.get_double("velocity_scale", defaults.velocity_scale);
  }

  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr,
                  "subhalos require the halofinder to run first");
    COSMO_TRACE_SPAN_CAT("halo.properties", "halo");
    cfg_.box = ctx.box;
    const auto& particles = ctx.fof->particles;
    dpp::for_each_index(
        ctx.backend, ctx.catalog.size(),
        [&](std::size_t ri) {
          auto& rec = ctx.catalog[ri];
          if (rec.count <= min_host_) return;
          const halo::FofHalo* h = detail::find_fof_halo(ctx, rec.id);
          if (!h) return;
          const auto subs = halo::find_subhalos(particles, h->members, cfg_);
          rec.subhalos = static_cast<std::uint32_t>(subs.size());
        },
        /*grain=*/1);
  }

 private:
  std::size_t min_host_ = 5000;
  halo::SubhaloConfig cfg_;
};

/// Builds the standard halo-analysis pipeline in execution order.
inline void register_halo_pipeline(InSituAnalysisManager& manager) {
  manager.add(std::make_unique<HaloFinderAlgorithm>());
  manager.add(std::make_unique<CenterFinderAlgorithm>());
  manager.add(std::make_unique<SoMassAlgorithm>());
  manager.add(std::make_unique<SubhaloAlgorithm>());
}

/// Full Level 3 chain as separate sequential steps (centers, SO masses,
/// shapes, concentrations).
inline void register_full_halo_pipeline(InSituAnalysisManager& manager) {
  manager.add(std::make_unique<HaloFinderAlgorithm>());
  manager.add(std::make_unique<CenterFinderAlgorithm>());
  manager.add(std::make_unique<SoMassAlgorithm>());
  manager.add(std::make_unique<ShapeAlgorithm>());
  manager.add(std::make_unique<ConcentrationAlgorithm>());
}

}  // namespace cosmo::core
