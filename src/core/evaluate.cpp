#include "core/evaluate.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "robust/sampler.h"

namespace boson::core {

std::map<std::string, double> prefab_metrics(const design_problem& problem,
                                             const array2d<double>& rho_design) {
  eval_options o;
  o.fab_aware = false;
  o.binarize_ideal = true;
  o.dense_objectives = false;
  o.compute_gradient = false;
  robust::variation_corner nominal;
  nominal.xi.assign(problem.fab().space.eole_terms, 0.0);
  return problem.evaluate_pattern(rho_design, nominal, o).metrics;
}

mc_stats postfab_monte_carlo(const design_problem& problem, const array2d<double>& mask,
                             std::size_t num_samples, std::uint64_t seed) {
  require(num_samples > 0, "postfab_monte_carlo: need at least one sample");
  const rng base(seed);

  eval_options o;
  o.fab_aware = true;
  o.hard_etch = true;
  o.dense_objectives = false;
  o.compute_gradient = false;

  std::vector<std::map<std::string, double>> metric_samples(num_samples);
  parallel_for(num_samples, [&](std::size_t s) {
    rng r = base.fork(s);
    const robust::variation_corner corner =
        robust::random_corner(r, problem.fab().space, "mc" + std::to_string(s));
    metric_samples[s] = problem.evaluate_pattern(mask, corner, o).metrics;
  });

  mc_stats stats;
  stats.samples = num_samples;
  dvec foms(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    foms[s] = problem.fom_of(metric_samples[s]);
    for (const auto& [name, value] : metric_samples[s]) stats.metric_means[name] += value;
  }
  for (auto& [name, value] : stats.metric_means) value /= static_cast<double>(num_samples);

  double mean = 0.0;
  for (const double f : foms) mean += f;
  mean /= static_cast<double>(num_samples);
  double var = 0.0;
  stats.fom_min = foms[0];
  stats.fom_max = foms[0];
  for (const double f : foms) {
    var += (f - mean) * (f - mean);
    stats.fom_min = std::min(stats.fom_min, f);
    stats.fom_max = std::max(stats.fom_max, f);
  }
  stats.fom_mean = mean;
  stats.fom_std = num_samples > 1 ? std::sqrt(var / static_cast<double>(num_samples - 1)) : 0.0;
  return stats;
}

std::vector<process_window_point> litho_process_window(const design_problem& problem,
                                                       const array2d<double>& mask,
                                                       const dvec& defocus_values_um,
                                                       const dvec& dose_values) {
  require(!defocus_values_um.empty() && !dose_values.empty(),
          "litho_process_window: empty scan axes");
  using litho_ptr = std::shared_ptr<const fab::hopkins_litho>;
  const fab_context& fab = problem.fab();

  // One optical system per distinct defocus — the problem's own corner model
  // where one has that defocus — from which every dose of the row derives.
  std::vector<double> distinct;
  for (const double d : defocus_values_um)
    if (std::find(distinct.begin(), distinct.end(), d) == distinct.end()) distinct.push_back(d);
  std::vector<litho_ptr> optics(distinct.size());
  parallel_for(distinct.size(), [&](std::size_t i) {
    const auto corner = std::find_if(fab.litho.begin(), fab.litho.end(), [&](const litho_ptr& m) {
      return m->corner().defocus == distinct[i];
    });
    optics[i] = corner != fab.litho.end()
                    ? *corner
                    : std::make_shared<const fab::hopkins_litho>(
                          fab.litho_cfg, fab::litho_corner_params{distinct[i], 1.0},
                          problem.spec().design.nx + 2 * fab.halo,
                          problem.spec().design.ny + 2 * fab.halo);
  });

  std::vector<process_window_point> window(defocus_values_um.size() * dose_values.size());
  parallel_for(window.size(), [&](std::size_t idx) {
    const double defocus = defocus_values_um[idx / dose_values.size()];
    const double dose = dose_values[idx % dose_values.size()];

    // A fabrication context whose single (nominal-slot) corner is this
    // process point (the problem's own model where the point is one of its
    // corners); EOLE/variation space are shared, and so are the reference
    // input powers, which do not depend on the fab context.
    const auto corner = std::find_if(fab.litho.begin(), fab.litho.end(), [&](const litho_ptr& m) {
      return m->corner().defocus == defocus && m->corner().dose == dose;
    });
    const litho_ptr& base =
        optics[static_cast<std::size_t>(std::find(distinct.begin(), distinct.end(), defocus) -
                                        distinct.begin())];
    fab_context ctx = fab;
    ctx.litho = {corner != fab.litho.end()
                     ? *corner
                     : std::make_shared<const fab::hopkins_litho>(base->with_dose(dose))};
    ctx.space.num_litho_corners = 1;
    const design_problem scanned = problem.with_fab(std::move(ctx));

    robust::variation_corner nominal;
    nominal.xi.assign(scanned.fab().space.eole_terms, 0.0);
    eval_options o;
    o.fab_aware = true;
    o.hard_etch = true;
    o.dense_objectives = false;
    o.compute_gradient = false;
    const auto ev = scanned.evaluate_pattern(mask, nominal, o);
    window[idx] = {defocus, dose, scanned.fom_of(ev.metrics)};
  });
  return window;
}

std::vector<spectrum_point> wavelength_sweep(const design_problem& problem,
                                             const array2d<double>& mask,
                                             const dvec& wavelengths_um) {
  require(!wavelengths_um.empty(), "wavelength_sweep: no wavelengths");
  std::vector<spectrum_point> spectrum(wavelengths_um.size());
  parallel_for(wavelengths_um.size(), [&](std::size_t i) {
    const design_problem shifted = problem.at_wavelength(wavelengths_um[i]);
    robust::variation_corner nominal;
    nominal.xi.assign(shifted.fab().space.eole_terms, 0.0);
    eval_options o;
    o.fab_aware = true;
    o.hard_etch = true;
    o.dense_objectives = false;
    o.compute_gradient = false;
    const auto ev = shifted.evaluate_pattern(mask, nominal, o);
    spectrum[i].lambda_um = wavelengths_um[i];
    spectrum[i].fom = shifted.fom_of(ev.metrics);
    spectrum[i].metrics = ev.metrics;
  });
  return spectrum;
}

}  // namespace boson::core
