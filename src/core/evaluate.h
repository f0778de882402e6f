/// \file evaluate.h
/// Evaluation protocols for finished designs: pre-fabrication metrics (the
/// "numerically plausible" numbers a naive flow reports), the post-fab
/// Monte-Carlo protocol of Section IV-B (random litho corner, temperature,
/// and EOLE etch field per sample, hard-etch binarization), and spectral
/// sweeps over operating wavelength.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/design_problem.h"

namespace boson::core {

/// Pre-fabrication ("numerically plausible") metrics: the design pattern is
/// binarized at 0.5 and simulated at the nominal operating point with no
/// fabrication model — exactly what a naive inverse-design flow reports.
std::map<std::string, double> prefab_metrics(const design_problem& problem,
                                             const array2d<double>& rho_design);

/// Statistics of the post-fabrication Monte-Carlo evaluation.
struct mc_stats {
  double fom_mean = 0.0;
  double fom_std = 0.0;
  double fom_min = 0.0;
  double fom_max = 0.0;
  std::size_t samples = 0;
  std::map<std::string, double> metric_means;
};

/// Post-fabrication evaluation protocol (Section IV-B): `num_samples` Monte
/// Carlo draws of (lithography corner, temperature, EOLE etch field), hard
/// etch binarization, FoM per the device objective. The mask's operator at
/// the nominal corner is factored once per call and preconditions every
/// sample's solves (`eval_options::nominal_engine`); samples run
/// concurrently, and the statistics are a function of the arguments alone.
mc_stats postfab_monte_carlo(const design_problem& problem, const array2d<double>& mask,
                             std::size_t num_samples, std::uint64_t seed);

/// One point of a spectral-response sweep.
struct spectrum_point {
  double lambda_um = 0.0;
  double fom = 0.0;
  std::map<std::string, double> metrics;
};

/// Evaluate a finished mask across operating wavelengths (nominal
/// fabrication corner, hard etch). An extension beyond the paper's
/// evaluation: it quantifies how the variation-robust design behaves off the
/// central wavelength. Wavelengths are processed concurrently.
std::vector<spectrum_point> wavelength_sweep(const design_problem& problem,
                                             const array2d<double>& mask,
                                             const dvec& wavelengths_um);

/// One point of a lithography process-window scan.
struct process_window_point {
  double defocus_um = 0.0;
  double dose = 1.0;
  double fom = 0.0;
};

/// Classical process-window analysis: image the mask through every
/// (defocus, dose) combination, hard-etch at the nominal threshold, and
/// report the device FoM. Each point builds its own Hopkins model, so keep
/// the grids small (e.g. 3 x 3); points run concurrently.
std::vector<process_window_point> litho_process_window(const design_problem& problem,
                                                       const array2d<double>& mask,
                                                       const dvec& defocus_values_um,
                                                       const dvec& dose_values);

}  // namespace boson::core
