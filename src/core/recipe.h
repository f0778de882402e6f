/// \file recipe.h
/// The composable method layer: a `method_recipe` is a first-class value
/// describing one design methodology as a composition of orthogonal,
/// string-keyed policies — parameterization, variation-corner strategy,
/// subspace-relaxation schedule, loss-landscape reshaping, initialization,
/// mask-correction stage, projection schedule, and optimizer overrides. The
/// fifteen paper methods are presets expressed as recipes (see
/// `core::method_presets` in methods.h); never-compiled hybrids are just new
/// recipe values, built in C++ or parsed from a spec's `"recipe"` object.

#pragma once

#include <cstddef>
#include <string>

#include "robust/sampler.h"

namespace boson::core {

/// One design methodology as data. String fields name policy keys (see
/// below); numeric fields tune the selected policies. Field defaults
/// describe the plain level-set baseline ("LS"), so a recipe only states
/// what it composes differently.
struct method_recipe {
  /// Display label carried into `method_result`, summaries and reports
  /// (the presets use the paper names, e.g. "BOSON-1").
  std::string label = "custom";

  // ----------------------------------------------------- parameterization --
  std::string parameterization = "levelset";  ///< parameterization-policy key
  double density_blur_cells = 0.0;  ///< density built-in MFS blur radius [cells]
  bool density_blur_mfs = false;    ///< resolve the blur to ~80 nm at run time
  bool mfs_blur = false;            ///< problem-level MFS blur ('-M' variants)

  // ------------------------------------------------------ corner strategy --
  std::string corners = "none";  ///< corner-policy key (none / fixed axial /
                                 ///< exhaustive / adaptive / erosion_dilation)
  double ed_radius_cells = 1.2;  ///< erosion/dilation radius [cells]

  // ------------------------------------------- subspace relaxation schedule --
  std::string relaxation = "none";  ///< relaxation-policy key

  // ----------------------------------------------- objective reshaping -----
  std::string reshaping = "none";  ///< reshaping-policy key
  double tv_weight = 0.0;          ///< total-variation (perimeter) penalty

  // --------------------------------------------------------- initialization --
  std::string initialization = "default";  ///< initialization-policy key

  // --------------------------------------------------- mask-correction stage --
  std::string mask_correction = "none";  ///< mask-correction-policy key

  // ------------------------------------------------ optimizer hyperparameters --
  std::string beta_schedule = "ramp";  ///< beta-policy key
  double beta_start = 8.0;             ///< projection sharpness at iteration 0
  double beta_end = 40.0;              ///< ... at the last iteration (ramp only)
  std::size_t iterations = 0;          ///< 0 inherits the experiment config
  double learning_rate = 0.0;          ///< 0 inherits the experiment config

  /// Objective override baked into the recipe ("" defers to the experiment
  /// config; "fwd_transmission" is the '-eff' variant). Ratio objectives only.
  std::string objective_override;

  /// Compact provenance string ("density+mfs|corners:adaptive|relax:linear|
  /// reshape:dense|init:gray|corr:all_corners") recorded in results.jsonl and
  /// the campaign report legend.
  std::string signature() const;
};

bool operator==(const method_recipe& a, const method_recipe& b);
inline bool operator!=(const method_recipe& a, const method_recipe& b) { return !(a == b); }

// ---------------------------------------------------------------- policies --
//
// Every policy family is a fixed, closed set of keys (docs/METHODS.md lists
// each key and what it runs), so a key means the same thing in every
// process. `validate_recipe` rejects unknown keys; the lookups below resolve
// the two families that carry data and throw the same error on an unknown
// key. The others resolve by key comparison where they are used
// (`resolved_run_options`, `make_problem`, `initial_theta` in methods.h).

/// What a `corners` key runs: fabrication-aware corner sampling (the BOSON-1
/// family), the geometry-corner prior art, or nothing.
struct corner_policy {
  bool fab_aware = false;  ///< litho+etch simulated inside the loop
  robust::sampling_strategy sampling = robust::sampling_strategy::nominal_only;
  bool erosion_dilation = false;  ///< geometry corners (never with fab_aware)
};

/// Resolve a `corners` key.
corner_policy corners_policy(const std::string& key);

/// Lithography corners a `mask_correction` key matches in the InvFabCor-style
/// second stage: 0 ("none"), 1 ("nominal") or 3 ("all_corners").
std::size_t mask_correction_corners(const std::string& key);

/// Check every policy key against its family's keys and every numeric field
/// against its range; throws `bad_argument` with the precise
/// offending field (policy lookups include the did-you-mean suggestion).
void validate_recipe(const method_recipe& recipe);

}  // namespace boson::core
