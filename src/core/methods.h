/// \file methods.h
/// The method layer: `run_method` drives one `core::method_recipe` end to
/// end (optimize, derive the mask, evaluate pre-fab metrics, post-fab Monte
/// Carlo). The fifteen methodologies compared in the paper's tables (density
/// baselines, LS-ED, InvFabCor two-stage correction, BOSON-1 and its Table
/// II ablations) are built-in *presets*: one name-keyed table of recipes
/// (`method_presets`), the method names a spec can use. Shared experiment
/// configuration lives in `experiment_config`; it runs exactly as written.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_problem.h"
#include "core/evaluate.h"
#include "core/recipe.h"
#include "core/run.h"
#include "devices/builders.h"
#include "fab/eole.h"
#include "fab/litho.h"
#include "robust/corners.h"

namespace boson::core {

/// A built-in method preset: the method name a spec uses and the recipe it
/// names (the recipe label is the paper name, e.g. "BOSON-1").
struct method_preset {
  std::string name;
  method_recipe recipe;
};

/// The fifteen paper methods in table order. Naming follows the paper: '-M'
/// adds minimum-feature-size blur, '-#' is the number of lithography corners
/// matched during mask correction, '-eff' switches the isolator objective to
/// plain transmission efficiency. LS-ED is the prior-art geometry-corner
/// baseline; the boson_* variants are the Table II ablations.
const std::vector<method_preset>& method_presets();

/// Shared experiment configuration.
struct experiment_config {
  double resolution = 0.05;
  std::size_t iterations = 50;
  std::size_t relax_epochs = 20;
  std::size_t mc_samples = 20;
  double learning_rate = 0.05;
  std::uint64_t seed = 7;
  fab::litho_settings litho;
  fab::eole_settings eole;
  robust::variation_space space;

  /// Record the per-iteration trajectory in `run_result` (the Fig. 5
  /// series); observers receive the records either way.
  bool record_trajectory = true;

  /// Objective override applied when the method recipe does not set one
  /// (e.g. "fwd_transmission" turns the isolator contrast objective into
  /// plain transmission efficiency). Only valid for ratio objectives.
  std::string objective_override;
};

/// Outcome of running one method end to end on one device.
struct method_result {
  std::string method;
  std::map<std::string, double> prefab;  ///< pre-fabrication metrics
  double prefab_fom = 0.0;
  mc_stats postfab;                      ///< post-fabrication Monte Carlo
  run_result run;
  array2d<double> mask;                  ///< binarized mask handed to fab
};

/// Build the design problem a recipe describes: the recipe's
/// parameterization (B-spline level set or per-pixel density) on the
/// device's design window, the fabrication context from the config (the
/// problem every stage of `run_method` shares). Validates the recipe first.
design_problem make_problem(const dev::device_spec& spec, const method_recipe& recipe,
                            const experiment_config& cfg);

/// Initial latent variables: light-concentrated (device heuristic), the
/// conventional uniform-gray start of density-based topology optimization,
/// or random.
dvec concentrated_init(const design_problem& problem);
dvec gray_init(const design_problem& problem);
dvec random_init(const design_problem& problem, std::uint64_t seed);

/// The start a recipe's `initialization` key selects ("default" is gray for
/// density recipes, concentrated otherwise). `seed` feeds "random" only.
/// The recipe must be valid (`run_method` validates it first).
dvec initial_theta(const design_problem& problem, const method_recipe& recipe,
                   std::uint64_t seed);

/// The `run_options` a recipe resolves to under a config: every policy key
/// resolved, iteration/learning-rate overrides and the objective override
/// merged. Validates the recipe first. Exposed so tests can golden-check
/// preset resolution and `boson_cli describe` can show the effective
/// optimization settings; `run_method` uses exactly this mapping (observer
/// hooks are wired on top).
run_options resolved_run_options(const method_recipe& recipe, const experiment_config& cfg);

/// Observer hooks and stage toggles for `run_method`. The callbacks replace
/// printf progress reporting: `on_stage` fires when a pipeline stage starts
/// ("optimize", "mask_correction", "prefab_eval", "postfab_monte_carlo") and
/// `on_iteration` forwards the optimizer's per-iteration record.
struct method_hooks {
  iteration_callback on_iteration;
  std::function<void(const std::string& stage)> on_stage;

  /// Skip the built-in post-fab Monte Carlo (callers with their own
  /// evaluation plan run it separately); `method_result::postfab` is then
  /// left with zero samples.
  bool run_postfab_mc = true;

  /// Durability plumbing (see `run_options`): emit a resumable snapshot every
  /// `checkpoint_every` optimizer iterations, and/or restore one captured by
  /// an identical configuration before the first iteration.
  std::size_t checkpoint_every = 0;
  checkpoint_callback on_checkpoint;
  std::shared_ptr<const run_checkpoint> resume;
};

/// Run one recipe end to end: optimize, derive the mask (through the
/// recipe's mask-correction stage when set), evaluate pre-fab metrics and
/// the post-fab Monte Carlo. Validates the recipe first.
method_result run_method(const dev::device_spec& spec, const method_recipe& recipe,
                         const experiment_config& cfg,
                         const method_hooks& hooks = {});

/// Binarize a continuous pattern at 0.5 (the mask handed to fabrication).
array2d<double> binarize(const array2d<double>& rho, double threshold = 0.5);

/// Relative improvement of `ours` over `baseline` oriented by the FoM
/// direction (Table I's "avg improvement" definition).
double relative_improvement(double baseline_fom, double our_fom, bool lower_better);

}  // namespace boson::core
