/// \file methods.h
/// The method layer: `run_method` drives one `core::method_recipe` end to
/// end (optimize, derive the mask, evaluate pre-fab metrics, post-fab Monte
/// Carlo). The fifteen methodologies compared in the paper's tables (density
/// baselines, LS-ED, InvFabCor two-stage correction, BOSON-1 and its Table
/// II ablations) are built-in *presets* expressed as recipes via
/// `preset_recipe`; the `method_id` enum survives only as a deprecated alias
/// for them. Shared experiment configuration lives in `experiment_config`
/// with BOSON_BENCH_SCALE / BOSON_SEED environment overrides.

#pragma once

#include <cstdint>
#include <string>

#include "core/design_problem.h"
#include "core/evaluate.h"
#include "core/recipe.h"
#include "core/run.h"
#include "devices/builders.h"
#include "fab/eole.h"
#include "fab/litho.h"
#include "robust/corners.h"

namespace boson::core {

/// Deprecated closed enumeration of the paper's methods; kept as an alias
/// layer only — each id resolves to a preset recipe via `preset_recipe`.
/// Naming follows the paper: '-M' adds minimum-feature-size blur, '-#' is
/// the number of lithography corners matched during mask correction, '-eff'
/// switches the isolator objective to plain transmission efficiency. The
/// boson_* variants are the Table II ablations.
enum class method_id {
  density,
  density_m,
  ls,
  ls_m,
  invfabcor_1,
  invfabcor_3,
  invfabcor_m_1,
  invfabcor_m_3,
  invfabcor_m_3_eff,
  ls_ed,               ///< prior-art geometry-corner baseline (erosion/dilation)
  boson,
  boson_no_reshape,    ///< - loss landscape reshaping (sparse objective)
  boson_no_relax,      ///< - conditional subspace relaxation
  boson_exhaustive,    ///< exhaustive corner sweeping instead of adaptive
  boson_random_init,   ///< random instead of light-concentrated init
};

/// The preset recipe a paper method resolves to (label = the paper name).
method_recipe preset_recipe(method_id id);

/// All fifteen preset ids in enum order (the paper's table order).
const std::vector<method_id>& all_method_ids();

std::string method_name(method_id id);

/// Whether the method's recipe uses the level-set parameterization (the
/// density baselines are the only per-pixel methods). Exposed so callers
/// building a `design_problem` to evaluate a finished mask can match the
/// parameterization the method optimized with.
bool method_uses_levelset(method_id id);

/// The objective override baked into the method's recipe ("" for most;
/// "fwd_transmission" for the '-eff' variant). Exposed so spec validation
/// can reject device/method combinations run_method would refuse.
std::string method_objective_override(method_id id);

/// Shared experiment configuration. `scale` (usually BOSON_BENCH_SCALE)
/// multiplies iteration counts and Monte-Carlo samples for quick runs.
struct experiment_config {
  double resolution = 0.05;
  std::size_t iterations = 50;
  std::size_t relax_epochs = 20;
  std::size_t mc_samples = 20;
  double learning_rate = 0.05;
  std::uint64_t seed = 7;
  double scale = 1.0;
  fab::litho_settings litho;
  fab::eole_settings eole;
  robust::variation_space space;

  /// Linear-backend selection for the optimization's FDFD solves (defaults
  /// follow the BOSON_BACKEND environment variable).
  sim::engine_settings engine;

  /// Record the per-iteration trajectory in `run_result` (the Fig. 5
  /// series); observers receive the records either way.
  bool record_trajectory = true;

  /// Objective override applied when the method recipe does not set one
  /// (e.g. "fwd_transmission" turns the isolator contrast objective into
  /// plain transmission efficiency). Only valid for ratio objectives.
  std::string objective_override;

  std::size_t scaled_iterations() const;
  std::size_t scaled_samples() const;
  std::size_t scaled_relax() const;
};

/// Load the default experiment configuration, applying BOSON_BENCH_SCALE and
/// BOSON_SEED from the environment.
experiment_config default_config();

/// Outcome of running one method end to end on one device.
struct method_result {
  std::string method;
  std::map<std::string, double> prefab;  ///< pre-fabrication metrics
  double prefab_fom = 0.0;
  mc_stats postfab;                      ///< post-fabrication Monte Carlo
  run_result run;
  array2d<double> mask;                  ///< binarized mask handed to fab
};

/// Build the design problem for a device/parameterization pair.
/// `use_levelset` selects the paper's default level-set parameterization;
/// density otherwise. `density_blur_cells` configures built-in MFS blur for
/// the density baseline.
design_problem make_problem(const dev::device_spec& spec, bool use_levelset,
                            const experiment_config& cfg, double density_blur_cells = 0.0);

/// Build the design problem a recipe describes: the parameterization policy
/// resolves against `recipe_policies::global()`, the fabrication context
/// comes from the config (the problem every stage of `run_method` shares).
design_problem make_problem(const dev::device_spec& spec, const method_recipe& recipe,
                            const experiment_config& cfg);

/// Initial latent variables: light-concentrated (device heuristic), the
/// conventional uniform-gray start of density-based topology optimization,
/// or random. (These are the built-in initialization policies.)
dvec concentrated_init(const design_problem& problem);
dvec gray_init(const design_problem& problem);
dvec random_init(const design_problem& problem, std::uint64_t seed);

/// The `run_options` a recipe resolves to under a config: every policy
/// looked up, iteration/learning-rate overrides and the objective override
/// merged. Exposed so tests can golden-check preset resolution and
/// `boson_cli describe` can show the effective optimization settings;
/// `run_method` uses exactly this mapping (observer hooks are wired on top).
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

/// Deprecated alias: run a paper preset by enum id (exactly
/// `run_method(spec, preset_recipe(id), cfg, hooks)`).
method_result run_method(const dev::device_spec& spec, method_id id,
                         const experiment_config& cfg,
                         const method_hooks& hooks = {});

/// Binarize a continuous pattern at 0.5 (the mask handed to fabrication).
array2d<double> binarize(const array2d<double>& rho, double threshold = 0.5);

/// Relative improvement of `ours` over `baseline` oriented by the FoM
/// direction (Table I's "avg improvement" definition).
double relative_improvement(double baseline_fom, double our_fom, bool lower_better);

}  // namespace boson::core
