#include "core/methods.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/env.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/mask_correction.h"
#include "param/density.h"
#include "param/levelset.h"

namespace boson::core {

// ---------------------------------------------------------------- presets --

method_recipe preset_recipe(method_id id) {
  method_recipe r;  // defaults describe the plain level-set baseline ("LS")
  switch (id) {
    case method_id::density:
      // The classical density flow: per-pixel variables, moderate fixed
      // projection sharpness, final 0.5 thresholding. Without the modern
      // binarization ramp the converged design carries gray/fine structure —
      // the "numerically plausible, non-manufacturable" failure mode.
      r.label = "Density";
      r.parameterization = "density";
      r.beta_schedule = "fixed";
      break;
    case method_id::density_m:
      r.label = "Density-M";
      r.parameterization = "density";
      r.density_blur_mfs = true;
      r.beta_schedule = "fixed";
      break;
    case method_id::ls:
      r.label = "LS";
      break;
    case method_id::ls_m:
      r.label = "LS-M";
      r.mfs_blur = true;
      break;
    case method_id::invfabcor_1:
      r.label = "InvFabCor-1";
      r.mask_correction = "nominal";
      break;
    case method_id::invfabcor_3:
      r.label = "InvFabCor-3";
      r.mask_correction = "all_corners";
      break;
    case method_id::invfabcor_m_1:
      r.label = "InvFabCor-M-1";
      r.mfs_blur = true;
      r.mask_correction = "nominal";
      break;
    case method_id::invfabcor_m_3:
      r.label = "InvFabCor-M-3";
      r.mfs_blur = true;
      r.mask_correction = "all_corners";
      break;
    case method_id::invfabcor_m_3_eff:
      r.label = "InvFabCor-M-3-eff";
      r.mfs_blur = true;
      r.mask_correction = "all_corners";
      r.objective_override = "fwd_transmission";
      break;
    case method_id::ls_ed:
      r.label = "LS-ED";
      r.mfs_blur = true;  // geometry-corner flows pair with MFS control
      r.corners = "erosion_dilation";
      break;
    case method_id::boson:
      r.label = "BOSON-1";
      r.corners = "adaptive";
      r.relaxation = "linear";
      r.reshaping = "dense";
      break;
    case method_id::boson_no_reshape:
      r.label = "BOSON-1 (- landscape reshaping)";
      r.corners = "adaptive";
      r.relaxation = "linear";
      break;
    case method_id::boson_no_relax:
      r.label = "BOSON-1 (- subspace relax)";
      r.corners = "adaptive";
      r.reshaping = "dense";
      break;
    case method_id::boson_exhaustive:
      r.label = "BOSON-1 (exhaustive sample)";
      r.corners = "exhaustive";
      r.relaxation = "linear";
      r.reshaping = "dense";
      break;
    case method_id::boson_random_init:
      r.label = "BOSON-1 (random init)";
      r.corners = "adaptive";
      r.relaxation = "linear";
      r.reshaping = "dense";
      r.initialization = "random";
      break;
  }
  return r;
}

const std::vector<method_id>& all_method_ids() {
  static const std::vector<method_id> ids = {
      method_id::density,        method_id::density_m,
      method_id::ls,             method_id::ls_m,
      method_id::invfabcor_1,    method_id::invfabcor_3,
      method_id::invfabcor_m_1,  method_id::invfabcor_m_3,
      method_id::invfabcor_m_3_eff, method_id::ls_ed,
      method_id::boson,          method_id::boson_no_reshape,
      method_id::boson_no_relax, method_id::boson_exhaustive,
      method_id::boson_random_init};
  return ids;
}

std::string method_name(method_id id) { return preset_recipe(id).label; }

bool method_uses_levelset(method_id id) {
  return preset_recipe(id).parameterization == "levelset";
}

std::string method_objective_override(method_id id) {
  return preset_recipe(id).objective_override;
}

// ----------------------------------------------------------------- config --

std::size_t experiment_config::scaled_iterations() const {
  return std::max<std::size_t>(4, static_cast<std::size_t>(std::lround(
                                      static_cast<double>(iterations) * scale)));
}

std::size_t experiment_config::scaled_samples() const {
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(
                                      static_cast<double>(mc_samples) * scale)));
}

std::size_t experiment_config::scaled_relax() const {
  return static_cast<std::size_t>(std::lround(static_cast<double>(relax_epochs) * scale));
}

experiment_config default_config() {
  experiment_config cfg;
  cfg.scale = env_double("BOSON_BENCH_SCALE", 1.0);
  cfg.seed = static_cast<std::uint64_t>(env_int("BOSON_SEED", 7));
  return cfg;
}

// --------------------------------------------------------------- problems --

design_problem make_problem(const dev::device_spec& spec, bool use_levelset,
                            const experiment_config& cfg, double density_blur_cells) {
  method_recipe recipe;
  recipe.parameterization = use_levelset ? "levelset" : "density";
  recipe.density_blur_cells = density_blur_cells;
  return make_problem(spec, recipe, cfg);
}

design_problem make_problem(const dev::device_spec& spec, const method_recipe& recipe,
                            const experiment_config& cfg) {
  const parameterization_policy policy =
      recipe_policies::global().parameterization.get(recipe.parameterization);
  // A null std::function would raise std::bad_function_call past the CLI's
  // bad_argument handling; fail with the policy name instead.
  require(policy.make != nullptr, "make_problem: parameterization policy '" +
                                      recipe.parameterization + "' has no factory");
  std::shared_ptr<param::parameterization> p = policy.make(spec, recipe, cfg);
  require(p != nullptr, "make_problem: parameterization policy '" +
                            recipe.parameterization + "' produced a null parameterization");
  fab_context fab = make_fab_context(spec, cfg.litho, cfg.eole, cfg.space);
  return design_problem(std::move(spec), std::move(p), std::move(fab));
}

// ---------------------------------------------------------- initializers --

dvec concentrated_init(const design_problem& problem) {
  const auto& field = problem.spec().init_signed_field;
  const auto* ls = dynamic_cast<const param::levelset_param*>(&problem.parameterization());
  if (ls != nullptr) return ls->fit_from_field(field);
  // Density: push sigmoid(theta) toward the binary target shape.
  dvec theta(field.size());
  for (std::size_t i = 0; i < field.size(); ++i)
    theta[i] = 4.0 * std::clamp(field.data()[i], -1.0, 1.0);
  return theta;
}

dvec gray_init(const design_problem& problem) {
  return dvec(problem.parameterization().num_params(), 0.0);
}

dvec random_init(const design_problem& problem, std::uint64_t seed) {
  rng r(seed);
  dvec theta(problem.parameterization().num_params());
  for (auto& t : theta) t = r.uniform(-0.5, 0.5);
  return theta;
}

array2d<double> binarize(const array2d<double>& rho, double threshold) {
  array2d<double> out(rho.nx(), rho.ny());
  for (std::size_t i = 0; i < rho.size(); ++i)
    out.data()[i] = rho.data()[i] > threshold ? 1.0 : 0.0;
  return out;
}

double relative_improvement(double baseline_fom, double our_fom, bool lower_better) {
  if (lower_better) {
    if (baseline_fom <= 0.0) return 0.0;
    return (baseline_fom - our_fom) / baseline_fom;
  }
  if (our_fom <= 0.0) return 0.0;
  return (our_fom - baseline_fom) / our_fom;
}

// ----------------------------------------------------------------- driver --

run_options resolved_run_options(const method_recipe& recipe,
                                 const experiment_config& cfg) {
  const recipe_policies& policies = recipe_policies::global();
  const corner_policy corners = policies.corners.get(recipe.corners);
  const relaxation_policy relaxation = policies.relaxation.get(recipe.relaxation);
  const reshaping_policy reshaping = policies.reshaping.get(recipe.reshaping);
  const beta_policy beta = policies.beta_schedule.get(recipe.beta_schedule);

  // Recipe-level optimizer overrides replace the config values *before*
  // BOSON_BENCH_SCALE, exactly as if the config had carried them.
  experiment_config effective = cfg;
  if (recipe.iterations > 0) effective.iterations = recipe.iterations;
  if (recipe.learning_rate > 0.0) effective.learning_rate = recipe.learning_rate;

  run_options ro;
  ro.iterations = effective.scaled_iterations();
  ro.learning_rate = effective.learning_rate;
  ro.fab_aware = corners.fab_aware;
  ro.dense_objectives = reshaping.dense_objectives;
  ro.use_mfs_blur = recipe.mfs_blur;
  ro.relax_epochs = relaxation.epochs ? relaxation.epochs(effective) : 0;
  ro.sampling = corners.sampling;
  ro.erosion_dilation = corners.erosion_dilation;
  ro.ed_radius_cells = recipe.ed_radius_cells;
  ro.tv_weight = recipe.tv_weight;
  ro.beta_start = recipe.beta_start;
  ro.beta_end = beta.ramp ? recipe.beta_end : recipe.beta_start;
  ro.seed = cfg.seed;
  ro.objective_override = recipe.objective_override.empty() ? cfg.objective_override
                                                            : recipe.objective_override;
  ro.engine = cfg.engine;
  ro.record_trajectory = cfg.record_trajectory;
  return ro;
}

method_result run_method(const dev::device_spec& spec, const method_recipe& recipe,
                         const experiment_config& cfg, const method_hooks& hooks) {
  validate_recipe(recipe);
  run_options ro = resolved_run_options(recipe, cfg);
  require(ro.objective_override.empty() ||
              spec.objective.kind == dev::objective_kind::minimize_ratio,
          "run_method: the objective override only applies to ratio objectives "
          "(the isolator)");

  const std::size_t correction_corners =
      recipe_policies::global().mask_correction.get(recipe.mask_correction).litho_corners;
  const initialization_policy init =
      recipe_policies::global().initialization.get(recipe.initialization);

  design_problem problem = make_problem(spec, recipe, cfg);

  ro.on_iteration = hooks.on_iteration;
  ro.checkpoint_every = hooks.checkpoint_every;
  ro.on_checkpoint = hooks.on_checkpoint;
  ro.resume_state = hooks.resume;

  // The init stream is cfg.seed + 1 (the corner-sampling stream owns
  // cfg.seed, the Monte Carlo cfg.seed + 3); deterministic policies ignore it.
  require(init.make != nullptr, "run_method: initialization policy '" +
                                    recipe.initialization + "' has no generator");
  const dvec theta0 = init.make(problem, recipe, cfg.seed + 1);

  log_info("run_method[", spec.name, "]: ", recipe.label, " (", ro.iterations,
           " iterations)");
  const auto stage = [&](const char* name) {
    if (hooks.on_stage) hooks.on_stage(name);
  };

  stage("optimize");
  method_result out;
  out.method = recipe.label;
  out.run = run_inverse_design(problem, theta0, ro);

  // The design produced by the optimizer (pre-fab pattern).
  stage("prefab_eval");
  const array2d<double> design_binary = binarize(out.run.design_rho);
  out.prefab = prefab_metrics(problem, design_binary);
  out.prefab_fom = problem.fom_of(out.prefab);

  // The mask handed to fabrication.
  if (correction_corners > 0) {
    stage("mask_correction");
    mask_correction_options mo;
    mo.litho_corners = correction_corners;
    // ro.iterations already carries the recipe-level override + scaling, so
    // the correction budget tracks the optimizer budget.
    mo.iterations = std::max<std::size_t>(20, ro.iterations);
    const mask_correction_result corrected = correct_mask(problem, design_binary, mo);
    log_info("run_method[", spec.name, "]: mask correction mismatch ",
             corrected.initial_mismatch, " -> ", corrected.final_mismatch);
    out.mask = binarize(corrected.mask);
  } else {
    out.mask = design_binary;
  }

  if (hooks.run_postfab_mc) {
    stage("postfab_monte_carlo");
    out.postfab = postfab_monte_carlo(problem, out.mask, cfg.scaled_samples(), cfg.seed + 3);
    log_info("run_method[", spec.name, "]: ", recipe.label, " prefab FoM=",
             out.prefab_fom, " postfab FoM=", out.postfab.fom_mean);
  }
  return out;
}

method_result run_method(const dev::device_spec& spec, method_id id,
                         const experiment_config& cfg, const method_hooks& hooks) {
  return run_method(spec, preset_recipe(id), cfg, hooks);
}

}  // namespace boson::core
