#include "core/methods.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/mask_correction.h"
#include "param/density.h"
#include "param/levelset.h"

namespace boson::core {

// ---------------------------------------------------------------- presets --

const std::vector<method_preset>& method_presets() {
  static const std::vector<method_preset> presets = [] {
    // Every preset starts from the recipe defaults (the plain level-set
    // baseline "LS") and states only what it composes differently.
    const auto preset = [](const char* name, const char* label,
                           void (*compose)(method_recipe&)) {
      method_preset p{name, {}};
      p.recipe.label = label;
      compose(p.recipe);
      return p;
    };
    return std::vector<method_preset>{
        // The classical density flow: per-pixel variables, moderate fixed
        // projection sharpness, final 0.5 thresholding. Without the modern
        // binarization ramp the converged design carries gray/fine structure
        // — the "numerically plausible, non-manufacturable" failure mode.
        preset("density", "Density",
               [](method_recipe& r) {
                 r.parameterization = "density";
                 r.beta_schedule = "fixed";
               }),
        preset("density_m", "Density-M",
               [](method_recipe& r) {
                 r.parameterization = "density";
                 r.density_blur_mfs = true;
                 r.beta_schedule = "fixed";
               }),
        preset("ls", "LS", [](method_recipe&) {}),
        preset("ls_m", "LS-M", [](method_recipe& r) { r.mfs_blur = true; }),
        preset("invfabcor_1", "InvFabCor-1",
               [](method_recipe& r) { r.mask_correction = "nominal"; }),
        preset("invfabcor_3", "InvFabCor-3",
               [](method_recipe& r) { r.mask_correction = "all_corners"; }),
        preset("invfabcor_m_1", "InvFabCor-M-1",
               [](method_recipe& r) {
                 r.mfs_blur = true;
                 r.mask_correction = "nominal";
               }),
        preset("invfabcor_m_3", "InvFabCor-M-3",
               [](method_recipe& r) {
                 r.mfs_blur = true;
                 r.mask_correction = "all_corners";
               }),
        preset("invfabcor_m_3_eff", "InvFabCor-M-3-eff",
               [](method_recipe& r) {
                 r.mfs_blur = true;
                 r.mask_correction = "all_corners";
                 r.objective_override = "fwd_transmission";
               }),
        preset("ls_ed", "LS-ED",
               [](method_recipe& r) {
                 r.mfs_blur = true;  // geometry-corner flows pair with MFS control
                 r.corners = "erosion_dilation";
               }),
        preset("boson", "BOSON-1",
               [](method_recipe& r) {
                 r.corners = "adaptive";
                 r.relaxation = "linear";
                 r.reshaping = "dense";
               }),
        preset("boson_no_reshape", "BOSON-1 (- landscape reshaping)",
               [](method_recipe& r) {
                 r.corners = "adaptive";
                 r.relaxation = "linear";
               }),
        preset("boson_no_relax", "BOSON-1 (- subspace relax)",
               [](method_recipe& r) {
                 r.corners = "adaptive";
                 r.reshaping = "dense";
               }),
        preset("boson_exhaustive", "BOSON-1 (exhaustive sample)",
               [](method_recipe& r) {
                 r.corners = "exhaustive";
                 r.relaxation = "linear";
                 r.reshaping = "dense";
               }),
        preset("boson_random_init", "BOSON-1 (random init)",
               [](method_recipe& r) {
                 r.corners = "adaptive";
                 r.relaxation = "linear";
                 r.reshaping = "dense";
                 r.initialization = "random";
               }),
    };
  }();
  return presets;
}

// --------------------------------------------------------------- problems --

design_problem make_problem(const dev::device_spec& spec, const method_recipe& recipe,
                            const experiment_config& cfg) {
  validate_recipe(recipe);
  std::shared_ptr<param::parameterization> p;
  if (recipe.parameterization == "density") {
    // "mfs" resolves to the ~80 nm MFS blur of the '-M' density baseline.
    const double blur =
        recipe.density_blur_mfs ? 0.08 / cfg.resolution : recipe.density_blur_cells;
    p = std::make_shared<param::density_param>(spec.design.nx, spec.design.ny, blur);
  } else {
    // Knot pitch ~3 design cells (150 nm at the default pitch): coarse enough
    // to act as a feature-size prior, fine enough for the benchmark
    // topologies.
    const std::size_t kx = std::max<std::size_t>(4, spec.design.nx / 3 + 1);
    const std::size_t ky = std::max<std::size_t>(4, spec.design.ny / 3 + 1);
    p = std::make_shared<param::levelset_param>(kx, ky, spec.design.nx, spec.design.ny);
  }
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

dvec initial_theta(const design_problem& problem, const method_recipe& recipe,
                   std::uint64_t seed) {
  const std::string& key = recipe.initialization;
  if (key == "random") return random_init(problem, seed);
  // Density-based topology optimization conventionally starts from a uniform
  // gray design; everything else uses the light-concentrated heuristic.
  if (key == "gray" || (key == "default" && recipe.parameterization == "density"))
    return gray_init(problem);
  return concentrated_init(problem);
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
  validate_recipe(recipe);
  const corner_policy corners = corners_policy(recipe.corners);

  // Recipe-level optimizer overrides replace the config values, exactly as
  // if the config had carried them.
  experiment_config effective = cfg;
  if (recipe.iterations > 0) effective.iterations = recipe.iterations;
  if (recipe.learning_rate > 0.0) effective.learning_rate = recipe.learning_rate;

  run_options ro;
  ro.iterations = effective.iterations;
  ro.learning_rate = effective.learning_rate;
  ro.fab_aware = corners.fab_aware;
  ro.dense_objectives = recipe.reshaping == "dense";
  ro.use_mfs_blur = recipe.mfs_blur;
  ro.relax_epochs = recipe.relaxation == "linear" ? effective.relax_epochs : 0;
  ro.sampling = corners.sampling;
  ro.erosion_dilation = corners.erosion_dilation;
  ro.ed_radius_cells = recipe.ed_radius_cells;
  ro.tv_weight = recipe.tv_weight;
  ro.beta_start = recipe.beta_start;
  ro.beta_end = recipe.beta_schedule == "ramp" ? recipe.beta_end : recipe.beta_start;
  ro.seed = cfg.seed;
  ro.objective_override = recipe.objective_override.empty() ? cfg.objective_override
                                                            : recipe.objective_override;
  ro.record_trajectory = cfg.record_trajectory;
  return ro;
}

method_result run_method(const dev::device_spec& spec, const method_recipe& recipe,
                         const experiment_config& cfg, const method_hooks& hooks) {
  run_options ro = resolved_run_options(recipe, cfg);  // validates the recipe
  require(ro.objective_override.empty() ||
              spec.objective.kind == dev::objective_kind::minimize_ratio,
          "run_method: the objective override only applies to ratio objectives "
          "(the isolator)");

  const std::size_t correction_corners = mask_correction_corners(recipe.mask_correction);
  design_problem problem = make_problem(spec, recipe, cfg);

  ro.on_iteration = hooks.on_iteration;
  ro.checkpoint_every = hooks.checkpoint_every;
  ro.on_checkpoint = hooks.on_checkpoint;
  ro.resume_state = hooks.resume;

  // The init stream is cfg.seed + 1 (the corner-sampling stream owns
  // cfg.seed, the Monte Carlo cfg.seed + 3); deterministic starts ignore it.
  const dvec theta0 = initial_theta(problem, recipe, cfg.seed + 1);

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
    // ro.iterations already carries the recipe-level override, so the
    // correction budget tracks the optimizer budget.
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
    out.postfab = postfab_monte_carlo(problem, out.mask, cfg.mc_samples, cfg.seed + 3);
    log_info("run_method[", spec.name, "]: ", recipe.label, " prefab FoM=",
             out.prefab_fom, " postfab FoM=", out.postfab.fom_mean);
  }
  return out;
}

}  // namespace boson::core
