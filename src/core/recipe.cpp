#include "core/recipe.h"

#include <algorithm>
#include <cstdio>

#include "core/methods.h"
#include "devices/builders.h"
#include "param/density.h"
#include "param/levelset.h"

namespace boson::core {

namespace {

/// The ~80 nm MFS blur radius of the '-M' density baseline, in design cells.
double auto_mfs_cells(const experiment_config& cfg) { return 0.08 / cfg.resolution; }

void register_builtins(recipe_policies& p) {
  p.parameterization.add(
      "levelset",
      {[](const dev::device_spec& spec, const method_recipe&, const experiment_config&)
           -> std::shared_ptr<param::parameterization> {
         // Knot pitch ~3 design cells (150 nm at the default pitch): coarse
         // enough to act as a feature-size prior, fine enough for the
         // benchmark topologies.
         const std::size_t kx = std::max<std::size_t>(4, spec.design.nx / 3 + 1);
         const std::size_t ky = std::max<std::size_t>(4, spec.design.ny / 3 + 1);
         return std::make_shared<param::levelset_param>(kx, ky, spec.design.nx,
                                                        spec.design.ny);
       },
       "B-spline level set, knot pitch ~3 cells (the paper's default)"});
  p.parameterization.add(
      "density",
      {[](const dev::device_spec& spec, const method_recipe& recipe,
          const experiment_config& cfg) -> std::shared_ptr<param::parameterization> {
         const double blur = recipe.density_blur_mfs ? auto_mfs_cells(cfg)
                                                     : recipe.density_blur_cells;
         return std::make_shared<param::density_param>(spec.design.nx, spec.design.ny,
                                                       blur);
       },
       "per-pixel density variables (density_blur selects built-in MFS blur)"});

  p.corners.add("none", {false, robust::sampling_strategy::nominal_only, false,
                         "no variation awareness (nominal design only)"});
  p.corners.add("erosion_dilation",
                {false, robust::sampling_strategy::nominal_only, true,
                 "geometry corners: co-optimize uniformly eroded/dilated variants"});
  p.corners.add("nominal", {true, robust::sampling_strategy::nominal_only, false,
                            "fabrication model in the loop, nominal corner only"});
  p.corners.add("fixed_axial", {true, robust::sampling_strategy::axial_single, false,
                                "fixed one-sided axial corners: O(N) per iteration"});
  p.corners.add("fixed_axial_double",
                {true, robust::sampling_strategy::axial_double, false,
                 "fixed double-sided axial corners: O(2N) per iteration"});
  p.corners.add("axial_plus_random",
                {true, robust::sampling_strategy::axial_plus_random, false,
                 "axial corners plus random draws (cost-matched control)"});
  p.corners.add("exhaustive", {true, robust::sampling_strategy::exhaustive, false,
                               "exhaustive corner sweep (prior art / ablation)"});
  p.corners.add("adaptive",
                {true, robust::sampling_strategy::axial_plus_worst, false,
                 "BOSON-1 adaptive variation-aware: axial + one-step ascent worst case"});

  p.relaxation.add("none", {[](const experiment_config&) -> std::size_t { return 0; },
                            "optimize purely in the fabricable subspace"});
  p.relaxation.add(
      "linear",
      {[](const experiment_config& cfg) { return cfg.relax_epochs; },
       "fabrication-aware weight ramps 0 -> 1 over the config's relax epochs"});

  p.reshaping.add("none", {false, "sparse objective (transmission terms only)"});
  p.reshaping.add("dense",
                  {true, "landscape reshaping via auxiliary dense penalties"});

  p.initialization.add(
      "default",
      {[](const design_problem& problem, const method_recipe& recipe, std::uint64_t) {
         // Density-based topology optimization conventionally starts from a
         // uniform gray design; everything else uses the light-concentrated
         // heuristic.
         return recipe.parameterization == "density" ? gray_init(problem)
                                                     : concentrated_init(problem);
       },
       "light-concentrated for level-set recipes, uniform gray for density"});
  p.initialization.add(
      "concentrated",
      {[](const design_problem& problem, const method_recipe&, std::uint64_t) {
         return concentrated_init(problem);
       },
       "light-concentrated device heuristic"});
  p.initialization.add("gray",
                       {[](const design_problem& problem, const method_recipe&,
                           std::uint64_t) { return gray_init(problem); },
                        "uniform gray start (conventional topology optimization)"});
  p.initialization.add(
      "random",
      {[](const design_problem& problem, const method_recipe&, std::uint64_t seed) {
         return random_init(problem, seed);
       },
       "uniform random latent variables (the Table II init ablation)"});

  p.mask_correction.add("none", {0, "hand the binarized design straight to fab"});
  p.mask_correction.add(
      "nominal", {1, "two-stage InvFabCor flow matching the nominal litho corner"});
  p.mask_correction.add(
      "all_corners", {3, "two-stage InvFabCor flow matching all three litho corners"});

  p.beta_schedule.add("ramp", {true, "projection sharpness ramps beta_start -> beta_end"});
  p.beta_schedule.add(
      "fixed", {false, "projection sharpness held at beta_start (classical density flow)"});
}

}  // namespace

recipe_policies& recipe_policies::global() {
  static recipe_policies* instance = [] {
    auto* p = new recipe_policies();
    register_builtins(*p);
    return p;
  }();
  return *instance;
}

namespace {

/// Shortest %g form of a double, for signature strings ("0.01", "1.5").
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

std::string method_recipe::signature() const {
  // Every field that changes what runs must land here — two recipes with
  // different behavior must never share a signature (it is the provenance
  // key in results.jsonl and the campaign report legend).
  // Numeric fields compare against the struct defaults (not literals), and
  // the beta endpoints are emitted for *any* non-default pair — also under
  // user-registered schedules — so the invariant survives default edits and
  // policy registrations.
  const method_recipe defaults;
  std::string out = parameterization;
  if (density_blur_mfs) out += "+mfs";
  else if (density_blur_cells > 0.0) out += "+blur:" + compact(density_blur_cells);
  if (mfs_blur) out += "+M";
  out += "|corners:" + corners;
  if (ed_radius_cells != defaults.ed_radius_cells) out += ":r" + compact(ed_radius_cells);
  out += "|relax:" + relaxation;
  out += "|reshape:" + reshaping;
  if (tv_weight > 0.0) out += "|tv:" + compact(tv_weight);
  out += "|init:" + initialization;
  if (mask_correction != "none") out += "|corr:" + mask_correction;
  if (beta_schedule != defaults.beta_schedule) out += "|beta:" + beta_schedule;
  if (beta_start != defaults.beta_start || beta_end != defaults.beta_end)
    out += "|beta_range:" + compact(beta_start) + ".." + compact(beta_end);
  if (iterations > 0) out += "|iters:" + std::to_string(iterations);
  if (learning_rate > 0.0) out += "|lr:" + compact(learning_rate);
  if (!objective_override.empty()) out += "|objective:" + objective_override;
  return out;
}

bool operator==(const method_recipe& a, const method_recipe& b) {
  return a.label == b.label && a.parameterization == b.parameterization &&
         a.density_blur_cells == b.density_blur_cells &&
         a.density_blur_mfs == b.density_blur_mfs && a.mfs_blur == b.mfs_blur &&
         a.corners == b.corners && a.ed_radius_cells == b.ed_radius_cells &&
         a.relaxation == b.relaxation && a.reshaping == b.reshaping &&
         a.tv_weight == b.tv_weight && a.initialization == b.initialization &&
         a.mask_correction == b.mask_correction && a.beta_schedule == b.beta_schedule &&
         a.beta_start == b.beta_start && a.beta_end == b.beta_end &&
         a.iterations == b.iterations && a.learning_rate == b.learning_rate &&
         a.objective_override == b.objective_override;
}

void validate_recipe(const method_recipe& recipe) {
  const recipe_policies& p = recipe_policies::global();
  const auto fail = [](const std::string& message) {
    throw bad_argument("method_recipe: " + message);
  };

  if (recipe.label.empty()) fail("'label' must not be empty");
  const corner_policy cp = p.corners.get(recipe.corners);
  (void)p.parameterization.get(recipe.parameterization);
  (void)p.relaxation.get(recipe.relaxation);
  (void)p.reshaping.get(recipe.reshaping);
  (void)p.initialization.get(recipe.initialization);
  (void)p.mask_correction.get(recipe.mask_correction);
  (void)p.beta_schedule.get(recipe.beta_schedule);

  if (recipe.density_blur_cells < 0.0) fail("'density_blur' must be >= 0 cells");
  if (recipe.density_blur_mfs && recipe.density_blur_cells > 0.0)
    fail("'density_blur' is either \"mfs\" or a cell radius, not both");
  if ((recipe.density_blur_mfs || recipe.density_blur_cells > 0.0) &&
      recipe.parameterization != "density")
    fail("'density_blur' only applies to the density parameterization");
  if (!(recipe.ed_radius_cells > 0.0)) fail("'ed_radius_cells' must be positive");
  if (cp.erosion_dilation && cp.fab_aware)
    fail("corner policy '" + recipe.corners +
         "' combines erosion_dilation with fab_aware (unsupported)");
  if (recipe.tv_weight < 0.0) fail("'tv_weight' must be >= 0");
  if (!(recipe.beta_start > 0.0)) fail("'beta_start' must be positive");
  if (!(recipe.beta_end > 0.0)) fail("'beta_end' must be positive");
  if (recipe.learning_rate < 0.0)
    fail("'learning_rate' must be positive (or 0 to inherit the run settings)");
}

}  // namespace boson::core
