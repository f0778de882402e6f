#include "core/recipe.h"

#include <cstdio>
#include <initializer_list>

#include "common/error.h"
#include "common/text.h"

namespace boson::core {

namespace {

using st = robust::sampling_strategy;

/// The `corners` keys (docs/METHODS.md describes each).
struct corners_row {
  const char* name;
  corner_policy policy;
};
constexpr corners_row kCorners[] = {
    {"none", {false, st::nominal_only, false}},
    {"erosion_dilation", {false, st::nominal_only, true}},
    {"nominal", {true, st::nominal_only, false}},
    {"fixed_axial", {true, st::axial_single, false}},
    {"fixed_axial_double", {true, st::axial_double, false}},
    {"axial_plus_random", {true, st::axial_plus_random, false}},
    {"exhaustive", {true, st::exhaustive, false}},
    {"adaptive", {true, st::axial_plus_worst, false}},
};

/// The `mask_correction` keys: lithography corners matched.
struct mask_correction_row {
  const char* name;
  std::size_t litho_corners;
};
constexpr mask_correction_row kMaskCorrection[] = {
    {"none", 0}, {"nominal", 1}, {"all_corners", 3}};

/// A family without data of its own: `key` must be one of `known`.
void require_key(const char* family, const std::string& key,
                 std::initializer_list<const char*> known) {
  for (const char* k : known)
    if (key == k) return;
  throw_unknown_name(std::string("method_recipe: unknown ") + family + " policy", key,
                     {known.begin(), known.end()});
}

}  // namespace

corner_policy corners_policy(const std::string& key) {
  return find_by_name(kCorners, key, "method_recipe: unknown corners policy").policy;
}

std::size_t mask_correction_corners(const std::string& key) {
  return find_by_name(kMaskCorrection, key, "method_recipe: unknown mask_correction policy")
      .litho_corners;
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
  // the fixed schedule — so the invariant survives default edits.
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
  const auto fail = [](const std::string& message) {
    throw bad_argument("method_recipe: " + message);
  };

  if (recipe.label.empty()) fail("'label' must not be empty");
  const corner_policy cp = corners_policy(recipe.corners);
  require_key("parameterization", recipe.parameterization, {"levelset", "density"});
  require_key("relaxation", recipe.relaxation, {"none", "linear"});
  require_key("reshaping", recipe.reshaping, {"none", "dense"});
  require_key("initialization", recipe.initialization,
              {"default", "concentrated", "gray", "random"});
  (void)mask_correction_corners(recipe.mask_correction);
  require_key("beta_schedule", recipe.beta_schedule, {"ramp", "fixed"});

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
