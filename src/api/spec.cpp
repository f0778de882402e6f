#include "api/spec.h"

#include <cmath>

#include "api/registry.h"
#include "common/error.h"
#include "common/text.h"
#include "sim/backend.h"

namespace boson::api {

eval_step eval_step::monte_carlo(std::size_t samples) {
  eval_step s;
  s.kind = step_kind::postfab_monte_carlo;
  s.samples = samples;
  return s;
}

eval_step eval_step::sweep(dvec wavelengths_um) {
  eval_step s;
  s.kind = step_kind::wavelength_sweep;
  s.wavelengths_um = std::move(wavelengths_um);
  return s;
}

eval_step eval_step::window(dvec defocus_um, dvec dose) {
  eval_step s;
  s.kind = step_kind::process_window;
  s.defocus_um = std::move(defocus_um);
  s.dose = std::move(dose);
  return s;
}

const char* to_string(eval_step::step_kind kind) {
  switch (kind) {
    case eval_step::step_kind::postfab_monte_carlo: return "postfab_monte_carlo";
    case eval_step::step_kind::wavelength_sweep: return "wavelength_sweep";
    case eval_step::step_kind::process_window: return "process_window";
  }
  return "?";
}

std::string experiment_spec::display_name() const {
  return name.empty() ? device + "_" + method : name;
}

// ------------------------------------------------------------- to_json -----

io::json_value experiment_spec::to_json() const {
  io::json_value v = io::json_value::object();
  v["name"] = display_name();
  v["device"] = device;
  v["method"] = method;
  if (recipe) v["recipe"] = recipe_to_json(*recipe);
  v["objective"] = objective;
  v["resolution"] = resolution;

  io::json_value& run = v["run"] = io::json_value::object();
  run["iterations"] = iterations;
  run["relax_epochs"] = relax_epochs;
  run["learning_rate"] = learning_rate;
  run["seed"] = static_cast<double>(seed);
  run["backend"] = backend;
  run["record_trajectory"] = record_trajectory;

  // litho.pixel is intentionally absent: the fabrication context derives the
  // mask pixel pitch from the device grid (i.e. `resolution`).
  io::json_value& li = v["litho"] = io::json_value::object();
  li["wavelength"] = litho.wavelength;
  li["na"] = litho.na;
  li["sigma"] = litho.sigma;
  li["kernel_half"] = litho.kernel_half;
  li["max_kernels"] = litho.max_kernels;
  li["energy_capture"] = litho.energy_capture;
  li["corner_defocus"] = litho.corner_defocus;

  io::json_value& eo = v["eole"] = io::json_value::object();
  eo["anchors_x"] = eole.anchors_x;
  eo["anchors_y"] = eole.anchors_y;
  eo["num_terms"] = eole.num_terms;
  eo["corr_length"] = eole.corr_length;
  eo["sigma"] = eole.sigma;
  eo["eta0"] = eole.eta0;

  io::json_value& plan = v["evaluation"] = io::json_value::array();
  for (const auto& step : evaluation) {
    io::json_value s = io::json_value::object();
    s["type"] = to_string(step.kind);
    switch (step.kind) {
      case eval_step::step_kind::postfab_monte_carlo:
        s["samples"] = step.samples;
        break;
      case eval_step::step_kind::wavelength_sweep: {
        io::json_value& w = s["wavelengths_um"] = io::json_value::array();
        for (const double x : step.wavelengths_um) w.push_back(x);
        break;
      }
      case eval_step::step_kind::process_window: {
        io::json_value& d = s["defocus_um"] = io::json_value::array();
        for (const double x : step.defocus_um) d.push_back(x);
        io::json_value& o = s["dose"] = io::json_value::array();
        for (const double x : step.dose) o.push_back(x);
        break;
      }
    }
    plan.push_back(std::move(s));
  }
  return v;
}

// ----------------------------------------------------------- from_json -----

namespace {

[[noreturn]] void spec_fail(const std::string& message) {
  throw bad_argument("experiment_spec: " + message);
}

double read_number(const io::json_value& v, const std::string& path) {
  if (!v.is_number()) spec_fail("'" + path + "' must be a number, got " + v.kind_name());
  return v.as_number();
}

std::size_t read_count(const io::json_value& v, const std::string& path) {
  const double d = read_number(v, path);
  if (d < 0.0 || d != std::floor(d))
    spec_fail("'" + path + "' must be a non-negative integer, got " +
              io::json_value(d).dump(-1));
  // JSON numbers are doubles: integers above 2^53 would silently round and
  // break seed reproducibility.
  if (d > 9007199254740992.0)
    spec_fail("'" + path + "' exceeds 2^53 (not exactly representable in JSON)");
  return static_cast<std::size_t>(d);
}

bool read_bool(const io::json_value& v, const std::string& path) {
  if (!v.is_bool()) spec_fail("'" + path + "' must be a boolean, got " + v.kind_name());
  return v.as_bool();
}

std::string read_string(const io::json_value& v, const std::string& path) {
  if (!v.is_string()) spec_fail("'" + path + "' must be a string, got " + v.kind_name());
  return v.as_string();
}

dvec read_number_array(const io::json_value& v, const std::string& path) {
  if (!v.is_array()) spec_fail("'" + path + "' must be an array, got " + v.kind_name());
  dvec out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.elements().size(); ++i)
    out.push_back(read_number(v.elements()[i], path + "[" + std::to_string(i) + "]"));
  return out;
}

const io::json_value& expect_object(const io::json_value& v, const std::string& path) {
  if (!v.is_object()) spec_fail("'" + path + "' must be an object, got " + v.kind_name());
  return v;
}

eval_step step_from_json(const io::json_value& v, const std::string& path) {
  expect_object(v, path);
  const io::json_value* type = v.find("type");
  if (type == nullptr) spec_fail("'" + path + "' is missing the 'type' key");
  const std::string type_name = read_string(*type, path + ".type");

  eval_step step;
  if (type_name == "postfab_monte_carlo") {
    step = eval_step::monte_carlo(20);
  } else if (type_name == "wavelength_sweep") {
    step.kind = eval_step::step_kind::wavelength_sweep;
  } else if (type_name == "process_window") {
    step.kind = eval_step::step_kind::process_window;
  } else {
    spec_fail("'" + path + ".type' must be one of postfab_monte_carlo, " +
              "wavelength_sweep, process_window (got '" + type_name + "')");
  }

  for (const auto& [key, value] : v.members()) {
    const std::string key_path = path + "." + key;
    if (key == "type") continue;
    if (step.kind == eval_step::step_kind::postfab_monte_carlo && key == "samples")
      step.samples = read_count(value, key_path);
    else if (step.kind == eval_step::step_kind::wavelength_sweep && key == "wavelengths_um")
      step.wavelengths_um = read_number_array(value, key_path);
    else if (step.kind == eval_step::step_kind::process_window && key == "defocus_um")
      step.defocus_um = read_number_array(value, key_path);
    else if (step.kind == eval_step::step_kind::process_window && key == "dose")
      step.dose = read_number_array(value, key_path);
    else
      spec_fail("unknown key '" + key + "' in " + path + " (a " + type_name + " step)");
  }
  return step;
}

}  // namespace

// -------------------------------------------------------------- recipes ----

io::json_value recipe_to_json(const core::method_recipe& recipe) {
  io::json_value v = io::json_value::object();
  v["label"] = recipe.label;
  v["parameterization"] = recipe.parameterization;
  if (recipe.density_blur_mfs)
    v["density_blur"] = "mfs";
  else
    v["density_blur"] = recipe.density_blur_cells;
  v["mfs_blur"] = recipe.mfs_blur;
  v["corners"] = recipe.corners;
  v["ed_radius_cells"] = recipe.ed_radius_cells;
  v["relaxation"] = recipe.relaxation;
  v["reshaping"] = recipe.reshaping;
  v["tv_weight"] = recipe.tv_weight;
  v["initialization"] = recipe.initialization;
  v["mask_correction"] = recipe.mask_correction;
  v["beta_schedule"] = recipe.beta_schedule;
  v["beta_start"] = recipe.beta_start;
  v["beta_end"] = recipe.beta_end;
  if (recipe.iterations > 0) v["iterations"] = recipe.iterations;
  if (recipe.learning_rate > 0.0) v["learning_rate"] = recipe.learning_rate;
  if (!recipe.objective_override.empty())
    v["objective_override"] = recipe.objective_override;
  return v;
}

namespace {

/// Every key `recipe_from_json` dispatches on, in schema order — the single
/// source for its unknown-key suggestions. A key added to the dispatch chain
/// must be added here (the unit tests exercise suggestions against it).
const std::vector<std::string> kRecipeKeys = {
    "label",          "parameterization", "density_blur",  "mfs_blur",
    "corners",        "ed_radius_cells",  "relaxation",    "reshaping",
    "tv_weight",      "initialization",   "mask_correction", "beta_schedule",
    "beta_start",     "beta_end",         "iterations",    "learning_rate",
    "objective_override"};

}  // namespace

core::method_recipe recipe_from_json(const io::json_value& v, const std::string& path) {
  expect_object(v, path);
  core::method_recipe recipe;
  for (const auto& [key, value] : v.members()) {
    const std::string key_path = path + "." + key;
    if (key == "label") recipe.label = read_string(value, key_path);
    else if (key == "parameterization") recipe.parameterization = read_string(value, key_path);
    else if (key == "density_blur") {
      // "mfs" resolves to the ~80 nm blur radius at run time; a number is a
      // fixed radius in design cells.
      if (value.is_string()) {
        if (value.as_string() != "mfs")
          spec_fail("'" + key_path + "' must be \"mfs\" or a cell radius, got '" +
                    value.as_string() + "'");
        recipe.density_blur_mfs = true;
        recipe.density_blur_cells = 0.0;
      } else {
        recipe.density_blur_mfs = false;
        recipe.density_blur_cells = read_number(value, key_path);
      }
    }
    else if (key == "mfs_blur") recipe.mfs_blur = read_bool(value, key_path);
    else if (key == "corners") recipe.corners = read_string(value, key_path);
    else if (key == "ed_radius_cells") recipe.ed_radius_cells = read_number(value, key_path);
    else if (key == "relaxation") recipe.relaxation = read_string(value, key_path);
    else if (key == "reshaping") recipe.reshaping = read_string(value, key_path);
    else if (key == "tv_weight") recipe.tv_weight = read_number(value, key_path);
    else if (key == "initialization") recipe.initialization = read_string(value, key_path);
    else if (key == "mask_correction") recipe.mask_correction = read_string(value, key_path);
    else if (key == "beta_schedule") recipe.beta_schedule = read_string(value, key_path);
    else if (key == "beta_start") recipe.beta_start = read_number(value, key_path);
    else if (key == "beta_end") recipe.beta_end = read_number(value, key_path);
    else if (key == "iterations") recipe.iterations = read_count(value, key_path);
    else if (key == "learning_rate") recipe.learning_rate = read_number(value, key_path);
    else if (key == "objective_override")
      recipe.objective_override = read_string(value, key_path);
    else
      spec_fail("unknown key '" + key + "' in " + path + did_you_mean(key, kRecipeKeys));
  }
  try {
    core::validate_recipe(recipe);
  } catch (const bad_argument& e) {
    throw bad_argument("experiment_spec: '" + path + "': " + e.what());
  }
  return recipe;
}

core::method_recipe resolved_recipe(const experiment_spec& spec) {
  if (spec.recipe) return *spec.recipe;
  return registry::global().method(spec.method);
}

experiment_spec experiment_spec::from_json(const io::json_value& v) {
  expect_object(v, "spec");
  experiment_spec spec;
  bool saw_method = false;

  for (const auto& [key, value] : v.members()) {
    if (key == "name") spec.name = read_string(value, "name");
    else if (key == "device") spec.device = read_string(value, "device");
    else if (key == "method") {
      spec.method = read_string(value, "method");
      saw_method = true;
    }
    else if (key == "recipe") spec.recipe = recipe_from_json(value, "recipe");
    else if (key == "objective") spec.objective = read_string(value, "objective");
    else if (key == "resolution") spec.resolution = read_number(value, "resolution");
    else if (key == "run") {
      expect_object(value, "run");
      for (const auto& [rk, rv] : value.members()) {
        const std::string path = "run." + rk;
        if (rk == "iterations") spec.iterations = read_count(rv, path);
        else if (rk == "relax_epochs") spec.relax_epochs = read_count(rv, path);
        else if (rk == "learning_rate") spec.learning_rate = read_number(rv, path);
        else if (rk == "seed") spec.seed = static_cast<std::uint64_t>(read_count(rv, path));
        else if (rk == "backend") spec.backend = read_string(rv, path);
        // Retired engine-cache switch: still accepted so older specs parse.
        else if (rk == "use_operator_cache") (void)read_bool(rv, path);
        else if (rk == "record_trajectory") spec.record_trajectory = read_bool(rv, path);
        else spec_fail("unknown key '" + rk + "' in run");
      }
    } else if (key == "litho") {
      expect_object(value, "litho");
      for (const auto& [lk, lv] : value.members()) {
        const std::string path = "litho." + lk;
        if (lk == "wavelength") spec.litho.wavelength = read_number(lv, path);
        else if (lk == "na") spec.litho.na = read_number(lv, path);
        else if (lk == "sigma") spec.litho.sigma = read_number(lv, path);
        else if (lk == "kernel_half") spec.litho.kernel_half = read_count(lv, path);
        else if (lk == "max_kernels") spec.litho.max_kernels = read_count(lv, path);
        else if (lk == "energy_capture") spec.litho.energy_capture = read_number(lv, path);
        else if (lk == "corner_defocus") spec.litho.corner_defocus = read_number(lv, path);
        else spec_fail("unknown key '" + lk + "' in litho");
      }
    } else if (key == "eole") {
      expect_object(value, "eole");
      for (const auto& [ek, ev] : value.members()) {
        const std::string path = "eole." + ek;
        if (ek == "anchors_x") spec.eole.anchors_x = read_count(ev, path);
        else if (ek == "anchors_y") spec.eole.anchors_y = read_count(ev, path);
        else if (ek == "num_terms") spec.eole.num_terms = read_count(ev, path);
        else if (ek == "corr_length") spec.eole.corr_length = read_number(ev, path);
        else if (ek == "sigma") spec.eole.sigma = read_number(ev, path);
        else if (ek == "eta0") spec.eole.eta0 = read_number(ev, path);
        else spec_fail("unknown key '" + ek + "' in eole");
      }
    } else if (key == "evaluation") {
      if (!value.is_array())
        spec_fail("'evaluation' must be an array, got " + std::string(value.kind_name()));
      spec.evaluation.clear();
      for (std::size_t i = 0; i < value.elements().size(); ++i)
        spec.evaluation.push_back(
            step_from_json(value.elements()[i], "evaluation[" + std::to_string(i) + "]"));
    } else {
      spec_fail("unknown key '" + key + "'");
    }
  }

  // An inline recipe without an explicit method key gets a neutral label
  // instead of the registry default ("boson" would misattribute the hybrid).
  if (spec.recipe && !saw_method) spec.method = "custom";

  validate(spec);
  return spec;
}

// ------------------------------------------------------------- validate ----

void validate(const experiment_spec& spec) {
  const registry& reg = registry::global();
  // Unknown names: the registry lookups throw the canonical
  // "unknown X '...' (known: ...; did you mean ...?)" messages. make_device
  // is only reached when the name is absent, so nothing is built here. An
  // inline recipe replaces the method lookup (the policy keys are validated
  // instead; `method` is then only a label).
  if (!reg.has_device(spec.device)) (void)reg.make_device(spec.device, 0.1);
  const core::method_recipe recipe = resolved_recipe(spec);  // throws on unknown method
  core::validate_recipe(recipe);
  (void)reg.objective(spec.objective);

  if (!(spec.resolution > 0.0) || spec.resolution > 1.0)
    spec_fail("'resolution' must be in (0, 1] um, got " +
              io::json_value(spec.resolution).dump(-1));
  if (spec.iterations == 0) spec_fail("'run.iterations' must be at least 1");
  if (spec.seed > (std::uint64_t{1} << 53))
    spec_fail("'run.seed' exceeds 2^53 and would not survive the JSON round-trip");
  if (!(spec.learning_rate > 0.0))
    spec_fail("'run.learning_rate' must be positive, got " +
              io::json_value(spec.learning_rate).dump(-1));
  if (spec.backend != "default") {
    try {
      (void)sim::backend_from_string(spec.backend);
    } catch (const bad_argument&) {
      spec_fail("'run.backend' must be one of default, banded, bicgstab, gmres (got '" +
                spec.backend + "')");
    }
  }

  if (!(spec.litho.wavelength > 0.0)) spec_fail("'litho.wavelength' must be positive");
  if (!(spec.litho.energy_capture > 0.0) || spec.litho.energy_capture > 1.0)
    spec_fail("'litho.energy_capture' must be in (0, 1]");
  if (!(spec.eole.eta0 > 0.0) || !(spec.eole.eta0 < 1.0))
    spec_fail("'eole.eta0' must be in (0, 1)");
  if (!(spec.litho.na > 0.0)) spec_fail("'litho.na' must be positive");
  if (!(spec.litho.sigma > 0.0)) spec_fail("'litho.sigma' must be positive");
  if (spec.litho.kernel_half == 0) spec_fail("'litho.kernel_half' must be at least 1");
  if (spec.litho.max_kernels == 0) spec_fail("'litho.max_kernels' must be at least 1");
  if (spec.litho.corner_defocus < 0.0) spec_fail("'litho.corner_defocus' must be >= 0");
  if (spec.eole.anchors_x < 2 || spec.eole.anchors_y < 2)
    spec_fail("'eole.anchors_x'/'eole.anchors_y' must be at least 2");
  if (spec.eole.num_terms == 0) spec_fail("'eole.num_terms' must be at least 1");
  if (!(spec.eole.corr_length > 0.0)) spec_fail("'eole.corr_length' must be positive");
  if (!(spec.eole.sigma > 0.0)) spec_fail("'eole.sigma' must be positive");

  std::size_t mc_steps = 0;
  for (std::size_t i = 0; i < spec.evaluation.size(); ++i) {
    const eval_step& step = spec.evaluation[i];
    const std::string path = "evaluation[" + std::to_string(i) + "]";
    switch (step.kind) {
      case eval_step::step_kind::postfab_monte_carlo:
        if (step.samples == 0) spec_fail("'" + path + ".samples' must be at least 1");
        if (++mc_steps > 1)
          spec_fail("at most one postfab_monte_carlo step is allowed per spec");
        break;
      case eval_step::step_kind::wavelength_sweep:
        if (step.wavelengths_um.empty())
          spec_fail("'" + path + ".wavelengths_um' must not be empty");
        for (const double w : step.wavelengths_um)
          if (!(w > 0.0))
            spec_fail("'" + path + ".wavelengths_um' entries must be positive, got " +
                      io::json_value(w).dump(-1));
        break;
      case eval_step::step_kind::process_window:
        if (step.defocus_um.empty()) spec_fail("'" + path + ".defocus_um' must not be empty");
        if (step.dose.empty()) spec_fail("'" + path + ".dose' must not be empty");
        for (const double d : step.defocus_um)
          if (d < 0.0) spec_fail("'" + path + ".defocus_um' entries must be >= 0");
        for (const double d : step.dose)
          if (!(d > 0.0)) spec_fail("'" + path + ".dose' entries must be positive");
        break;
    }
  }

  // Objective overrides — whether from the objective registry or baked into
  // the method's recipe (the '-eff' variant) — only apply to ratio
  // objectives; reject the mismatch here so `boson_cli validate` catches it
  // instead of a mid-run throw.
  const std::string effective_override = recipe.objective_override.empty()
                                             ? reg.objective(spec.objective).override_metric
                                             : recipe.objective_override;
  if (!effective_override.empty() &&
      reg.make_device(spec.device, spec.resolution).objective.kind !=
          dev::objective_kind::minimize_ratio)
    spec_fail("method '" + spec.method + "' / objective '" + spec.objective +
              "' need an objective override, which only applies to "
              "ratio-objective devices; '" +
              spec.device + "' uses its own maximize objective");
}

std::vector<experiment_spec> load_specs(const std::string& path) {
  const io::json_value doc = io::json_value::parse_file(path);
  std::vector<experiment_spec> specs;
  if (doc.is_array()) {
    require(!doc.elements().empty(), "experiment_spec: '" + path + "' is an empty batch");
    for (const auto& v : doc.elements()) specs.push_back(experiment_spec::from_json(v));
  } else {
    specs.push_back(experiment_spec::from_json(doc));
  }
  return specs;
}

}  // namespace boson::api
