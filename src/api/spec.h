/// \file spec.h
/// The declarative experiment description: an `experiment_spec` names a
/// device and a method from the registries, carries the optimization /
/// fabrication-model overrides, and lists an evaluation plan (post-fab Monte
/// Carlo, wavelength sweep, lithography process window). Specs round-trip
/// through JSON (`to_json` / `from_json`) with strict validation — unknown
/// devices/methods/keys and out-of-range values produce precise errors — so
/// whole experiment matrices can be stored, diffed, and batch-executed as
/// data.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/recipe.h"
#include "fab/eole.h"
#include "fab/litho.h"
#include "io/json.h"

namespace boson::api {

/// One step of an experiment's evaluation plan.
struct eval_step {
  enum class step_kind {
    postfab_monte_carlo,  ///< Section IV-B protocol: random fab corners
    wavelength_sweep,     ///< spectral response at the nominal corner
    process_window,       ///< (defocus, dose) lithography scan
  };

  step_kind kind = step_kind::postfab_monte_carlo;

  std::size_t samples = 20;  ///< postfab_monte_carlo draws
  dvec wavelengths_um;       ///< wavelength_sweep operating points
  dvec defocus_um;           ///< process_window focus-error axis
  dvec dose;                 ///< process_window dose axis

  static eval_step monte_carlo(std::size_t samples);
  static eval_step sweep(dvec wavelengths_um);
  static eval_step window(dvec defocus_um, dvec dose);
};

const char* to_string(eval_step::step_kind kind);

/// Declarative description of one experiment: which device, which method,
/// how to run the optimization, and how to evaluate the result. Field
/// defaults match `core::experiment_config`; `BOSON_BENCH_SCALE` still
/// scales iteration/sample counts at execution time.
struct experiment_spec {
  std::string name;                ///< artifact label; "<device>_<method>" when empty
  std::string device = "bend";     ///< device-registry key
  std::string method = "boson";    ///< method-registry key (a plain label when
                                   ///< an inline `recipe` is set)
  std::string objective = "device_default";  ///< objective-registry key
  double resolution = 0.05;        ///< grid pitch [um]

  /// Inline method recipe. When set it wins over the `method` registry key
  /// (`method` then only labels the experiment), so a spec can describe a
  /// never-registered hybrid purely as data — the JSON form is the spec's
  /// `"recipe": {...}` object.
  std::optional<core::method_recipe> recipe;

  // Optimization-run settings.
  std::size_t iterations = 50;
  std::size_t relax_epochs = 20;
  double learning_rate = 0.05;
  std::uint64_t seed = 7;
  std::string backend = "default";  ///< "default" follows BOSON_BACKEND, else
                                    ///< "banded" | "bicgstab" | "gmres"
  bool record_trajectory = true;

  // Fabrication-model settings (the JSON schema exposes the knobs coarse
  // smoke configurations need; the remaining fields keep their defaults).
  fab::litho_settings litho;
  fab::eole_settings eole;

  /// Evaluation plan executed after the optimization, in order.
  std::vector<eval_step> evaluation{eval_step::monte_carlo(20)};

  /// `name`, or the derived "<device>_<method>" label when unset.
  std::string display_name() const;

  /// Serialize to the canonical JSON form (all fields explicit, the
  /// display name resolved).
  io::json_value to_json() const;

  /// Parse and validate a spec. Throws `bad_argument` naming the offending
  /// key/value ("experiment_spec: unknown key 'foo' in run", unknown device
  /// listing the registered names, out-of-range values, wrong JSON types).
  static experiment_spec from_json(const io::json_value& v);
};

/// Registry and range validation shared by `from_json` and the session
/// (programmatically-built specs get the same precise errors).
void validate(const experiment_spec& spec);

/// The method recipe a spec executes: the inline `recipe` when present,
/// otherwise the registry entry `method` names. Does not validate ranges.
core::method_recipe resolved_recipe(const experiment_spec& spec);

/// Serialize a recipe to its canonical JSON form (all policy fields
/// explicit; `density_blur` is "mfs" or the cell radius).
io::json_value recipe_to_json(const core::method_recipe& recipe);

/// Parse and validate a recipe object. Throws `bad_argument` naming the
/// offending key/value under `path` (e.g. "recipe.corners"); policy-key
/// errors carry a did-you-mean suggestion.
core::method_recipe recipe_from_json(const io::json_value& v,
                                     const std::string& path = "recipe");

/// Load one spec (JSON object) or a batch (JSON array of objects) from a
/// file.
std::vector<experiment_spec> load_specs(const std::string& path);

}  // namespace boson::api
