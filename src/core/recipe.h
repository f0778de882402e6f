/// \file recipe.h
/// The composable method layer: a `method_recipe` is a first-class value
/// describing one design methodology as a composition of orthogonal,
/// string-keyed policies — parameterization, variation-corner strategy,
/// subspace-relaxation schedule, loss-landscape reshaping, initialization,
/// mask-correction stage, projection schedule, and optimizer overrides. The
/// fifteen paper methods are presets expressed as recipes (see
/// `core::method_presets` in methods.h); never-compiled hybrids are just new
/// recipe values, built in C++ or parsed from a spec's `"recipe"` object.
/// Every policy family is independently registrable through
/// `recipe_policies::global()`, so user code can add e.g. a new corner
/// strategy and reference it from JSON without touching this module.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/text.h"
#include "common/types.h"
#include "robust/sampler.h"

namespace boson::dev {
struct device_spec;
}  // namespace boson::dev

namespace boson::param {
class parameterization;
}  // namespace boson::param

namespace boson::core {

struct experiment_config;  // methods.h
class design_problem;      // design_problem.h

/// One design methodology as data. String fields name policies resolved
/// against `recipe_policies::global()` at run time; numeric fields tune the
/// selected policies. Field defaults describe the plain level-set baseline
/// ("LS"), so a recipe only states what it composes differently.
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

/// How variation corners enter the optimization loop: fabrication-aware
/// corner sampling (the BOSON-1 family), the geometry-corner prior art, or
/// nothing.
struct corner_policy {
  bool fab_aware = false;  ///< litho+etch simulated inside the loop
  robust::sampling_strategy sampling = robust::sampling_strategy::nominal_only;
  bool erosion_dilation = false;  ///< geometry corners (requires !fab_aware)
  std::string description;
};

/// Conditional subspace relaxation: how many warmup iterations blend in the
/// relaxed (ideal) gradient, as a function of the experiment config.
struct relaxation_policy {
  std::function<std::size_t(const experiment_config&)> epochs;
  std::string description;
};

/// Loss-landscape reshaping via auxiliary dense objectives.
struct reshaping_policy {
  bool dense_objectives = false;
  std::string description;
};

/// Initial latent variables. `seed` is the init stream (`cfg.seed + 1`, the
/// historical convention); deterministic policies ignore it.
struct initialization_policy {
  std::function<dvec(const design_problem&, const method_recipe&, std::uint64_t seed)> make;
  std::string description;
};

/// The InvFabCor-style second stage: how many lithography corners the
/// post-hoc mask optimization matches (0 disables the stage).
struct mask_correction_policy {
  std::size_t litho_corners = 0;
  std::string description;
};

/// Projection-sharpness schedule: ramp beta_start -> beta_end, or hold it
/// fixed at beta_start (the classical density flow).
struct beta_policy {
  bool ramp = true;
  std::string description;
};

/// Latent-variable parameterization factory for a device at a config.
struct parameterization_policy {
  std::function<std::shared_ptr<param::parameterization>(
      const dev::device_spec&, const method_recipe&, const experiment_config&)>
      make;
  std::string description;
};

/// Thread-safe name -> policy table for one recipe axis. Lookups throw
/// `bad_argument` listing the known keys plus a did-you-mean suggestion.
template <typename Policy>
class policy_table {
 public:
  explicit policy_table(std::string family) : family_(std::move(family)) {}

  /// Register (or replace) a policy under `name`.
  void add(const std::string& name, Policy policy) {
    require(!name.empty(), "recipe_policies: " + family_ + " policy name must not be empty");
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[name] = std::move(policy);
  }

  bool has(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) != 0;
  }

  /// Resolve a policy key; throws `bad_argument` naming the family, the
  /// known keys, and the closest match when `name` looks like a typo.
  Policy get(const std::string& name) const {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(name);
      if (it != entries_.end()) return it->second;
    }
    const std::vector<std::string> known = names();
    throw bad_argument("method_recipe: unknown " + family_ + " policy '" + name +
                       "' (known: " + join_names(known) + did_you_mean(name, known) +
                       ")");
  }

  std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, policy] : entries_) out.push_back(name);
    return out;
  }

 private:
  std::string family_;
  mutable std::mutex mutex_;
  std::map<std::string, Policy> entries_;
};

/// The per-axis policy tables a recipe resolves against. `global()` is
/// pre-populated with the built-in policies (listed in docs/METHODS.md);
/// every table accepts user registrations, which JSON recipes can then
/// reference by name without recompiling the dispatch layer.
class recipe_policies {
 public:
  /// Process-wide tables, pre-populated with the built-in policies.
  static recipe_policies& global();

  policy_table<parameterization_policy> parameterization{"parameterization"};
  policy_table<corner_policy> corners{"corners"};
  policy_table<relaxation_policy> relaxation{"relaxation"};
  policy_table<reshaping_policy> reshaping{"reshaping"};
  policy_table<initialization_policy> initialization{"initialization"};
  policy_table<mask_correction_policy> mask_correction{"mask_correction"};
  policy_table<beta_policy> beta_schedule{"beta_schedule"};

 private:
  recipe_policies() = default;
};

/// Check every policy key against `recipe_policies::global()` and every
/// numeric field against its range; throws `bad_argument` with the precise
/// offending field (policy lookups include the did-you-mean suggestion).
void validate_recipe(const method_recipe& recipe);

}  // namespace boson::core
