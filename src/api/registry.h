/// \file registry.h
/// String-keyed registries for the declarative experiment API: devices,
/// methods, and objectives are named as data (e.g. "bend", "boson_no_relax")
/// so serialized specs can reference any built-in or user-registered
/// scenario. Methods register as `core::method_recipe` values — the global
/// registry is pre-populated with the paper's three benchmark devices, the
/// fifteen preset recipes, and the standard objective overrides. Unknown
/// names throw `bad_argument` listing the known keys plus a did-you-mean
/// suggestion.

#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/methods.h"
#include "devices/builders.h"

namespace boson::api {

/// Factory for a named device scenario at a given grid pitch [um].
using device_factory = std::function<dev::device_spec(double resolution)>;

/// A named objective: the `objective_override` it maps to ("" keeps the
/// device's own objective) and a one-line description for `boson_cli list`.
struct objective_entry {
  std::string override_metric;
  std::string description;
};

/// Thread-safe name -> scenario tables. `global()` is the instance every
/// spec resolves against; tests may build private registries.
class registry {
 public:
  /// Process-wide registry, pre-populated with the built-in scenarios.
  static registry& global();

  /// Empty registry (no built-ins); useful for isolated tests.
  registry() = default;

  // ----------------------------------------------------------- devices ----
  /// Register (or replace) a device factory under `name`.
  void register_device(const std::string& name, device_factory factory,
                       const std::string& description);
  bool has_device(const std::string& name) const;
  /// Build the named device; throws `bad_argument` listing the known names
  /// when `name` is not registered.
  dev::device_spec make_device(const std::string& name, double resolution) const;
  std::vector<std::string> device_names() const;
  std::string device_description(const std::string& name) const;

  // ----------------------------------------------------------- methods ----
  /// Register (or replace) a method recipe under `name`. The recipe is
  /// validated against the policy tables first.
  void register_method(const std::string& name, core::method_recipe recipe);
  bool has_method(const std::string& name) const;
  /// Resolve a method key to its recipe; throws `bad_argument` listing the
  /// known names.
  core::method_recipe method(const std::string& name) const;
  std::vector<std::string> method_names() const;

  // -------------------------------------------------------- objectives ----
  void register_objective(const std::string& name, objective_entry entry);
  bool has_objective(const std::string& name) const;
  /// Resolve an objective key; throws `bad_argument` listing the known names.
  objective_entry objective(const std::string& name) const;
  std::vector<std::string> objective_names() const;

 private:
  struct device_entry {
    device_factory factory;
    std::string description;
  };

  mutable std::mutex mutex_;
  std::map<std::string, device_entry> devices_;
  std::map<std::string, core::method_recipe> methods_;
  std::map<std::string, objective_entry> objectives_;
};

}  // namespace boson::api
