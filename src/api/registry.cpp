#include "api/registry.h"

#include "common/error.h"
#include "common/text.h"

namespace boson::api {

registry& registry::global() {
  static registry* instance = [] {
    auto* r = new registry();

    r->register_device("bend", [](double res) { return dev::make_bend(res); },
                       "90-degree waveguide bend (maximize TM1 transmission)");
    r->register_device("crossing", [](double res) { return dev::make_crossing(res); },
                       "waveguide crossing (maximize transmission, low crosstalk)");
    r->register_device("isolator", [](double res) { return dev::make_isolator(res); },
                       "magneto-optic isolator (minimize isolation contrast)");

    for (const core::method_preset& preset : core::method_presets())
      r->register_method(preset.name, preset.recipe);

    r->register_objective("device_default",
                          {"", "the device's own objective (contrast for the isolator)"});
    r->register_objective(
        "fwd_transmission",
        {"fwd_transmission",
         "plain forward-transmission efficiency ('-eff'; ratio-objective devices only)"});
    return r;
  }();
  return *instance;
}

// -------------------------------------------------------------- devices ----

void registry::register_device(const std::string& name, device_factory factory,
                               const std::string& description) {
  require(!name.empty(), "registry: device name must not be empty");
  require(factory != nullptr, "registry: device factory must not be null");
  const std::lock_guard<std::mutex> lock(mutex_);
  devices_[name] = {std::move(factory), description};
}

bool registry::has_device(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return devices_.count(name) != 0;
}

dev::device_spec registry::make_device(const std::string& name, double resolution) const {
  device_factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = devices_.find(name);
    if (it != devices_.end()) factory = it->second.factory;
  }
  if (factory == nullptr)
    throw bad_argument("registry: unknown device '" + name +
                       "' (known: " + join_names(device_names()) +
                       did_you_mean(name, device_names()) + ")");
  return factory(resolution);
}

std::vector<std::string> registry::device_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(devices_.size());
  for (const auto& [name, entry] : devices_) names.push_back(name);
  return names;
}

std::string registry::device_description(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = devices_.find(name);
  require(it != devices_.end(), "registry: unknown device '" + name + "'");
  return it->second.description;
}

// -------------------------------------------------------------- methods ----

void registry::register_method(const std::string& name, core::method_recipe recipe) {
  require(!name.empty(), "registry: method name must not be empty");
  core::validate_recipe(recipe);
  const std::lock_guard<std::mutex> lock(mutex_);
  methods_[name] = std::move(recipe);
}

bool registry::has_method(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return methods_.count(name) != 0;
}

core::method_recipe registry::method(const std::string& name) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = methods_.find(name);
    if (it != methods_.end()) return it->second;
  }
  throw bad_argument("registry: unknown method '" + name +
                     "' (known: " + join_names(method_names()) +
                     did_you_mean(name, method_names()) + ")");
}

std::vector<std::string> registry::method_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(methods_.size());
  for (const auto& [name, id] : methods_) names.push_back(name);
  return names;
}

// ----------------------------------------------------------- objectives ----

void registry::register_objective(const std::string& name, objective_entry entry) {
  require(!name.empty(), "registry: objective name must not be empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  objectives_[name] = std::move(entry);
}

bool registry::has_objective(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return objectives_.count(name) != 0;
}

objective_entry registry::objective(const std::string& name) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = objectives_.find(name);
    if (it != objectives_.end()) return it->second;
  }
  throw bad_argument("registry: unknown objective '" + name +
                     "' (known: " + join_names(objective_names()) +
                     did_you_mean(name, objective_names()) + ")");
}

std::vector<std::string> registry::objective_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(objectives_.size());
  for (const auto& [name, entry] : objectives_) names.push_back(name);
  return names;
}

}  // namespace boson::api
