#include "runtime/campaign.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "api/session.h"
#include "common/error.h"
#include "common/text.h"

namespace boson::runtime {

namespace {

[[noreturn]] void campaign_fail(const std::string& message) {
  throw bad_argument("campaign_spec: " + message);
}

std::string read_string(const io::json_value& v, const std::string& path) {
  if (!v.is_string())
    campaign_fail("'" + path + "' must be a string, got " + v.kind_name());
  return v.as_string();
}

std::size_t read_count(const io::json_value& v, const std::string& path) {
  if (!v.is_number())
    campaign_fail("'" + path + "' must be a number, got " + v.kind_name());
  const double d = v.as_number();
  if (d < 0.0 || d != std::floor(d))
    campaign_fail("'" + path + "' must be a non-negative integer, got " +
                  io::json_value(d).dump(-1));
  if (d > 9007199254740992.0)
    campaign_fail("'" + path + "' exceeds 2^53 (not exactly representable in JSON)");
  return static_cast<std::size_t>(d);
}

std::vector<std::string> read_string_array(const io::json_value& v, const std::string& path) {
  if (!v.is_array())
    campaign_fail("'" + path + "' must be an array, got " + v.kind_name());
  std::vector<std::string> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.elements().size(); ++i)
    out.push_back(read_string(v.elements()[i], path + "[" + std::to_string(i) + "]"));
  return out;
}

/// Recursive JSON merge: objects merge member-wise, everything else (arrays,
/// scalars) replaces. This is how an override patch lands on the base spec.
void deep_merge(io::json_value& base, const io::json_value& patch) {
  if (!base.is_object() || !patch.is_object()) {
    base = patch;
    return;
  }
  for (const auto& [key, value] : patch.members()) {
    if (base.find(key) != nullptr && base.at(key).is_object() && value.is_object()) {
      deep_merge(base[key], value);
    } else {
      base[key] = value;
    }
  }
}

/// Sections of an experiment spec an override patch may touch. The identity
/// axes (name/device/method) and the seed axis belong to the campaign.
bool patchable_spec_key(const std::string& key) {
  return key == "run" || key == "litho" || key == "eole" || key == "resolution" ||
         key == "objective" || key == "evaluation";
}

}  // namespace

// -------------------------------------------------------------- expansion --

namespace {

std::vector<std::uint64_t> effective_seeds(const campaign_spec& spec) {
  return spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.seed} : spec.seeds;
}

std::vector<campaign_override> effective_overrides(const campaign_spec& spec) {
  if (!spec.overrides.empty()) return spec.overrides;
  return {campaign_override{"", io::json_value()}};
}

}  // namespace

std::size_t campaign_spec::job_count() const {
  return devices.size() * methods.size() * effective_seeds(*this).size() *
         effective_overrides(*this).size();
}

std::vector<campaign_job> campaign_spec::expand() const {
  require(!devices.empty(), "campaign_spec: 'axes.devices' must not be empty");
  require(!methods.empty(), "campaign_spec: 'axes.methods' must not be empty");

  // Resolve the method axis up front: every entry must be a campaign-local
  // recipe or a preset name, and every campaign-local recipe must be swept —
  // a declared-but-unlisted recipe is almost certainly an axis typo, and
  // silently running the campaign without it would be worse than failing.
  const std::vector<std::string> presets = api::method_names();
  for (const std::string& method : methods) {
    const bool is_recipe = std::any_of(recipes.begin(), recipes.end(),
                                       [&](const campaign_recipe& cr) {
                                         return cr.name == method;
                                       });
    if (is_recipe || std::binary_search(presets.begin(), presets.end(), method)) continue;
    std::vector<std::string> known = presets;
    for (const campaign_recipe& cr : recipes) known.push_back(cr.name);
    throw bad_argument("campaign_spec: unknown method '" + method + "' in axes.methods"
                       " (known: " + join_names(known) + did_you_mean(method, known) +
                       ")");
  }
  for (const campaign_recipe& cr : recipes)
    if (std::find(methods.begin(), methods.end(), cr.name) == methods.end())
      throw bad_argument("campaign_spec: recipe '" + cr.name +
                         "' is not listed in axes.methods (declared recipes "
                         "must be swept)");

  const std::vector<std::uint64_t> seed_axis = effective_seeds(*this);
  const std::vector<campaign_override> override_axis = effective_overrides(*this);

  // The method axis owns the recipe; a base- or override-carried recipe
  // would misattribute every job it touches. from_json rejects both forms,
  // so this only guards programmatically-built specs — loudly, not by
  // silently dropping the recipe.
  if (base.recipe)
    throw bad_argument(
        "campaign_spec: 'base' must not carry a recipe; declare it under "
        "'recipes' and list its name in axes.methods");

  // One strict re-parse per override (not per job): the patch merges over the
  // canonical base JSON, so unknown keys and out-of-range values inside a
  // patch get the same precise errors a hand-written spec would.
  std::vector<api::experiment_spec> patched;
  patched.reserve(override_axis.size());
  for (const campaign_override& ov : override_axis) {
    if (ov.patch.is_null() || ov.patch.size() == 0) {
      patched.push_back(base);
      continue;
    }
    io::json_value doc = base.to_json();
    deep_merge(doc, ov.patch);
    try {
      patched.push_back(api::experiment_spec::from_json(doc));
    } catch (const bad_argument& e) {
      throw bad_argument("campaign_spec: override '" + ov.name + "': " + e.what());
    }
    if (patched.back().recipe)
      throw bad_argument("campaign_spec: override '" + ov.name +
                         "' must not patch 'recipe'; the method axis owns recipes");
  }

  std::vector<campaign_job> jobs;
  jobs.reserve(job_count());
  std::map<std::string, bool> names;
  for (const std::string& device : devices) {
    for (const std::string& method : methods) {
      for (const std::uint64_t seed : seed_axis) {
        for (std::size_t oi = 0; oi < override_axis.size(); ++oi) {
          campaign_job job;
          job.index = jobs.size();
          job.name = device + "_" + method + "_s" + std::to_string(seed) +
                     (override_axis[oi].name.empty() ? "" : "_" + override_axis[oi].name);
          job.spec = patched[oi];
          job.spec.name = job.name;
          job.spec.device = device;
          job.spec.method = method;
          // Campaign-local recipes shadow the presets for their axis entry;
          // every other name is a preset (checked above).
          // Unlabeled recipes take the axis name here — not only in
          // from_json — so programmatic campaigns report hybrids by name
          // instead of as "custom".
          for (const campaign_recipe& cr : recipes)
            if (cr.name == method) {
              job.spec.recipe = cr.recipe;
              if (job.spec.recipe->label == core::method_recipe{}.label)
                job.spec.recipe->label = cr.name;
              break;
            }
          job.spec.seed = seed;
          try {
            api::validate(job.spec);
          } catch (const bad_argument& e) {
            throw bad_argument("campaign_spec: job '" + job.name + "': " + e.what());
          }
          // Key uniqueness on the *sanitized* name: jobs share the artifact
          // directory derived by api::artifact_name, and two jobs colliding
          // there would clobber each other's artifacts and checkpoints.
          const auto [it, inserted] = names.emplace(api::artifact_name(job.name), true);
          (void)it;
          require(inserted, "campaign_spec: jobs '" + job.name +
                                "' and another entry resolve to the same artifact "
                                "directory (override names must stay distinct "
                                "after filesystem sanitization)");
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

// ---------------------------------------------------------------- to_json --

io::json_value campaign_spec::to_json() const {
  io::json_value v = io::json_value::object();
  v["name"] = name;

  io::json_value& axes = v["axes"] = io::json_value::object();
  io::json_value& dv = axes["devices"] = io::json_value::array();
  for (const auto& d : devices) dv.push_back(d);
  io::json_value& mv = axes["methods"] = io::json_value::array();
  for (const auto& m : methods) mv.push_back(m);
  io::json_value& sv = axes["seeds"] = io::json_value::array();
  for (const auto s : effective_seeds(*this)) sv.push_back(static_cast<double>(s));

  const std::vector<campaign_override> override_axis = effective_overrides(*this);
  if (override_axis.size() > 1 || !override_axis.front().name.empty()) {
    io::json_value& ov = v["overrides"] = io::json_value::array();
    for (const campaign_override& o : override_axis) {
      io::json_value e = io::json_value::object();
      e["name"] = o.name;
      if (o.patch.is_object())
        for (const auto& [key, value] : o.patch.members()) e[key] = value;
      ov.push_back(std::move(e));
    }
  }

  if (!recipes.empty()) {
    io::json_value& rv = v["recipes"] = io::json_value::array();
    for (const campaign_recipe& r : recipes) {
      io::json_value e = io::json_value::object();
      e["name"] = r.name;
      e["recipe"] = api::recipe_to_json(r.recipe);
      rv.push_back(std::move(e));
    }
  }

  // The base is a template, not an experiment: the identity keys the axes
  // own (and from_json rejects) are stripped from the canonical form.
  const io::json_value base_json = base.to_json();
  io::json_value& b = v["base"] = io::json_value::object();
  for (const auto& [key, value] : base_json.members())
    if (key != "name" && key != "device" && key != "method" && key != "recipe")
      b[key] = value;

  io::json_value& sch = v["scheduler"] = io::json_value::object();
  sch["workers"] = scheduler.workers;
  sch["max_retries"] = scheduler.max_retries;
  sch["checkpoint_every"] = scheduler.checkpoint_every;
  sch["lease_ttl"] = scheduler.lease_ttl;
  return v;
}

// -------------------------------------------------------------- from_json --

campaign_spec campaign_spec::from_json(const io::json_value& v) {
  if (!v.is_object()) campaign_fail("document must be an object, got " + std::string(v.kind_name()));
  campaign_spec spec;
  bool saw_axes = false;

  for (const auto& [key, value] : v.members()) {
    if (key == "name") {
      spec.name = read_string(value, "name");
    } else if (key == "axes") {
      saw_axes = true;
      if (!value.is_object())
        campaign_fail("'axes' must be an object, got " + std::string(value.kind_name()));
      for (const auto& [ak, av] : value.members()) {
        if (ak == "devices") spec.devices = read_string_array(av, "axes.devices");
        else if (ak == "methods") spec.methods = read_string_array(av, "axes.methods");
        else if (ak == "seeds") {
          if (!av.is_array())
            campaign_fail("'axes.seeds' must be an array, got " + std::string(av.kind_name()));
          for (std::size_t i = 0; i < av.elements().size(); ++i)
            spec.seeds.push_back(read_count(av.elements()[i],
                                            "axes.seeds[" + std::to_string(i) + "]"));
        } else {
          campaign_fail("unknown key '" + ak + "' in axes");
        }
      }
    } else if (key == "base") {
      if (!value.is_object())
        campaign_fail("'base' must be an object, got " + std::string(value.kind_name()));
      for (const auto& [bk, bv] : value.members()) {
        (void)bv;
        if (bk == "name" || bk == "device" || bk == "method")
          campaign_fail("'base." + bk + "' is campaign-owned; use the axes instead");
        if (bk == "recipe")
          campaign_fail("'base.recipe' is campaign-owned; declare it under "
                        "'recipes' and list its name in axes.methods");
      }
      try {
        spec.base = api::experiment_spec::from_json(value);
      } catch (const bad_argument& e) {
        throw bad_argument("campaign_spec: base: " + std::string(e.what()));
      }
    } else if (key == "recipes") {
      if (!value.is_array())
        campaign_fail("'recipes' must be an array, got " + std::string(value.kind_name()));
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        const std::string path = "recipes[" + std::to_string(i) + "]";
        const io::json_value& entry = value.elements()[i];
        if (!entry.is_object())
          campaign_fail("'" + path + "' must be an object, got " +
                        std::string(entry.kind_name()));
        campaign_recipe cr;
        bool has_recipe = false;
        for (const auto& [rk, rvalue] : entry.members()) {
          if (rk == "name") {
            cr.name = read_string(rvalue, path + ".name");
          } else if (rk == "recipe") {
            try {
              cr.recipe = api::recipe_from_json(rvalue, path + ".recipe");
            } catch (const bad_argument& e) {
              throw bad_argument("campaign_spec: " + std::string(e.what()));
            }
            has_recipe = true;
          } else {
            campaign_fail("unknown key '" + rk + "' in " + path +
                          " (expected 'name' and 'recipe')");
          }
        }
        if (cr.name.empty()) campaign_fail("'" + path + "' needs a non-empty 'name'");
        if (!has_recipe) campaign_fail("'" + path + "' is missing the 'recipe' object");
        // An unlabeled recipe would report as "custom" in every summary and
        // log line; the axis name is the natural display label.
        if (cr.recipe.label == core::method_recipe{}.label) cr.recipe.label = cr.name;
        spec.recipes.push_back(std::move(cr));
      }
    } else if (key == "overrides") {
      if (!value.is_array())
        campaign_fail("'overrides' must be an array, got " + std::string(value.kind_name()));
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        const std::string path = "overrides[" + std::to_string(i) + "]";
        const io::json_value& entry = value.elements()[i];
        if (!entry.is_object())
          campaign_fail("'" + path + "' must be an object, got " +
                        std::string(entry.kind_name()));
        campaign_override ov;
        ov.patch = io::json_value::object();
        bool has_name = false;
        for (const auto& [ok, ovalue] : entry.members()) {
          if (ok == "name") {
            ov.name = read_string(ovalue, path + ".name");
            has_name = true;
          } else if (patchable_spec_key(ok)) {
            ov.patch[ok] = ovalue;
          } else {
            campaign_fail("unknown key '" + ok + "' in " + path +
                          " (patches may touch run, litho, eole, resolution, "
                          "objective, evaluation)");
          }
        }
        if (!has_name || ov.name.empty())
          campaign_fail("'" + path + "' needs a non-empty 'name'");
        spec.overrides.push_back(std::move(ov));
      }
    } else if (key == "scheduler") {
      if (!value.is_object())
        campaign_fail("'scheduler' must be an object, got " + std::string(value.kind_name()));
      for (const auto& [sk, sv] : value.members()) {
        const std::string path = "scheduler." + sk;
        if (sk == "workers") spec.scheduler.workers = read_count(sv, path);
        else if (sk == "max_retries") spec.scheduler.max_retries = read_count(sv, path);
        else if (sk == "checkpoint_every") spec.scheduler.checkpoint_every = read_count(sv, path);
        else if (sk == "lease_ttl") {
          if (!sv.is_number())
            campaign_fail("'" + path + "' must be a number, got " + std::string(sv.kind_name()));
          spec.scheduler.lease_ttl = sv.as_number();
        }
        else campaign_fail("unknown key '" + sk + "' in scheduler");
      }
      if (spec.scheduler.workers == 0)
        campaign_fail("'scheduler.workers' must be at least 1");
      if (!(spec.scheduler.lease_ttl > 0.0))
        campaign_fail("'scheduler.lease_ttl' must be positive");
    } else {
      campaign_fail("unknown key '" + key + "'");
    }
  }

  if (!saw_axes) campaign_fail("missing the 'axes' object");
  if (spec.devices.empty()) campaign_fail("'axes.devices' must not be empty");
  if (spec.methods.empty()) campaign_fail("'axes.methods' must not be empty");
  {
    std::map<std::string, bool> names;
    for (const campaign_override& ov : spec.overrides)
      if (!names.emplace(ov.name, true).second)
        campaign_fail("duplicate override name '" + ov.name + "'");
  }
  {
    std::map<std::string, bool> names;
    for (const campaign_recipe& cr : spec.recipes)
      if (!names.emplace(cr.name, true).second)
        campaign_fail("duplicate recipe name '" + cr.name + "'");
  }
  return spec;
}

campaign_spec campaign_spec::load(const std::string& path) {
  return from_json(io::json_value::parse_file(path));
}

}  // namespace boson::runtime
