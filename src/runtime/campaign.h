/// \file campaign.h
/// The campaign layer's declarative input: a `campaign_spec` names a base
/// `experiment_spec` plus axes (devices x methods x seeds x named overrides)
/// and expands into the cross product of jobs with deterministic indices and
/// names — the paper's "15 methods x 3 devices x variation corners" sweeps
/// as one JSON file.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/spec.h"
#include "io/json.h"

namespace boson::runtime {

/// One expanded job: its position in the deterministic expansion order, a
/// unique filesystem-safe name, and the fully-resolved experiment spec.
struct campaign_job {
  std::size_t index = 0;
  std::string name;
  api::experiment_spec spec;
};

/// A named partial-spec patch forming the campaign's fourth axis (variation
/// and lithography override studies). The patch is a JSON object deep-merged
/// over the base spec; only spec-owned sections (run / litho / eole /
/// resolution / objective / evaluation) may appear in it.
struct campaign_override {
  std::string name;      ///< suffixed onto job names; "" for the no-op axis
  io::json_value patch;  ///< JSON object merged over the base spec
};

/// A campaign-local named recipe. `axes.methods` entries resolve against
/// these *before* the method presets, so one campaign.json can sweep hybrid
/// recipes no preset names next to the built-in presets.
struct campaign_recipe {
  std::string name;            ///< the axes.methods key this recipe answers to
  core::method_recipe recipe;  ///< attached to every job the axis entry expands
};

/// Scheduler knobs declared in campaign.json (CLI flags override them).
struct scheduler_settings {
  std::size_t workers = 2;           ///< concurrent jobs
  std::size_t max_retries = 1;       ///< extra attempts after a job failure
  std::size_t checkpoint_every = 0;  ///< optimizer iterations between snapshots
  double lease_ttl = 30.0;           ///< seconds a job lease stays live between heartbeats
};

/// Declarative description of a whole campaign.
struct campaign_spec {
  std::string name = "campaign";
  std::vector<std::string> devices;         ///< device names (required)
  std::vector<std::string> methods;         ///< method names (required)
  std::vector<std::uint64_t> seeds;         ///< defaults to {base.seed}
  std::vector<campaign_override> overrides; ///< defaults to one no-op override
  std::vector<campaign_recipe> recipes;     ///< campaign-local method recipes
  api::experiment_spec base;                ///< template every job starts from
  scheduler_settings scheduler;

  /// Jobs in the deterministic expansion order (device-major, then method,
  /// seed, override). Every job spec is validated (names and ranges);
  /// the first invalid combination throws `bad_argument` naming the job.
  std::vector<campaign_job> expand() const;

  /// devices x methods x seeds x overrides, without building the specs.
  std::size_t job_count() const;

  io::json_value to_json() const;

  /// Strict parse mirroring `experiment_spec::from_json`: unknown keys,
  /// wrong types, empty axes and axis-owned keys inside `base` all produce
  /// precise `bad_argument` messages.
  static campaign_spec from_json(const io::json_value& v);

  /// Parse a campaign.json file.
  static campaign_spec load(const std::string& path);
};

}  // namespace boson::runtime
