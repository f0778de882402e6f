#include "api/session.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "api/registry.h"
#include "common/env.h"
#include "common/error.h"
#include "common/timer.h"
#include "io/csv.h"
#include "io/pgm.h"
#include "sim/backend.h"

namespace boson::api {

/// Experiment names become directory names; keep them filesystem-safe. A
/// name that is empty or all dots after sanitizing ("..") would escape the
/// output directory, so it maps to a fixed placeholder instead.
std::string artifact_name(const std::string& display_name) {
  std::string out = display_name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  if (out.find_first_not_of('.') == std::string::npos) return "experiment";
  return out;
}

namespace {

io::json_value stats_json(const core::mc_stats& stats) {
  io::json_value v = io::json_value::object();
  v["samples"] = stats.samples;
  v["fom_mean"] = stats.fom_mean;
  v["fom_std"] = stats.fom_std;
  v["fom_min"] = stats.fom_min;
  v["fom_max"] = stats.fom_max;
  v["metric_means"] = io::json_value::from_map(stats.metric_means);
  return v;
}

}  // namespace

session::session(session_options options) : options_(std::move(options)) {}

void session::emit(const progress_event& event) {
  observer* target = options_.watcher != nullptr ? options_.watcher : &fallback_;
  target->on_event(event);
}

core::experiment_config session::config_for(const experiment_spec& spec) {
  validate(spec);
  core::experiment_config cfg = core::default_config();
  cfg.resolution = spec.resolution;
  cfg.iterations = spec.iterations;
  cfg.relax_epochs = spec.relax_epochs;
  cfg.learning_rate = spec.learning_rate;
  // Like BOSON_BENCH_SCALE, an explicitly-set BOSON_SEED is an operator
  // knob that perturbs committed specs without editing them.
  if (env_string("BOSON_SEED", "").empty()) cfg.seed = spec.seed;
  cfg.litho = spec.litho;
  cfg.eole = spec.eole;
  cfg.record_trajectory = spec.record_trajectory;
  cfg.objective_override =
      registry::global().objective(spec.objective).override_metric;
  if (spec.backend != "default")
    cfg.engine.backend = sim::backend_from_string(spec.backend);
  for (const eval_step& step : spec.evaluation)
    if (step.kind == eval_step::step_kind::postfab_monte_carlo)
      cfg.mc_samples = step.samples;
  return cfg;
}

core::design_problem session::problem_for(const experiment_spec& spec) {
  const core::experiment_config cfg = config_for(spec);
  return core::make_problem(registry::global().make_device(spec.device, spec.resolution),
                            resolved_recipe(spec), cfg);
}

experiment_result session::run(const experiment_spec& spec) { return run(spec, {}); }

experiment_result session::run(const experiment_spec& spec, const run_control& control) {
  const stopwatch sw;

  experiment_result out;
  out.spec = spec;
  out.spec.name = spec.display_name();
  const std::string& label = out.spec.name;

  const core::experiment_config cfg = config_for(out.spec);  // validates
  const core::method_recipe recipe = resolved_recipe(out.spec);
  const dev::device_spec device =
      registry::global().make_device(out.spec.device, out.spec.resolution);

  progress_event started;
  started.kind = progress_event::phase::experiment_started;
  started.experiment = label;
  started.message = label;
  emit(started);

  bool wants_mc = false;
  for (const eval_step& step : out.spec.evaluation)
    wants_mc |= step.kind == eval_step::step_kind::postfab_monte_carlo;

  core::method_hooks hooks;
  hooks.run_postfab_mc = wants_mc;
  hooks.checkpoint_every = control.checkpoint_every;
  hooks.on_checkpoint = control.on_checkpoint;
  hooks.resume = control.resume;
  hooks.on_stage = [&](const std::string& stage) {
    progress_event e;
    e.kind = progress_event::phase::stage_started;
    e.experiment = label;
    e.message = stage;
    emit(e);
  };
  hooks.on_iteration = [&](const core::iteration_record& rec, std::size_t total) {
    progress_event e;
    e.kind = progress_event::phase::iteration_finished;
    e.experiment = label;
    e.iteration = rec.iteration;
    e.total_iterations = total;
    e.loss = rec.loss;
    emit(e);
  };
  out.method = core::run_method(device, recipe, cfg, hooks);

  // The remaining evaluation plan runs on a problem matching the method's
  // parameterization (one extra reference solve; shared by all steps).
  std::optional<core::design_problem> problem;
  const auto ensure_problem = [&]() -> core::design_problem& {
    if (!problem) problem.emplace(problem_for(out.spec));
    return *problem;
  };

  for (const eval_step& step : out.spec.evaluation) {
    switch (step.kind) {
      case eval_step::step_kind::postfab_monte_carlo:
        break;  // already executed inside run_method
      case eval_step::step_kind::wavelength_sweep: {
        hooks.on_stage("wavelength_sweep");
        const auto points =
            core::wavelength_sweep(ensure_problem(), out.method.mask, step.wavelengths_um);
        out.spectrum.insert(out.spectrum.end(), points.begin(), points.end());
        break;
      }
      case eval_step::step_kind::process_window: {
        hooks.on_stage("process_window");
        const auto points = core::litho_process_window(ensure_problem(), out.method.mask,
                                                       step.defocus_um, step.dose);
        out.window.insert(out.window.end(), points.begin(), points.end());
        break;
      }
    }
  }

  out.seconds = sw.seconds();

  if (options_.write_artifacts) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(options_.output_dir) / artifact_name(label);
    fs::create_directories(dir);
    out.artifact_dir = dir.string();

    const auto artifact = [&](const fs::path& path) {
      progress_event e;
      e.kind = progress_event::phase::artifact_written;
      e.experiment = label;
      e.message = path.string();
      emit(e);
    };

    io::json_value summary = io::json_value::object();
    summary["spec"] = out.spec.to_json();
    // Recipe provenance: the fully-resolved recipe this run executed, also
    // when the spec only named a preset — reports and replication need the
    // composition, not just the key.
    summary["resolved_recipe"] = recipe_to_json(recipe);
    summary["recipe_signature"] = recipe.signature();
    io::json_value& res = summary["results"] = io::json_value::object();
    res["prefab_metrics"] = io::json_value::from_map(out.method.prefab);
    res["prefab_fom"] = out.method.prefab_fom;
    res["final_loss"] = out.method.run.final_loss;
    if (out.method.postfab.samples > 0)
      res["postfab_monte_carlo"] = stats_json(out.method.postfab);
    if (!out.spectrum.empty()) {
      io::json_value& arr = res["wavelength_sweep"] = io::json_value::array();
      for (const auto& pt : out.spectrum) {
        io::json_value p = io::json_value::object();
        p["lambda_um"] = pt.lambda_um;
        p["fom"] = pt.fom;
        arr.push_back(std::move(p));
      }
    }
    if (!out.window.empty()) {
      io::json_value& arr = res["process_window"] = io::json_value::array();
      for (const auto& pt : out.window) {
        io::json_value p = io::json_value::object();
        p["defocus_um"] = pt.defocus_um;
        p["dose"] = pt.dose;
        p["fom"] = pt.fom;
        arr.push_back(std::move(p));
      }
    }
    summary["runtime_seconds"] = out.seconds;

    const fs::path summary_path = dir / "summary.json";
    summary.write_file(summary_path.string());
    artifact(summary_path);

    if (!out.method.run.trajectory.empty()) {
      const fs::path traj_path = dir / "trajectory.csv";
      write_trajectory_csv(traj_path.string(), out.method.run.trajectory);
      artifact(traj_path);
    }

    const fs::path mask_path = dir / "mask.pgm";
    io::write_pgm(mask_path.string(), out.method.mask);
    artifact(mask_path);

    if (!out.spectrum.empty()) {
      const fs::path path = dir / "spectrum.csv";
      io::csv_writer csv(path.string(), {"lambda_um", "fom"});
      for (const auto& pt : out.spectrum)
        csv.write_row({io::csv_writer::format(pt.lambda_um), io::csv_writer::format(pt.fom)});
      artifact(path);
    }
    if (!out.window.empty()) {
      const fs::path path = dir / "process_window.csv";
      io::csv_writer csv(path.string(), {"defocus_um", "dose", "fom"});
      for (const auto& pt : out.window)
        csv.write_row({io::csv_writer::format(pt.defocus_um),
                       io::csv_writer::format(pt.dose), io::csv_writer::format(pt.fom)});
      artifact(path);
    }
  }

  progress_event finished;
  finished.kind = progress_event::phase::experiment_finished;
  finished.experiment = label;
  finished.message = label;
  emit(finished);
  return out;
}

std::vector<experiment_result> session::run_all(const std::vector<experiment_spec>& specs) {
  require(!specs.empty(), "session: empty batch");
  for (const experiment_spec& spec : specs) validate(spec);

  // Artifact directories key on the sanitized display name; reject batches
  // whose entries would silently overwrite each other.
  std::map<std::string, std::string> dirs;
  for (const experiment_spec& spec : specs) {
    const std::string name = spec.display_name();
    const auto [it, inserted] = dirs.emplace(artifact_name(name), name);
    require(inserted, "session: batch entries '" + it->second + "' and '" + name +
                          "' resolve to the same artifact directory '" + it->first +
                          "' — give them distinct names");
  }

  const stopwatch batch_sw;

  std::vector<experiment_result> results;
  results.reserve(specs.size());
  for (const experiment_spec& spec : specs) results.push_back(run(spec));

  if (options_.write_artifacts) {
    namespace fs = std::filesystem;
    fs::create_directories(options_.output_dir);
    io::json_value batch = io::json_value::object();
    io::json_value& experiments = batch["experiments"] = io::json_value::array();
    double total_seconds = 0.0;
    for (const experiment_result& r : results) {
      io::json_value e = io::json_value::object();
      e["name"] = r.spec.name;
      e["device"] = r.spec.device;
      e["method"] = r.spec.method;
      e["prefab_fom"] = r.method.prefab_fom;
      if (r.method.postfab.samples > 0) e["postfab_fom_mean"] = r.method.postfab.fom_mean;
      e["seconds"] = r.seconds;
      e["artifact_dir"] = r.artifact_dir;
      experiments.push_back(std::move(e));
      total_seconds += r.seconds;
    }
    batch["total_seconds"] = total_seconds;
    batch["wall_seconds"] = batch_sw.seconds();
    const fs::path path = fs::path(options_.output_dir) / "batch_summary.json";
    batch.write_file(path.string());
    progress_event e;
    e.kind = progress_event::phase::artifact_written;
    e.experiment = "batch";
    e.message = path.string();
    emit(e);
  }
  return results;
}

void write_trajectory_csv(const std::string& path,
                          const std::vector<core::iteration_record>& trajectory) {
  require(!trajectory.empty(), "write_trajectory_csv: empty trajectory");
  std::vector<std::string> header{"iteration", "loss"};
  for (const auto& [metric, value] : trajectory.front().metrics) header.push_back(metric);

  io::csv_writer csv(path, header);
  for (const core::iteration_record& rec : trajectory) {
    std::vector<std::string> cells;
    cells.reserve(header.size());
    cells.push_back(std::to_string(rec.iteration));
    cells.push_back(io::csv_writer::format(rec.loss));
    for (std::size_t i = 2; i < header.size(); ++i) {
      const auto it = rec.metrics.find(header[i]);
      cells.push_back(it != rec.metrics.end() ? io::csv_writer::format(it->second) : "nan");
    }
    csv.write_row(cells);
  }
}

}  // namespace boson::api
