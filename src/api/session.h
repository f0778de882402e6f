/// \file session.h
/// The execution façade of the declarative API: a `session` validates an
/// `experiment_spec`, resolves its device/method/objective names, runs the
/// optimization + evaluation plan (single spec or a batch sharing the
/// process-global worker pool), streams progress through an
/// `observer`, and writes a structured artifact directory per experiment
/// (summary JSON, trajectory CSV, mask PGM, plus spectrum / process-window
/// CSVs when those steps are planned).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/observer.h"
#include "api/spec.h"
#include "core/design_problem.h"
#include "core/evaluate.h"
#include "core/methods.h"

namespace boson::api {

struct session_options {
  /// Artifact root; each experiment writes into `<output_dir>/<name>/`.
  std::string output_dir = "boson_out";

  /// Skip all file output (results are still returned in memory).
  bool write_artifacts = true;

  /// Progress receiver (not owned). nullptr falls back to a `log_observer`.
  observer* watcher = nullptr;
};

/// Per-run durability control (the campaign runtime's hook into a session):
/// forwarded to `core::method_hooks`, so the optimization loop emits
/// resumable snapshots and/or restores one before the first iteration.
struct run_control {
  /// Emit a checkpoint every K optimizer iterations (0 disables).
  std::size_t checkpoint_every = 0;

  /// Checkpoint consumer; invoked from the thread driving this run.
  core::checkpoint_callback on_checkpoint;

  /// Snapshot to resume from (captured by an identical spec), or nullptr.
  std::shared_ptr<const core::run_checkpoint> resume;
};

/// Everything one executed experiment produced.
struct experiment_result {
  experiment_spec spec;        ///< normalized spec echo
  core::method_result method;  ///< optimize + prefab metrics (+ MC when planned)
  std::vector<core::spectrum_point> spectrum;      ///< wavelength_sweep output
  std::vector<core::process_window_point> window;  ///< process_window output
  double seconds = 0.0;        ///< wall-clock time of this experiment
  std::string artifact_dir;    ///< empty when artifact writing is disabled
};

/// Validates, executes, observes, and archives experiments.
class session {
 public:
  explicit session(session_options options = {});

  /// Validate and execute one spec end to end. The `control` overload wires
  /// checkpoint emission / resume into the optimization loop.
  experiment_result run(const experiment_spec& spec);
  experiment_result run(const experiment_spec& spec, const run_control& control);

  /// Execute a batch sequentially (each spec's corners/samples already
  /// saturate the worker pool). Every spec goes through the same execution
  /// path as `run`. The batch summary JSON written next to the
  /// per-experiment directories reports the aggregate: per-experiment rows
  /// plus batch wall-clock and summed experiment seconds.
  std::vector<experiment_result> run_all(const std::vector<experiment_spec>& specs);

  /// The `experiment_config` a spec resolves to: the spec's fields, exactly
  /// as written.
  static core::experiment_config config_for(const experiment_spec& spec);

  /// Build the design problem a spec describes — named device,
  /// method-matched parameterization, fabrication models — for downstream
  /// studies that evaluate patterns directly (e.g. per-axis variation
  /// scans).
  static core::design_problem problem_for(const experiment_spec& spec);

 private:
  void emit(const progress_event& event);

  session_options options_;
  log_observer fallback_;
};

/// Export a run trajectory as CSV: iteration, loss, then one column per
/// metric (the Fig. 5 series). Columns follow the first record's metric set.
void write_trajectory_csv(const std::string& path,
                          const std::vector<core::iteration_record>& trajectory);

/// The filesystem-safe directory name a session derives from an experiment's
/// display name. Exposed so layers that place files next to session
/// artifacts (the campaign runtime's checkpoints) resolve the same path.
std::string artifact_name(const std::string& display_name);

}  // namespace boson::api
