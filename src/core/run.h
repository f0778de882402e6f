/// \file run.h
/// The optimization driver: `run_inverse_design` executes the full BOSON-1
/// loop — sample variation corners, evaluate the differentiable
/// fabrication-aware pipeline on each in parallel, average gradients,
/// optionally blend in the relaxed (ideal) gradient during the conditional
/// subspace-relaxation warmup, and take an Adam step on the latent design
/// variables. `run_options` selects between the full BOSON-1 recipe and the
/// ablated/baseline configurations compared in the paper's tables.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/design_problem.h"
#include "optim/optimizer.h"
#include "robust/sampler.h"

namespace boson::core {

/// Nominal-corner metrics per iteration (the series plotted in Fig. 5).
struct iteration_record {
  std::size_t iteration = 0;
  double loss = 0.0;
  std::map<std::string, double> metrics;
};

/// Per-iteration progress callback: the just-finished iteration's record and
/// the total iteration count. Invoked from the driving thread (never from a
/// corner worker), so observers need no synchronization of their own.
using iteration_callback =
    std::function<void(const iteration_record&, std::size_t total_iterations)>;

/// Resumable snapshot of the optimization loop, captured between iterations.
/// Restoring a checkpoint into a freshly-built problem continues the exact
/// trajectory the original run would have produced: the latent variables,
/// Adam moments, RNG stream position, the previous iteration's worst-case
/// ascent directions, and the trajectory recorded so far are all carried.
struct run_checkpoint {
  std::size_t next_iteration = 0;  ///< first iteration still to execute
  std::size_t total_iterations = 0;  ///< run length at capture time (sanity check)
  dvec theta;                      ///< latent variables after `next_iteration` steps
  opt::adam_state optimizer;
  std::string rng_state;           ///< `rng::save_state` of the corner-sampling stream
  bool has_worst = false;          ///< whether `worst` carries ascent directions
  robust::worst_case_info worst;   ///< harvested on the last finished iteration
  std::vector<iteration_record> trajectory;  ///< records up to the checkpoint
  double final_loss = 0.0;
  array2d<double> design_rho;  ///< pattern at `theta` (for preview artifacts; not restored)
};

/// Checkpoint consumer, invoked from the driving thread with a snapshot that
/// is safe to serialize after the callback returns (all fields are copies).
using checkpoint_callback = std::function<void(const run_checkpoint&)>;

/// Configuration of one inverse-design optimization run. The BOSON-1 recipe
/// sets fab_aware + dense_objectives + relaxation + axial_plus_worst; the
/// baselines switch individual ingredients off.
struct run_options {
  std::size_t iterations = 50;
  double learning_rate = 0.05;

  bool fab_aware = true;         ///< subspace optimization (litho+etch in loop)
  bool dense_objectives = true;  ///< landscape reshaping via auxiliary penalties
  bool use_mfs_blur = false;     ///< classical MFS control ('-M')

  /// Conditional subspace relaxation: the fabrication-aware weight p ramps
  /// 0 -> 1 over this many iterations (0 disables the high-dimensional
  /// tunnel and optimizes purely in the fabricable subspace).
  std::size_t relax_epochs = 0;

  robust::sampling_strategy sampling = robust::sampling_strategy::nominal_only;

  /// Prior-art robust baseline (refs [1],[7],[20]): optimize the nominal
  /// pattern together with uniformly eroded/dilated variants instead of the
  /// fabrication model. Requires fab_aware == false.
  bool erosion_dilation = false;
  double ed_radius_cells = 1.2;

  /// Optional total-variation (perimeter) regularization weight — the
  /// classical curvature-penalty heuristic for feature-size control.
  double tv_weight = 0.0;

  /// Projection sharpness schedule for the parameterization.
  double beta_start = 8.0;
  double beta_end = 40.0;

  std::uint64_t seed = 17;
  std::string objective_override;  ///< e.g. "fwd_transmission" for '-eff'
  bool record_trajectory = true;

  /// Empty (see `sim::engine_settings`).
  sim::engine_settings engine;

  /// Observer hook called after every iteration with the nominal-corner
  /// record; replaces ad-hoc printf progress reporting in drivers.
  iteration_callback on_iteration;

  /// Durability hooks (the campaign runtime's crash-recovery path). When
  /// `checkpoint_every > 0`, `on_checkpoint` receives a `run_checkpoint`
  /// after every K-th iteration (except the last, whose result is final).
  std::size_t checkpoint_every = 0;
  checkpoint_callback on_checkpoint;

  /// Resume a previous run from a checkpoint captured with *identical*
  /// options and problem: iterations [0, resume_state->next_iteration) are
  /// skipped and the restored state reproduces the uninterrupted trajectory
  /// bit for bit. The snapshot is only read during the call.
  std::shared_ptr<const run_checkpoint> resume_state;
};

struct run_result {
  dvec theta;
  array2d<double> design_rho;  ///< continuous pattern at the final theta
  std::vector<iteration_record> trajectory;
  double final_loss = 0.0;
};

/// Gradient-based inverse design: per iteration, sample variation corners,
/// evaluate loss+gradient on each concurrently, average, optionally blend in
/// the relaxed (ideal, non-fabricated) gradient, and take an Adam step.
run_result run_inverse_design(design_problem& problem, const dvec& theta0,
                              const run_options& options);

}  // namespace boson::core
