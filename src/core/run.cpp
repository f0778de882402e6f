#include "core/run.h"

#include <algorithm>
#include <optional>

#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"
#include "param/regularizer.h"

namespace boson::core {

run_result run_inverse_design(design_problem& problem, const dvec& theta0,
                              const run_options& options) {
  require(theta0.size() == problem.parameterization().num_params(),
          "run_inverse_design: theta0 size mismatch");
  require(options.iterations > 0, "run_inverse_design: iterations must be positive");

  dvec theta = theta0;
  opt::adam optimizer(options.learning_rate);
  const opt::linear_schedule beta_schedule(
      options.beta_start, options.beta_end, 0,
      std::max<std::size_t>(1, options.iterations * 4 / 5));
  const opt::linear_schedule relax_schedule =
      options.relax_epochs > 0 ? opt::linear_schedule(0.0, 1.0, 0, options.relax_epochs)
                               : opt::linear_schedule(1.0);

  robust::corner_sampler sampler(options.sampling, problem.fab().space);
  rng r(options.seed);
  std::optional<robust::worst_case_info> worst;

  run_result result;
  result.trajectory.reserve(options.record_trajectory ? options.iterations : 0);

  require(!(options.erosion_dilation && options.fab_aware),
          "run_inverse_design: erosion/dilation is a non-fab-aware baseline");

  std::size_t start_iteration = 0;
  if (options.resume_state != nullptr) {
    const run_checkpoint& ck = *options.resume_state;
    require(ck.theta.size() == theta.size(),
            "run_inverse_design: resume checkpoint theta size mismatch");
    require(ck.next_iteration <= options.iterations,
            "run_inverse_design: resume checkpoint is beyond this run's iteration count");
    require(ck.total_iterations == options.iterations,
            "run_inverse_design: resume checkpoint was captured for a different "
            "iteration count (was the spec edited?)");
    theta = ck.theta;
    optimizer.restore(ck.optimizer);
    r.restore_state(ck.rng_state);
    if (ck.has_worst) worst = ck.worst;
    if (options.record_trajectory) result.trajectory = ck.trajectory;
    result.final_loss = ck.final_loss;
    start_iteration = ck.next_iteration;
    log_info("run_inverse_design: resuming at iteration ", start_iteration, "/",
             options.iterations);
  }

  for (std::size_t iter = start_iteration; iter < options.iterations; ++iter) {
    problem.parameterization().set_sharpness(beta_schedule.at(iter));

    // One simulation job per variation corner; the erosion/dilation baseline
    // instead evaluates the nominal pattern plus its morphed variants.
    struct sim_job {
      robust::variation_corner corner;
      int morph = 0;
    };
    std::vector<sim_job> jobs;
    if (options.erosion_dilation) {
      robust::variation_corner nominal;
      nominal.xi.assign(problem.fab().space.eole_terms, 0.0);
      for (const int shift : {0, -1, +1}) jobs.push_back({nominal, shift});
    } else {
      for (auto& corner : sampler.sample(r, worst)) jobs.push_back({std::move(corner), 0});
    }
    std::vector<eval_result> evals(jobs.size());

    const bool wants_worst =
        options.sampling == robust::sampling_strategy::axial_plus_worst && options.fab_aware;

    parallel_for(jobs.size(), [&](std::size_t ci) {
      eval_options o;
      o.fab_aware = options.fab_aware;
      o.dense_objectives = options.dense_objectives;
      o.use_mfs_blur = options.use_mfs_blur;
      o.compute_gradient = true;
      o.objective_override = options.objective_override;
      o.morphology_shift = jobs[ci].morph;
      o.morphology_radius_cells = options.ed_radius_cells;
      // Harvest variation gradients on the nominal corner for the one-step
      // worst-case ascent used next iteration.
      o.want_var_grads = wants_worst && ci == 0;
      evals[ci] = problem.evaluate(theta, jobs[ci].corner, o);
    });

    // Weighted average of corner losses and gradients (the robust objective).
    double weight_sum = 0.0;
    double loss = 0.0;
    dvec grad(theta.size(), 0.0);
    for (std::size_t ci = 0; ci < jobs.size(); ++ci) {
      const double w = jobs[ci].corner.weight;
      weight_sum += w;
      loss += w * evals[ci].loss;
      for (std::size_t p = 0; p < grad.size(); ++p) grad[p] += w * evals[ci].grad[p];
    }
    loss /= weight_sum;
    for (auto& gv : grad) gv /= weight_sum;

    // Optional total-variation (perimeter) regularization on the pattern.
    if (options.tv_weight > 0.0) {
      array2d<double> rho;
      problem.parameterization().forward(theta, rho);
      array2d<double> d_rho(rho.nx(), rho.ny(), 0.0);
      loss += options.tv_weight * param::total_variation(rho, &d_rho);
      for (auto& v : d_rho) v *= options.tv_weight;
      dvec tv_grad(theta.size(), 0.0);
      problem.parameterization().backward(theta, d_rho, tv_grad);
      for (std::size_t p = 0; p < grad.size(); ++p) grad[p] += tv_grad[p];
    }

    // Conditional subspace relaxation (Eq. 3): blend in the ideal
    // (non-fabricated) objective through the high-dimensional tunnel.
    const double p = options.fab_aware ? relax_schedule.at(iter) : 1.0;
    if (p < 1.0) {
      eval_options ideal;
      ideal.fab_aware = false;
      ideal.dense_objectives = options.dense_objectives;
      ideal.use_mfs_blur = options.use_mfs_blur;
      ideal.compute_gradient = true;
      ideal.objective_override = options.objective_override;
      robust::variation_corner nominal;
      nominal.xi.assign(problem.fab().space.eole_terms, 0.0);
      const eval_result ideal_eval = problem.evaluate(theta, nominal, ideal);
      loss = p * loss + (1.0 - p) * ideal_eval.loss;
      for (std::size_t pi = 0; pi < grad.size(); ++pi)
        grad[pi] = p * grad[pi] + (1.0 - p) * ideal_eval.grad[pi];
    }

    if (wants_worst) {
      worst = robust::worst_case_info{evals[0].d_xi, evals[0].d_temperature};
    }

    if (options.record_trajectory || options.on_iteration) {
      iteration_record rec;
      rec.iteration = iter;
      rec.loss = loss;
      rec.metrics = evals[0].metrics;  // nominal-corner metrics (Fig. 5 series)
      if (options.on_iteration) options.on_iteration(rec, options.iterations);
      if (options.record_trajectory) result.trajectory.push_back(std::move(rec));
    }
    result.final_loss = loss;

    optimizer.step(theta, grad);

    // Snapshot *after* the step: the checkpoint restores the state the next
    // iteration would have seen. The final iteration is never checkpointed —
    // its product is the run result itself.
    if (options.checkpoint_every > 0 && options.on_checkpoint &&
        (iter + 1) % options.checkpoint_every == 0 && iter + 1 < options.iterations) {
      run_checkpoint ck;
      ck.next_iteration = iter + 1;
      ck.total_iterations = options.iterations;
      ck.theta = theta;
      ck.optimizer = optimizer.state();
      ck.rng_state = r.save_state();
      ck.has_worst = worst.has_value();
      if (worst) ck.worst = *worst;
      if (options.record_trajectory) ck.trajectory = result.trajectory;
      ck.final_loss = result.final_loss;
      problem.parameterization().forward(theta, ck.design_rho);
      options.on_checkpoint(ck);
    }

    log_debug("iter ", iter, ": loss=", loss, " jobs=", jobs.size());
  }

  result.theta = std::move(theta);
  problem.parameterization().set_sharpness(options.beta_end);
  problem.parameterization().forward(result.theta, result.design_rho);
  return result;
}

}  // namespace boson::core
