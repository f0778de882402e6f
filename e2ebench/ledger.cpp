#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <set>

#include "api/session.h"
#include "common/rng.h"
#include "core/methods.h"
#include "fab/etch.h"
#include "fab/temperature.h"
#include "fdfd/monitor.h"
#include "fdfd/source.h"
#include "modes/slab.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"
#include "robust/sampler.h"
#include "sim/engine.h"
#include "store/segment_log.h"

namespace e2e {

using namespace boson;

namespace {

const char* const kLayerMetrics[] = {
    "sim.prepare_s", "sim.prepare_calls", "sim.factorize_s", "sim.factorize_calls",
    "sim.solve_s", "sim.solve_calls", "sim.cache_hit_ratio", "sim.reuse_hits",
    "sim.refinement_iterations", "sim.reuse_fallbacks",
    "fab.litho_forward_s", "fab.litho_backward_s", "fab.litho_calls", "fab.etch_s",
    "param.forward_s", "param.backward_s", "fdfd.monitor_s", "fdfd.adjoint_grad_s",
    "optim.adam_step_s", "robust.sample_s", "modes.port_mode_s", "modes.port_mode_calls",
    "core.corners_per_iteration", "core.corner_eval_p50_s", "core.result_hashes",
    "common.distinct_threads", "common.cpu_util",
    "runtime.job_run_s", "runtime.lease_s", "runtime.checkpoint_s", "runtime.commit_s",
    "runtime.queue_wait_s", "runtime.retries", "runtime.lease_steals",
    "store.appends", "store.append_s",
    "service.pickup_s", "net.status_server_p50_ms", "net.requests_rejected",
    "trace.coverage", "trace.overhead",
};

/// Wall seconds `fn` takes.
template <class Fn>
double timed(Fn&& fn) {
  const double t0 = monotonic_s();
  fn();
  return monotonic_s() - t0;
}

/// Self time per span: its duration minus the durations of its children.
/// Children share the parent's thread, so they nest inside its interval.
std::map<std::uint64_t, double> self_times(const std::vector<obs::trace_event>& events) {
  std::map<std::uint64_t, double> self;
  for (const auto& e : events) self[e.id] += 1e-6 * static_cast<double>(e.duration_us);
  for (const auto& e : events) {
    const auto parent = self.find(e.parent);
    if (e.parent != 0 && parent != self.end())
      parent->second -= 1e-6 * static_cast<double>(e.duration_us);
  }
  return self;
}

/// The corner's permittivity grid, built the way the pipeline builds it:
/// background occupancy with the realised pattern in the design window.
array2d<double> permittivity(const dev::device_spec& spec, const array2d<double>& rho,
                             double temperature) {
  array2d<double> eps = spec.background_occupancy;
  for (std::size_t i = 0; i < spec.design.nx; ++i)
    for (std::size_t j = 0; j < spec.design.ny; ++j)
      eps(spec.design.ix0 + i, spec.design.iy0 + j) = rho(i, j);
  const double eps_s = fab::eps_si(temperature);
  for (auto& v : eps) v = fab::eps_void + (eps_s - fab::eps_void) * v;
  return eps;
}

dvec port_line(const array2d<double>& eps, const dev::port& p) {
  dvec line(p.span_count);
  for (std::size_t t = 0; t < p.span_count; ++t)
    line[t] = p.axis == fdfd::port_axis::vertical ? eps(p.line, p.span_start + t)
                                                  : eps(p.span_start + t, p.line);
  return line;
}

/// Stage times summed over the replayed evaluations.
struct stage_clock {
  double litho_forward = 0.0, litho_backward = 0.0, etch = 0.0;
  double param_forward = 0.0, param_backward = 0.0;
  double port_modes = 0.0, monitors = 0.0, adjoint_grad = 0.0;
  std::size_t port_mode_calls = 0;
  std::size_t evaluations = 0;
};

/// Replay one fab-aware evaluation stage by stage through the modules'
/// public functions: pattern -> litho -> EOLE/etch -> eps -> port modes ->
/// forward solve -> monitors, then (with `gradient`) adjoint solve ->
/// eps-gradient chain rule -> etch/litho/param backward. Solves are not
/// timed here; the sim spans of the traced run account for them.
void replay_corner(const core::design_problem& problem, const dvec* theta,
                   const array2d<double>* mask, const robust::variation_corner& corner,
                   bool hard_etch, bool gradient, stage_clock& clock) {
  const dev::device_spec& spec = problem.spec();
  const core::fab_context& fab = problem.fab();
  const std::size_t h = fab.halo;
  const auto& g = spec.grid;

  array2d<double> rho;
  if (theta != nullptr)
    clock.param_forward += timed([&] { problem.parameterization().forward(*theta, rho); });
  else
    rho = *mask;

  const fab::hopkins_litho& litho = *fab.litho[static_cast<std::size_t>(corner.litho)];
  fab::litho_forward fwd;
  clock.litho_forward += timed([&] { fwd = litho.forward(problem.embed_in_halo(rho)); });

  const fab::etch_model etch(fab.etch_beta, hard_etch ? fab::etch_mode::hard : fab::etch_mode::ste);
  array2d<double> eta;
  array2d<double> pattern_ext;
  clock.etch += timed([&] {
    dvec xi = corner.xi;
    if (xi.size() != fab.eole->num_terms()) xi.assign(fab.eole->num_terms(), 0.0);
    eta = fab.eole->field(xi, corner.eta_shift);
    pattern_ext = etch.forward(fwd.aerial, eta);
  });
  array2d<double> realised(spec.design.nx, spec.design.ny);
  for (std::size_t i = 0; i < realised.nx(); ++i)
    for (std::size_t j = 0; j < realised.ny(); ++j) realised(i, j) = pattern_ext(h + i, h + j);
  const array2d<double> eps = permittivity(spec, realised, corner.temperature);

  const auto mode_at = [&](const dev::port& p, double spacing, int order) {
    modes::slab_mode mode;
    clock.port_modes += timed([&] {
      mode = modes::solve_slab_modes(port_line(eps, p), spacing, spec.k0,
                                     static_cast<std::size_t>(order) + 3)
                 .at(static_cast<std::size_t>(order) - 1);
    });
    ++clock.port_mode_calls;
    return mode;
  };

  std::vector<array2d<cplx>> currents;
  for (const auto& exc : spec.excitations) {
    const bool vertical = exc.source.axis == fdfd::port_axis::vertical;
    const modes::slab_mode mode =
        mode_at(exc.source, vertical ? g.dy : g.dx, exc.source_mode_order);
    array2d<cplx> current(g.nx, g.ny, cplx(0.0, 0.0));
    fdfd::mode_source_spec ss;
    ss.axis = exc.source.axis;
    ss.line_index = exc.source.line;
    ss.span_start = exc.source.span_start;
    ss.direction = exc.source.direction;
    fdfd::add_mode_source(current, ss, mode, vertical ? g.dx : g.dy);
    currents.push_back(std::move(current));
  }
  const sim::simulation_engine engine(g, spec.pml, spec.k0, eps);
  const std::vector<array2d<cplx>> fields = engine.solve_excitations(currents);

  std::vector<fdfd::field_gradient> adjoint_rhs(fields.size());
  for (std::size_t ei = 0; ei < spec.excitations.size(); ++ei) {
    const auto& exc = spec.excitations[ei];
    for (const auto& mm : exc.mode_monitors) {
      const bool vertical = mm.p.axis == fdfd::port_axis::vertical;
      const double tsp = vertical ? g.dy : g.dx;
      const modes::slab_mode mode = mode_at(mm.p, tsp, mm.mode_order);
      clock.monitors += timed([&] {
        const fdfd::mode_power_monitor mon(mm.p.axis, mm.p.line, mm.p.span_start, mode, tsp,
                                           spec.k0, vertical ? g.dx : g.dy);
        const fdfd::monitor_result r = mon.evaluate(fields[ei]);
        adjoint_rhs[ei].insert(adjoint_rhs[ei].end(), r.grad.begin(), r.grad.end());
      });
    }
    for (const auto& fm : exc.flux_monitors) {
      const bool vertical = fm.axis == fdfd::port_axis::vertical;
      clock.monitors += timed([&] {
        const fdfd::flux_monitor mon(fm.axis, fm.index, fm.span_start, fm.span_count,
                                     vertical ? g.dx : g.dy, vertical ? g.dy : g.dx, spec.k0);
        const fdfd::monitor_result r = mon.evaluate(fields[ei]);
        adjoint_rhs[ei].insert(adjoint_rhs[ei].end(), r.grad.begin(), r.grad.end());
      });
    }
  }
  ++clock.evaluations;
  if (!gradient) return;

  const std::vector<array2d<cplx>> lambdas = engine.solve_adjoints(adjoint_rhs);
  array2d<double> d_eps(g.nx, g.ny, 0.0);
  clock.adjoint_grad += timed([&] {
    for (std::size_t k = 0; k < lambdas.size(); ++k)
      engine.accumulate_eps_gradient(fields[k], lambdas[k], d_eps);
  });

  array2d<double> d_pattern_ext(fwd.aerial.nx(), fwd.aerial.ny(), 0.0);
  for (std::size_t i = 0; i < spec.design.nx; ++i)
    for (std::size_t j = 0; j < spec.design.ny; ++j)
      d_pattern_ext(h + i, h + j) = d_eps(spec.design.ix0 + i, spec.design.iy0 + j);
  array2d<double> d_aerial;
  array2d<double> d_eta;
  clock.etch += timed([&] { etch.backward(fwd.aerial, eta, d_pattern_ext, d_aerial, d_eta); });
  array2d<double> d_mask_ext;
  clock.litho_backward += timed([&] { d_mask_ext = litho.backward(fwd, d_aerial); });
  if (theta == nullptr) return;
  array2d<double> d_rho(spec.design.nx, spec.design.ny);
  for (std::size_t i = 0; i < spec.design.nx; ++i)
    for (std::size_t j = 0; j < spec.design.ny; ++j) d_rho(i, j) = d_mask_ext(h + i, h + j);
  dvec grad(theta->size(), 0.0);
  clock.param_backward +=
      timed([&] { problem.parameterization().backward(*theta, d_rho, grad); });
}

double per_call(double total, std::size_t calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

/// Scale the probe's per-evaluation stage times to the traced run: `evals`
/// evaluations in all, `fab_evals` of them through litho and etch.
void record_stages(ledger& out, const stage_clock& clock, double fab_evals, double evals) {
  const std::size_t n = clock.evaluations;
  out["param.forward_s"] = per_call(clock.param_forward, n) * evals;
  out["param.backward_s"] = per_call(clock.param_backward, n) * evals;
  out["fab.litho_forward_s"] = per_call(clock.litho_forward, n) * fab_evals;
  out["fab.litho_backward_s"] = per_call(clock.litho_backward, n) * fab_evals;
  out["fab.litho_calls"] = fab_evals;
  out["fab.etch_s"] = per_call(clock.etch, n) * fab_evals;
  out["fdfd.monitor_s"] = per_call(clock.monitors, n) * evals;
  out["fdfd.adjoint_grad_s"] = per_call(clock.adjoint_grad, n) * evals;
  out["modes.port_mode_calls"] = per_call(static_cast<double>(clock.port_mode_calls), n) * evals;
  out["modes.port_mode_s"] =
      per_call(clock.port_modes, clock.port_mode_calls) * out["modes.port_mode_calls"];
}

}  // namespace

ledger empty_ledger() {
  ledger out;
  for (const char* name : kLayerMetrics) out[name] = 0.0;
  return out;
}

double monotonic_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void add_spans(ledger& out, const std::vector<obs::trace_event>& events) {
  const std::map<std::uint64_t, double> self = self_times(events);
  std::set<std::uint32_t> threads;
  for (const auto& e : events) {
    threads.insert(e.tid);
    const double total = 1e-6 * static_cast<double>(e.duration_us);
    if (e.name == "sim.prepare" || e.name == "sim.factorize" || e.name == "sim.solve") {
      const std::string stem = e.name.substr(4);
      out["sim." + stem + "_s"] += self.at(e.id);
      out["sim." + stem + "_calls"] += 1.0;
    } else if (e.name == "job.run") {
      out["runtime.job_run_s"] += total;
    } else if (e.name == "job.lease") {
      out["runtime.lease_s"] += total;
    } else if (e.name == "job.checkpoint") {
      out["runtime.checkpoint_s"] += total;
    } else if (e.name == "job.commit") {
      out["runtime.commit_s"] += total;
    }
  }
  out["common.distinct_threads"] = static_cast<double>(threads.size());
}

void add_counters(ledger& out) {
  const obs::registry& reg = obs::registry::global();
  const auto total = [&](const char* name) {
    return static_cast<double>(reg.counter_total(name));
  };
  const double hits = total("sim.engine_cache.hits");
  const double lookups = hits + total("sim.engine_cache.misses");
  out["sim.cache_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  out["sim.reuse_hits"] = total("sim.engine_cache.reuse_hits");
  out["sim.refinement_iterations"] = total("sim.reuse.refinement_iterations");
  out["sim.reuse_fallbacks"] = total("sim.reuse.fallbacks");
  out["store.appends"] = total("store.appends");
  out["runtime.lease_steals"] = total("runtime.scheduler.leases_stolen");
}

double trace_coverage(const std::vector<obs::trace_event>& events, double wall_s) {
  const std::map<std::uint64_t, double> self = self_times(events);
  double covered = 0.0;
  for (const auto& e : events)
    if (e.category != bench_category) covered += self.at(e.id);
  return wall_s > 0.0 ? covered / wall_s : 0.0;
}

void probe_optimize(ledger& out, const api::experiment_spec& spec,
                    const std::vector<core::run_checkpoint>& checkpoints) {
  if (checkpoints.empty()) return;
  core::design_problem problem = api::session::problem_for(spec);
  const core::run_options ro =
      core::resolved_run_options(api::resolved_recipe(spec), api::session::config_for(spec));
  const std::size_t iterations = checkpoints.front().total_iterations;
  const robust::corner_sampler sampler(ro.sampling, problem.fab().space);

  // Corner count of every iteration, re-sampled from the stream position
  // each checkpoint carries (iteration 0 starts from the run seed).
  double sample_time = 0.0;
  std::size_t corner_evals = 0;
  std::vector<robust::variation_corner> probe_corners;
  const core::run_checkpoint& probe_ck = checkpoints[checkpoints.size() / 2];
  for (std::size_t it = 0; it < iterations; ++it) {
    rng r(ro.seed);
    std::optional<robust::worst_case_info> worst;
    const core::run_checkpoint* ck = nullptr;
    for (const auto& c : checkpoints)
      if (c.next_iteration == it) ck = &c;
    if (it > 0 && ck == nullptr) continue;  // the final iteration is never checkpointed
    if (ck != nullptr) {
      r.restore_state(ck->rng_state);
      if (ck->has_worst) worst = ck->worst;
    }
    std::vector<robust::variation_corner> corners;
    sample_time += timed([&] { corners = sampler.sample(r, worst); });
    corner_evals += corners.size();
    if (ck == &probe_ck) probe_corners = corners;
  }
  const std::size_t sampled_iterations = checkpoints.size() + 1;
  corner_evals = corner_evals * iterations / sampled_iterations;
  std::size_t ideal_evals = 0;
  if (ro.fab_aware && ro.relax_epochs > 0) {
    const opt::linear_schedule relax(0.0, 1.0, 0, ro.relax_epochs);
    for (std::size_t it = 0; it < iterations; ++it) ideal_evals += relax.at(it) < 1.0;
  }
  const opt::linear_schedule beta(ro.beta_start, ro.beta_end, 0,
                                  std::max<std::size_t>(1, iterations * 4 / 5));
  problem.parameterization().set_sharpness(beta.at(probe_ck.next_iteration));

  stage_clock clock;
  std::vector<double> corner_eval;
  for (const auto& corner : probe_corners) {
    replay_corner(problem, &probe_ck.theta, nullptr, corner, false, true, clock);
    core::eval_options o;
    o.fab_aware = ro.fab_aware;
    o.dense_objectives = ro.dense_objectives;
    o.engine = ro.engine;
    corner_eval.push_back(timed([&] { (void)problem.evaluate(probe_ck.theta, corner, o); }));
  }
  record_stages(out, clock, ro.fab_aware ? static_cast<double>(corner_evals) : 0.0,
                static_cast<double>(corner_evals + ideal_evals));
  out["robust.sample_s"] =
      sample_time / static_cast<double>(sampled_iterations) * static_cast<double>(iterations);
  out["core.corners_per_iteration"] =
      static_cast<double>(corner_evals) / static_cast<double>(iterations);
  out["core.corner_eval_p50_s"] = percentile(corner_eval, 0.5);

  // One Adam step on the probed iterate with a unit-scale gradient.
  opt::adam adam(ro.learning_rate);
  adam.restore(probe_ck.optimizer);
  dvec theta = probe_ck.theta;
  const dvec grad(theta.size(), 1e-3);
  out["optim.adam_step_s"] =
      timed([&] { adam.step(theta, grad); }) * static_cast<double>(iterations);
}

void probe_campaign(ledger& out, const std::vector<api::experiment_spec>& specs,
                    double jobs_per_spec) {
  double corner_evals = 0.0;
  double iterations = 0.0;
  std::vector<double> corner_eval_p50;
  for (const api::experiment_spec& spec : specs) {
    std::vector<core::run_checkpoint> checkpoints;
    api::run_control control;
    control.checkpoint_every = 1;
    control.on_checkpoint = [&](const core::run_checkpoint& ck) { checkpoints.push_back(ck); };
    api::session_options so;
    so.write_artifacts = false;
    api::session(so).run(spec, control);
    if (checkpoints.empty()) continue;

    ledger job = empty_ledger();
    probe_optimize(job, spec, checkpoints);
    for (const char* name : {"param.forward_s", "param.backward_s", "fab.litho_forward_s",
                             "fab.litho_backward_s", "fab.litho_calls", "fab.etch_s",
                             "fdfd.monitor_s", "fdfd.adjoint_grad_s", "modes.port_mode_s",
                             "modes.port_mode_calls", "optim.adam_step_s", "robust.sample_s"})
      out[name] += jobs_per_spec * job[name];
    const double n = static_cast<double>(checkpoints.front().total_iterations);
    corner_evals += jobs_per_spec * job["core.corners_per_iteration"] * n;
    iterations += jobs_per_spec * n;
    corner_eval_p50.push_back(job["core.corner_eval_p50_s"]);
  }
  if (iterations > 0.0) out["core.corners_per_iteration"] = corner_evals / iterations;
  out["core.corner_eval_p50_s"] = percentile(corner_eval_p50, 0.5);
}

void probe_montecarlo(ledger& out, const core::design_problem& problem,
                      const array2d<double>& mask, std::size_t samples, std::uint64_t seed,
                      std::size_t probe_samples) {
  const rng base(seed);
  stage_clock clock;
  double sample_time = 0.0;
  std::vector<double> sample_eval;
  for (std::size_t s = 0; s < std::min(samples, probe_samples); ++s) {
    robust::variation_corner corner;
    sample_time += timed([&] {
      rng r = base.fork(s);
      corner = robust::random_corner(r, problem.fab().space, "mc" + std::to_string(s));
    });
    replay_corner(problem, nullptr, &mask, corner, true, false, clock);
    core::eval_options o;
    o.hard_etch = true;
    o.dense_objectives = false;
    o.compute_gradient = false;
    sample_eval.push_back(timed([&] { (void)problem.evaluate_pattern(mask, corner, o); }));
  }
  const double count = static_cast<double>(samples);
  record_stages(out, clock, count, count);
  out["robust.sample_s"] = per_call(sample_time, clock.evaluations) * count;
  out["core.corner_eval_p50_s"] = percentile(sample_eval, 0.5);
}

void probe_store_append(ledger& out, const std::string& dir) {
  constexpr std::size_t appends = 200;
  double seconds = 0.0;
  {
    store::segment_log log(dir, {}, "e2e_probe");
    const std::string record =
        R"({"job":0,"name":"probe","state":"checkpointed","attempt":1,"t":0})";
    seconds = timed([&] {
      for (std::size_t i = 0; i < appends; ++i) log.append(record);
    });
  }
  std::filesystem::remove_all(dir);
  out["store.append_s"] = seconds / static_cast<double>(appends) * out["store.appends"];
}

}  // namespace e2e
