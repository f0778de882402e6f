#include "core/design_problem.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "fab/morphology.h"
#include "fab/temperature.h"
#include "fdfd/monitor.h"
#include "fdfd/solver.h"
#include "fdfd/source.h"
#include "modes/slab.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/workspace.h"

namespace boson::core {

namespace {

/// Permittivity cross-section along a port line.
dvec eps_line_at(const array2d<double>& eps, const dev::port& p) {
  dvec line(p.span_count);
  if (p.axis == fdfd::port_axis::vertical) {
    for (std::size_t t = 0; t < p.span_count; ++t) line[t] = eps(p.line, p.span_start + t);
  } else {
    for (std::size_t t = 0; t < p.span_count; ++t) line[t] = eps(p.span_start + t, p.line);
  }
  return line;
}

modes::slab_mode solve_port_mode(const array2d<double>& eps, const dev::port& p,
                                 double spacing, double k0, int order) {
  require(order >= 1, "solve_port_mode: order must be >= 1");
  const dvec line = eps_line_at(eps, p);
  auto ms = modes::solve_slab_modes(line, spacing, k0, static_cast<std::size_t>(order) + 3);
  check_numeric(ms.size() >= static_cast<std::size_t>(order),
                "solve_port_mode: requested mode order not guided at this cross-section");
  return ms[static_cast<std::size_t>(order) - 1];
}

struct objective_eval {
  double loss = 0.0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> d_metric;  ///< dLoss/dmetric
};

constexpr double ratio_eps = 1e-4;  ///< stabilizes the contrast denominator

objective_eval eval_objective(const dev::objective_spec& obj,
                              const std::map<std::string, double>& monitors,
                              const eval_options& opts) {
  objective_eval out;
  for (const auto& m : obj.metrics) {
    double v = m.constant;
    for (const auto& t : m.terms) v += t.coeff * monitors.at(t.monitor);
    out.metrics[m.name] = v;
  }

  if (!opts.objective_override.empty()) {
    const double v = out.metrics.at(opts.objective_override);
    out.loss = 1.0 - v;
    out.d_metric[opts.objective_override] += -1.0;
  } else if (obj.kind == dev::objective_kind::maximize_metric) {
    const double v = out.metrics.at(obj.primary);
    out.loss = 1.0 - v;
    out.d_metric[obj.primary] += -1.0;
  } else {
    const double num = out.metrics.at(obj.primary);
    const double den = out.metrics.at(obj.secondary);
    const double den_s = den + ratio_eps;
    out.loss = num / den_s;
    out.d_metric[obj.primary] += 1.0 / den_s;
    out.d_metric[obj.secondary] += -num / (den_s * den_s);
  }

  if (obj.kind == dev::objective_kind::minimize_ratio) {
    const double num = out.metrics.at(obj.primary);
    const double den = out.metrics.at(obj.secondary);
    out.metrics["contrast"] = num / std::max(den, 1e-12);
  }

  if (opts.dense_objectives) {
    for (const auto& pen : obj.dense_penalties) {
      const double v = out.metrics.at(pen.metric);
      out.loss += pen.value_at(v);
      const double slope = pen.slope_at(v);
      if (slope != 0.0) out.d_metric[pen.metric] += slope;
    }
  }
  return out;
}

/// The engine of one evaluation: nearby to `opts.nominal_engine` when set,
/// a full preparation otherwise.
std::shared_ptr<const sim::simulation_engine> make_engine(const dev::device_spec& spec,
                                                          const array2d<double>& eps,
                                                          const eval_options& opts) {
  obs::span sp("sim.prepare", "sim");
  if (sp.active()) sp.arg("mode", opts.nominal_engine ? "nearby" : "full");
  if (opts.nominal_engine)
    return std::make_shared<const sim::simulation_engine>(opts.nominal_engine, eps);
  return std::make_shared<const sim::simulation_engine>(spec.grid, spec.pml, spec.k0, eps,
                                                        opts.engine);
}

fab::etch_model etch_for(double beta, const eval_options& opts) {
  return fab::etch_model(beta, opts.hard_etch ? fab::etch_mode::hard
                                              : (opts.soft_etch ? fab::etch_mode::soft
                                                                : fab::etch_mode::ste));
}

}  // namespace

fab_context make_fab_context(const dev::device_spec& spec,
                             const fab::litho_settings& litho_cfg,
                             const fab::eole_settings& eole_cfg,
                             const robust::variation_space& space) {
  fab_context ctx;
  ctx.litho_cfg = litho_cfg;
  ctx.litho_cfg.pixel = spec.grid.dx;
  ctx.halo = ctx.litho_cfg.kernel_half;
  ctx.space = space;

  const std::size_t ext_nx = spec.design.nx + 2 * ctx.halo;
  const std::size_t ext_ny = spec.design.ny + 2 * ctx.halo;

  for (const auto& corner : fab::standard_litho_corners(litho_cfg.corner_defocus)) {
    ctx.litho.push_back(
        std::make_shared<const fab::hopkins_litho>(ctx.litho_cfg, corner, ext_nx, ext_ny));
  }
  ctx.eole = std::make_shared<const fab::eole_field>(ext_nx, ext_ny, spec.grid.dx,
                                                     spec.grid.dy, eole_cfg);
  ctx.space.eole_terms = ctx.eole->num_terms();
  ctx.space.num_litho_corners = ctx.litho.size();
  return ctx;
}

design_problem::design_problem(dev::device_spec spec,
                               std::shared_ptr<param::parameterization> param,
                               fab_context fab, double mfs_blur_radius_cells)
    : spec_(std::move(spec)),
      param_(std::move(param)),
      fab_(std::move(fab)),
      mfs_blur_(spec_.design.nx, spec_.design.ny, mfs_blur_radius_cells) {
  require(param_ != nullptr, "design_problem: parameterization required");
  require(param_->nx() == spec_.design.nx && param_->ny() == spec_.design.ny,
          "design_problem: parameterization shape must match the design window");
  spec_.design.validate_within(spec_.grid);
  compute_halo_occupancy();
  compute_input_powers();
}

void design_problem::compute_halo_occupancy() {
  require(!fab_.litho.empty(), "design_problem: no lithography corners");
  // Halo occupancy: fixed geometry around the design window, interior zero.
  const std::size_t h = fab_.halo;
  halo_occ_ = array2d<double>(spec_.design.nx + 2 * h, spec_.design.ny + 2 * h, 0.0);
  for (std::size_t ex = 0; ex < halo_occ_.nx(); ++ex) {
    for (std::size_t ey = 0; ey < halo_occ_.ny(); ++ey) {
      const bool interior = ex >= h && ex < h + spec_.design.nx && ey >= h &&
                            ey < h + spec_.design.ny;
      if (interior) continue;
      const std::ptrdiff_t gx =
          static_cast<std::ptrdiff_t>(spec_.design.ix0 + ex) - static_cast<std::ptrdiff_t>(h);
      const std::ptrdiff_t gy =
          static_cast<std::ptrdiff_t>(spec_.design.iy0 + ey) - static_cast<std::ptrdiff_t>(h);
      double occ = 0.0;
      if (gx >= 0 && gy >= 0 && gx < static_cast<std::ptrdiff_t>(spec_.grid.nx) &&
          gy < static_cast<std::ptrdiff_t>(spec_.grid.ny))
        occ = spec_.background_occupancy(static_cast<std::size_t>(gx),
                                         static_cast<std::size_t>(gy));
      halo_occ_(ex, ey) = occ;
    }
  }
}

array2d<double> design_problem::embed_in_halo(const array2d<double>& rho_design) const {
  require(rho_design.nx() == spec_.design.nx && rho_design.ny() == spec_.design.ny,
          "embed_in_halo: shape mismatch");
  array2d<double> ext = halo_occ_;
  const std::size_t h = fab_.halo;
  for (std::size_t i = 0; i < rho_design.nx(); ++i)
    for (std::size_t j = 0; j < rho_design.ny(); ++j) ext(h + i, h + j) = rho_design(i, j);
  return ext;
}

design_problem::solved_excitations design_problem::solve_excitations(
    const array2d<double>& eps, const eval_options& opts) const {
  const auto& g = spec_.grid;
  solved_excitations out;
  out.engine = make_engine(spec_, eps, opts);

  auto& ws = sim::workspace::local();
  std::vector<array2d<cplx>> currents;
  currents.reserve(spec_.excitations.size());
  for (const auto& exc : spec_.excitations) {
    const double src_spacing = exc.source.axis == fdfd::port_axis::vertical ? g.dx : g.dy;
    const double src_transverse =
        exc.source.axis == fdfd::port_axis::vertical ? g.dy : g.dx;
    const auto src_mode =
        solve_port_mode(eps, exc.source, src_transverse, spec_.k0, exc.source_mode_order);

    array2d<cplx> current = ws.take_cgrid(g.nx, g.ny);
    fdfd::mode_source_spec ss;
    ss.axis = exc.source.axis;
    ss.line_index = exc.source.line;
    ss.span_start = exc.source.span_start;
    ss.direction = exc.source.direction;
    fdfd::add_mode_source(current, ss, src_mode, src_spacing);
    currents.push_back(std::move(current));
  }

  // All excitations of the corner share the prepared operator through one
  // blocked multi-RHS substitution (direct backend) or one ILU setup.
  out.fields = out.engine->solve_excitations(currents);
  for (auto& c : currents) ws.give_cgrid(std::move(c));
  return out;
}

void design_problem::compute_input_powers() {
  const auto& g = spec_.grid;
  const double eps_s = fab::eps_si(fab::nominal_temperature);
  array2d<double> eps(g.nx, g.ny);
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps.data()[i] =
        fab::eps_void + (eps_s - fab::eps_void) * spec_.reference_occupancy.data()[i];

  const solved_excitations sol = solve_excitations(eps, eval_options{});

  input_power_.clear();
  for (std::size_t ei = 0; ei < spec_.excitations.size(); ++ei) {
    const auto& exc = spec_.excitations[ei];
    // Launched power = net Poynting flux through the reference plane. In the
    // straight reference structure the flux is exactly position-independent
    // (discrete power conservation), which makes the normalization immune to
    // the small position-dependent bias of window-truncated mode overlaps.
    const auto& rm = exc.reference_monitor;
    const double mon_normal = rm.p.axis == fdfd::port_axis::vertical ? g.dx : g.dy;
    const double mon_transverse = rm.p.axis == fdfd::port_axis::vertical ? g.dy : g.dx;
    fdfd::flux_monitor mon(rm.p.axis, rm.p.line, rm.p.span_start, rm.p.span_count,
                           mon_normal, mon_transverse, spec_.k0);
    const double pin =
        static_cast<double>(exc.source.direction) * mon.evaluate(sol.fields[ei]).value;
    check_numeric(pin > 1e-12, "design_problem: reference run launched no power");
    input_power_.push_back(pin);
    log_debug("design_problem[", spec_.name, "]: excitation '", exc.name,
              "' input power = ", pin);
  }
}

double design_problem::input_power(std::size_t excitation_index) const {
  require(excitation_index < input_power_.size(), "input_power: index out of range");
  return input_power_[excitation_index];
}

double design_problem::fom_of(const std::map<std::string, double>& metrics) const {
  return metrics.at(spec_.objective.fom_metric);
}

design_problem design_problem::at_wavelength(double lambda_um) const {
  require(lambda_um > 0.0, "at_wavelength: wavelength must be positive");
  dev::device_spec shifted = spec_;
  shifted.k0 = 2.0 * pi / lambda_um;
  return design_problem(std::move(shifted), param_, fab_);
}

design_problem design_problem::with_fab(fab_context fab) const {
  design_problem out = *this;
  out.fab_ = std::move(fab);
  out.compute_halo_occupancy();
  return out;
}

std::shared_ptr<const sim::simulation_engine> design_problem::prepare_engine(
    const array2d<double>& rho_design, const robust::variation_corner& corner,
    const eval_options& opts) const {
  require(rho_design.nx() == spec_.design.nx && rho_design.ny() == spec_.design.ny,
          "prepare_engine: pattern shape mismatch");
  auto& ws = sim::workspace::local();
  array2d<double> occ = ws.take_dgrid(spec_.grid.nx, spec_.grid.ny);
  array2d<double> eps = ws.take_dgrid(spec_.grid.nx, spec_.grid.ny);
  fill_permittivity(fabricate(rho_design, corner, opts).rho_final, corner.temperature, occ,
                    eps);
  eval_options full = opts;
  full.nominal_engine = nullptr;
  auto engine = make_engine(spec_, eps, full);
  ws.give_dgrid(std::move(occ));
  ws.give_dgrid(std::move(eps));
  return engine;
}

design_problem::fabricated design_problem::fabricate(const array2d<double>& rho,
                                                     const robust::variation_corner& corner,
                                                     const eval_options& opts) const {
  fabricated out;
  if (opts.use_mfs_blur) {
    mfs_blur_.forward(rho, out.rho_b);
  } else {
    out.rho_b = rho;
  }

  if (!opts.fab_aware) {
    out.rho_final = out.rho_b;
    if (opts.morphology_shift != 0) {
      const fab::soft_morphology morph(opts.morphology_radius_cells);
      out.rho_final = morph.forward(out.rho_b, opts.morphology_shift > 0);
    }
    if (opts.binarize_ideal)
      for (auto& v : out.rho_final) v = v > 0.5 ? 1.0 : 0.0;
    return out;
  }

  require(corner.litho >= 0 && static_cast<std::size_t>(corner.litho) < fab_.litho.size(),
          "evaluate_impl: lithography corner out of range");
  const std::size_t h = fab_.halo;
  out.litho_fwd = fab_.litho[static_cast<std::size_t>(corner.litho)]->forward(
      embed_in_halo(out.rho_b));
  dvec xi = corner.xi;
  if (xi.size() != fab_.eole->num_terms()) xi.assign(fab_.eole->num_terms(), 0.0);
  out.eta = fab_.eole->field(xi, corner.eta_shift);
  const array2d<double> pattern_ext =
      etch_for(fab_.etch_beta, opts).forward(out.litho_fwd.aerial, out.eta);
  out.rho_final = array2d<double>(spec_.design.nx, spec_.design.ny);
  for (std::size_t i = 0; i < out.rho_final.nx(); ++i)
    for (std::size_t j = 0; j < out.rho_final.ny(); ++j)
      out.rho_final(i, j) = pattern_ext(h + i, h + j);
  return out;
}

void design_problem::fill_permittivity(const array2d<double>& rho_final, double temperature,
                                       array2d<double>& occ, array2d<double>& eps) const {
  const double eps_s = fab::eps_si(temperature);
  std::copy(spec_.background_occupancy.begin(), spec_.background_occupancy.end(),
            occ.begin());
  for (std::size_t i = 0; i < spec_.design.nx; ++i)
    for (std::size_t j = 0; j < spec_.design.ny; ++j)
      occ(spec_.design.ix0 + i, spec_.design.iy0 + j) = rho_final(i, j);
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps.data()[i] = fab::eps_void + (eps_s - fab::eps_void) * occ.data()[i];
}

eval_result design_problem::evaluate(const dvec& theta, const robust::variation_corner& corner,
                                     const eval_options& opts) const {
  return evaluate_impl(&theta, nullptr, corner, opts);
}

eval_result design_problem::evaluate_pattern(const array2d<double>& rho_design,
                                             const robust::variation_corner& corner,
                                             const eval_options& opts) const {
  return evaluate_impl(nullptr, &rho_design, corner, opts);
}

eval_result design_problem::evaluate_impl(const dvec* theta, const array2d<double>* rho_in,
                                          const robust::variation_corner& corner,
                                          const eval_options& opts) const {
  const auto& g = spec_.grid;
  const std::size_t h = fab_.halo;

  // --- forward: parameterization -------------------------------------------------
  array2d<double> rho;
  if (theta != nullptr) {
    param_->forward(*theta, rho);
  } else {
    require(rho_in != nullptr, "evaluate_impl: no design input");
    require(rho_in->nx() == spec_.design.nx && rho_in->ny() == spec_.design.ny,
            "evaluate_impl: pattern shape mismatch");
    rho = *rho_in;
  }

  const fabricated fabbed = fabricate(rho, corner, opts);
  const array2d<double>& rho_b = fabbed.rho_b;
  const fab::litho_forward& litho_fwd = fabbed.litho_fwd;

  // --- forward: permittivity and field solves ------------------------------------
  auto& ws = sim::workspace::local();
  const double eps_s = fab::eps_si(corner.temperature);
  array2d<double> occ = ws.take_dgrid(g.nx, g.ny);
  array2d<double> eps = ws.take_dgrid(g.nx, g.ny);
  fill_permittivity(fabbed.rho_final, corner.temperature, occ, eps);

  solved_excitations sol = solve_excitations(eps, opts);
  const sim::simulation_engine& engine = *sol.engine;

  struct monitor_entry {
    std::string full_name;
    fdfd::monitor_result result;
    double norm_factor;  ///< normalized = raw * norm_factor
  };
  struct exc_run {
    array2d<cplx> field;
    std::vector<monitor_entry> monitors;
  };
  std::vector<exc_run> runs;
  std::map<std::string, double> monvals;

  for (std::size_t ei = 0; ei < spec_.excitations.size(); ++ei) {
    const auto& exc = spec_.excitations[ei];
    const double pin = input_power_[ei];

    exc_run run;
    run.field = std::move(sol.fields[ei]);

    for (const auto& mm : exc.mode_monitors) {
      const double tsp = mm.p.axis == fdfd::port_axis::vertical ? g.dy : g.dx;
      const double nsp = mm.p.axis == fdfd::port_axis::vertical ? g.dx : g.dy;
      const auto mode = solve_port_mode(eps, mm.p, tsp, spec_.k0, mm.mode_order);
      fdfd::mode_power_monitor mon(mm.p.axis, mm.p.line, mm.p.span_start, mode, tsp, spec_.k0,
                                   nsp);
      monitor_entry entry{exc.name + "." + mm.name, mon.evaluate(run.field), 1.0 / pin};
      monvals[entry.full_name] = entry.result.value * entry.norm_factor;
      run.monitors.push_back(std::move(entry));
    }
    for (const auto& fm : exc.flux_monitors) {
      const double nsp = fm.axis == fdfd::port_axis::vertical ? g.dx : g.dy;
      const double tsp = fm.axis == fdfd::port_axis::vertical ? g.dy : g.dx;
      fdfd::flux_monitor mon(fm.axis, fm.index, fm.span_start, fm.span_count, nsp, tsp,
                             spec_.k0);
      monitor_entry entry{exc.name + "." + fm.name, mon.evaluate(run.field), fm.sign / pin};
      monvals[entry.full_name] = entry.result.value * entry.norm_factor;
      run.monitors.push_back(std::move(entry));
    }
    runs.push_back(std::move(run));
  }
  ws.give_dgrid(std::move(eps));  // last monitor mode solved; recycle

  // --- objective -------------------------------------------------------------
  const objective_eval obj = eval_objective(spec_.objective, monvals, opts);
  eval_result out;
  out.loss = obj.loss;
  out.metrics = obj.metrics;
  out.pattern = fabbed.rho_final;
  if (!opts.compute_gradient) {
    ws.give_dgrid(std::move(occ));
    return out;
  }

  // --- backward: dLoss/dmonitor --------------------------------------------------
  std::map<std::string, double> dmon;
  for (const auto& m : spec_.objective.metrics) {
    const auto it = obj.d_metric.find(m.name);
    if (it == obj.d_metric.end() || it->second == 0.0) continue;
    for (const auto& t : m.terms) dmon[t.monitor] += it->second * t.coeff;
  }

  // --- backward: adjoint solves and dLoss/deps ------------------------------------
  // All adjoints of the corner reuse the engine's prepared operator and go
  // through one blocked multi-RHS substitution.
  array2d<double> d_eps(g.nx, g.ny, 0.0);
  std::vector<fdfd::field_gradient> adjoint_rhs;
  std::vector<std::size_t> adjoint_run;
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    fdfd::field_gradient rhs;
    for (const auto& entry : runs[ri].monitors) {
      const auto it = dmon.find(entry.full_name);
      if (it == dmon.end() || it->second == 0.0) continue;
      const double w = it->second * entry.norm_factor;
      for (const auto& [idx, gval] : entry.result.grad) rhs.emplace_back(idx, w * gval);
    }
    if (rhs.empty()) continue;
    adjoint_rhs.push_back(std::move(rhs));
    adjoint_run.push_back(ri);
  }
  if (!adjoint_rhs.empty()) {
    const std::vector<array2d<cplx>> lambdas = engine.solve_adjoints(adjoint_rhs);
    for (std::size_t k = 0; k < lambdas.size(); ++k)
      engine.accumulate_eps_gradient(runs[adjoint_run[k]].field, lambdas[k], d_eps);
  }

  // --- backward: chain into the design window ------------------------------------
  if (opts.want_var_grads) {
    double d_t = 0.0;
    const double deps_dt = fab::eps_si_dt(corner.temperature);
    for (std::size_t i = 0; i < d_eps.size(); ++i)
      d_t += d_eps.data()[i] * occ.data()[i] * deps_dt;
    out.d_temperature = d_t;
  }
  ws.give_dgrid(std::move(occ));

  array2d<double> d_rho_final(spec_.design.nx, spec_.design.ny);
  for (std::size_t i = 0; i < spec_.design.nx; ++i)
    for (std::size_t j = 0; j < spec_.design.ny; ++j)
      d_rho_final(i, j) =
          d_eps(spec_.design.ix0 + i, spec_.design.iy0 + j) * (eps_s - fab::eps_void);

  array2d<double> d_rho_b;
  if (opts.fab_aware) {
    array2d<double> d_pattern_ext(litho_fwd.aerial.nx(), litho_fwd.aerial.ny(), 0.0);
    for (std::size_t i = 0; i < spec_.design.nx; ++i)
      for (std::size_t j = 0; j < spec_.design.ny; ++j)
        d_pattern_ext(h + i, h + j) = d_rho_final(i, j);

    array2d<double> d_aerial;
    array2d<double> d_eta;
    etch_for(fab_.etch_beta, opts)
        .backward(litho_fwd.aerial, fabbed.eta, d_pattern_ext, d_aerial, d_eta);
    if (opts.want_var_grads) out.d_xi = fab_.eole->project_gradient(d_eta);

    const array2d<double> d_mask_ext =
        fab_.litho[static_cast<std::size_t>(corner.litho)]->backward(litho_fwd, d_aerial);
    d_rho_b = array2d<double>(spec_.design.nx, spec_.design.ny);
    for (std::size_t i = 0; i < spec_.design.nx; ++i)
      for (std::size_t j = 0; j < spec_.design.ny; ++j)
        d_rho_b(i, j) = d_mask_ext(h + i, h + j);
  } else if (opts.morphology_shift != 0) {
    const fab::soft_morphology morph(opts.morphology_radius_cells);
    d_rho_b = array2d<double>(spec_.design.nx, spec_.design.ny, 0.0);
    morph.backward(rho_b, d_rho_final, opts.morphology_shift > 0, d_rho_b);
  } else {
    d_rho_b = d_rho_final;
  }

  array2d<double> d_rho;
  if (opts.use_mfs_blur) {
    mfs_blur_.adjoint(d_rho_b, d_rho);
  } else {
    d_rho = d_rho_b;
  }

  if (theta != nullptr) {
    out.grad.assign(param_->num_params(), 0.0);
    param_->backward(*theta, d_rho, out.grad);
  }
  return out;
}

}  // namespace boson::core
