#include "sim/engine.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace boson::sim {

namespace {

/// The engine's counters live in the process-wide obs registry (so they
/// appear in /v1/metrics and the Prometheus exposition). They are registered
/// when the library loads, so the series are on the page before the first
/// solve; the hot-path cost is one relaxed atomic add.
struct counter_block {
  obs::counter& factorizations;
  obs::counter& solves;  ///< right-hand sides
};

counter_block& counters() {
  auto& reg = obs::registry::global();
  static counter_block block{reg.get_counter("sim.factorizations"),
                             reg.get_counter("sim.solves")};
  return block;
}

[[maybe_unused]] const counter_block& registered_at_load = counters();

sp::grid_ldlt factor(const fdfd::fdfd_solver& solver) {
  const obs::span span("sim.factorize", "sim");
  sp::grid_ldlt factored(solver.stencil());
  counters().factorizations.inc();
  return factored;
}

}  // namespace

simulation_engine::simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                                     const array2d<double>& eps)
    : solver_(grid, pml, k0, eps), factor_(factor(solver_)) {}

std::vector<array2d<cplx>> simulation_engine::solve_batch(const std::vector<cvec>& rhs) const {
  std::vector<cvec> xs;
  {
    obs::span sp("sim.solve", "sim");
    if (sp.active()) sp.arg("batch", std::to_string(rhs.size()));
    counters().solves.inc(rhs.size());
    xs.reserve(rhs.size());
    for (const cvec& b : rhs) xs.push_back(factor_.solve(b));
  }

  const grid2d& g = solver_.grid();
  std::vector<array2d<cplx>> fields;
  fields.reserve(xs.size());
  for (auto& x : xs) {
    array2d<cplx> field(g.nx, g.ny);
    field.raw() = std::move(x);
    fields.push_back(std::move(field));
  }
  return fields;
}

std::vector<array2d<cplx>> simulation_engine::solve_excitations(
    const std::vector<array2d<cplx>>& current_densities) const {
  std::vector<cvec> rhs(current_densities.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) solver_.build_rhs(current_densities[k], rhs[k]);
  return solve_batch(rhs);
}

std::vector<array2d<cplx>> simulation_engine::solve_adjoints(
    const std::vector<fdfd::field_gradient>& gradients) const {
  std::vector<cvec> rhs(gradients.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) solver_.build_adjoint_rhs(gradients[k], rhs[k]);
  return solve_batch(rhs);
}

}  // namespace boson::sim
