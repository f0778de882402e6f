#include "sim/engine.h"

#include "common/error.h"
#include "obs/trace.h"
#include "sim/workspace.h"

namespace boson::sim {

simulation_engine::simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                                     const array2d<double>& eps, engine_settings settings)
    : pml_(pml),
      settings_(settings),
      solver_(grid, pml, k0, eps),
      backend_(make_backend(solver_, settings_)) {}

simulation_engine::simulation_engine(std::shared_ptr<const simulation_engine> nominal,
                                     const array2d<double>& eps)
    : pml_(nominal->pml_),
      settings_(nominal->settings_),
      solver_(nominal->grid(), pml_, nominal->k0(), eps),
      backend_(make_nearby_backend(solver_, settings_, std::move(nominal))) {}

simulation_engine::~simulation_engine() = default;

std::vector<array2d<cplx>> simulation_engine::solve_batch(std::vector<cvec> rhs) const {
  const grid2d& g = solver_.grid();
  auto& ws = workspace::local();

  std::vector<cvec> xs;
  {
    obs::span sp("sim.solve", "sim");
    if (sp.active()) {
      sp.arg("backend", backend_->name());
      sp.arg("batch", std::to_string(rhs.size()));
    }
    xs = backend_->solve(rhs);
  }

  std::vector<array2d<cplx>> fields;
  fields.reserve(xs.size());
  for (auto& x : xs) {
    array2d<cplx> field(g.nx, g.ny);
    for (std::size_t i = 0; i < x.size(); ++i) field.raw()[i] = x[i];
    ws.give_cvec(std::move(x));
    fields.push_back(std::move(field));
  }

  for (auto& b : rhs) ws.give_cvec(std::move(b));
  return fields;
}

std::vector<array2d<cplx>> simulation_engine::solve_excitations(
    const std::vector<array2d<cplx>>& current_densities) const {
  const grid2d& g = solver_.grid();
  auto& ws = workspace::local();

  std::vector<cvec> rhs;
  rhs.reserve(current_densities.size());
  for (const auto& current : current_densities) {
    cvec b = ws.take_cvec(g.cell_count());
    solver_.build_rhs(current, b);
    rhs.push_back(std::move(b));
  }
  return solve_batch(std::move(rhs));
}

array2d<cplx> simulation_engine::solve_excitation(const array2d<cplx>& current_density) const {
  return std::move(solve_excitations({current_density}).front());
}

std::vector<array2d<cplx>> simulation_engine::solve_adjoints(
    const std::vector<fdfd::field_gradient>& gradients) const {
  const grid2d& g = solver_.grid();
  auto& ws = workspace::local();

  std::vector<cvec> rhs;
  rhs.reserve(gradients.size());
  for (const auto& grad : gradients) {
    cvec b = ws.take_cvec(g.cell_count());
    solver_.build_adjoint_rhs(grad, b);
    rhs.push_back(std::move(b));
  }
  return solve_batch(std::move(rhs));
}

array2d<cplx> simulation_engine::solve_adjoint(const fdfd::field_gradient& g) const {
  return std::move(solve_adjoints({g}).front());
}

}  // namespace boson::sim
