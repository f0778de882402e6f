#include "sim/engine.h"

#include <string>

#include "common/error.h"
#include "linalg/vec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/krylov.h"

namespace boson::sim {

namespace {

/// The nearby engine's counters live in the process-wide obs registry (so
/// they appear in /v1/metrics and the Prometheus exposition). They are
/// registered when the library loads, so the series are on the page before
/// the first solve; the hot-path cost is one relaxed atomic add.
struct nearby_counter_block {
  obs::counter& refinement_iterations;
  obs::counter& fallbacks;
};

nearby_counter_block& counters() {
  auto& reg = obs::registry::global();
  static nearby_counter_block block{reg.get_counter("sim.reuse.refinement_iterations"),
                                    reg.get_counter("sim.reuse.fallbacks")};
  return block;
}

[[maybe_unused]] const nearby_counter_block& registered_at_load = counters();

/// Outer-iteration cap of the nearby engine before it falls back.
constexpr std::size_t nearby_max_iterations = 32;

}  // namespace

simulation_engine::simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                                     const array2d<double>& eps, engine_settings settings)
    : settings_(settings), solver_(grid, pml, k0, eps) {
  factor();
}

simulation_engine::simulation_engine(std::shared_ptr<const simulation_engine> nominal,
                                     const array2d<double>& eps)
    : settings_(nominal->settings_),
      solver_(nominal->solver_.grid(), nominal->solver_.pml(), nominal->solver_.k0(), eps),
      nominal_(std::move(nominal)),
      a_(solver_.assemble_csr()) {
  require(nominal_->nominal_ == nullptr,
          "simulation_engine: the nominal engine must be a direct engine");
}

simulation_engine::~simulation_engine() = default;

void simulation_engine::factor() const {
  const obs::span sp("sim.factorize", "sim");
  const grid2d& g = solver_.grid();
  factor_ = std::make_unique<const sp::grid_ldlt>(g.nx, g.ny, solver_.assemble_csr());
  factored_.store(true, std::memory_order_release);
}

std::vector<cvec> simulation_engine::solve_nearby(const std::vector<cvec>& rhs) const {
  const sp::grid_ldlt& nominal = *nominal_->factor_;
  std::vector<cvec> xs(rhs.size());

  const sp::linear_op op = [this](const cvec& v) { return a_.matvec(v); };
  const sp::linear_op pre = [&nominal](const cvec& r) { return nominal.solve(r); };
  std::size_t iterations = 0;
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const sp::krylov_result res = sp::gmres(op, rhs[k], xs[k], pre, nearby_max_iterations,
                                            settings_.tol, nearby_max_iterations);
    iterations += res.iterations;
    // Accept on the true residual so agreement with a direct engine holds
    // regardless of the preconditioned convergence metric.
    cvec r = a_.matvec(xs[k]);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = rhs[k][i] - r[i];
    const double b_norm = la::nrm2(rhs[k]);
    const double rel = b_norm > 0.0 ? la::nrm2(r) / b_norm : 0.0;
    if (!(rel <= settings_.tol * 100.0)) {
      counters().refinement_iterations.inc(iterations);
      counters().fallbacks.inc();
      std::call_once(fallback_once_, [this] { factor(); });
      return factor_->solve(rhs);
    }
  }
  counters().refinement_iterations.inc(iterations);
  return xs;
}

std::vector<array2d<cplx>> simulation_engine::solve_batch(const std::vector<cvec>& rhs) const {
  std::vector<cvec> xs;
  {
    obs::span sp("sim.solve", "sim");
    if (sp.active()) {
      sp.arg("backend", nominal_ ? "nearby" : "direct");
      sp.arg("batch", std::to_string(rhs.size()));
    }
    xs = factored_.load(std::memory_order_acquire) ? factor_->solve(rhs) : solve_nearby(rhs);
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
