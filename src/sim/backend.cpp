#include "sim/backend.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>

#include "common/env.h"
#include "common/error.h"
#include "fdfd/solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "linalg/vec.h"
#include "sim/engine.h"
#include "sparse/banded.h"
#include "sparse/csr.h"
#include "sparse/krylov.h"

namespace boson::sim {

namespace {

/// The nearby backend's counters live in the process-wide obs registry (so
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

/// Outer-iteration cap of the nearby backend before it falls back.
constexpr std::size_t nearby_max_iterations = 32;

}  // namespace

const char* to_string(backend_kind kind) {
  switch (kind) {
    case backend_kind::banded: return "banded";
    case backend_kind::bicgstab: return "bicgstab";
    case backend_kind::gmres: return "gmres";
  }
  return "?";
}

backend_kind backend_from_string(const std::string& name) {
  std::string s = name;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "banded" || s == "direct" || s == "lu") return backend_kind::banded;
  if (s == "bicgstab") return backend_kind::bicgstab;
  if (s == "gmres") return backend_kind::gmres;
  throw bad_argument("unknown backend '" + name +
                     "' (expected banded|direct|lu|bicgstab|gmres)");
}

backend_kind default_backend() {
  const std::string name = env_string("BOSON_BACKEND", "banded");
  return backend_from_string(name);
}

namespace {

/// Direct path: the solver's own banded LU, shared by every excitation and
/// adjoint of the corner through the blocked multi-RHS substitution.
class banded_backend final : public linear_backend {
 public:
  explicit banded_backend(const fdfd::fdfd_solver& solver) : solver_(solver) {
    const obs::span sp("sim.factorize", "sim");
    (void)solver_.factorization();  // factor eagerly so solves are thread-safe
  }

  const char* name() const override { return "banded"; }

  std::vector<cvec> solve(const std::vector<cvec>& rhs) const override {
    return solver_.factorization().solve(rhs);
  }

 private:
  const fdfd::fdfd_solver& solver_;
};

/// Iterative path: CSR operator + ILU(0), BiCGSTAB or restarted GMRES.
class krylov_backend final : public linear_backend {
 public:
  krylov_backend(const fdfd::fdfd_solver& solver, const engine_settings& settings)
      : settings_(settings), a_(solver.assemble_csr()), precond_(a_) {}

  const char* name() const override { return to_string(settings_.backend); }

  std::vector<cvec> solve(const std::vector<cvec>& rhs) const override {
    std::vector<cvec> xs(rhs.size());
    for (std::size_t k = 0; k < rhs.size(); ++k) {
      const sp::krylov_result res =
          settings_.backend == backend_kind::gmres
              ? sp::gmres(a_, rhs[k], xs[k], &precond_, settings_.gmres_restart,
                          settings_.tol, settings_.max_iterations)
              : sp::bicgstab(a_, rhs[k], xs[k], &precond_, settings_.tol,
                             settings_.max_iterations);
      check_numeric(res.converged,
                    std::string(name()) + " backend failed to converge (residual " +
                        std::to_string(res.relative_residual) + ")");
    }
    return xs;
  }

 private:
  engine_settings settings_;
  sp::csr_c a_;
  sp::ilu0 precond_;
};

/// Nearby-operator path: the perturbed operator is never factored. The
/// nominal engine's banded LU left-preconditions a short GMRES outer loop on
/// the perturbed CSR operator, started from zero so the first Krylov vector
/// is the nominal solution (M^{-1} A is a low-rank perturbation of the
/// identity when the permittivity change is localized, so a handful of
/// iterations reach the solver tolerance). Acceptance is checked on the
/// *true* residual; any right-hand side that misses it triggers a one-time
/// fallback to a full preparation of the perturbed operator, which then
/// serves this and every later batch.
class nearby_backend final : public linear_backend {
 public:
  nearby_backend(const fdfd::fdfd_solver& solver, const engine_settings& settings,
                 std::shared_ptr<const simulation_engine> nominal)
      : solver_(solver),
        settings_(settings),
        nominal_(std::move(nominal)),
        a_(solver.assemble_csr()) {}

  const char* name() const override { return "banded-reuse"; }

  std::vector<cvec> solve(const std::vector<cvec>& rhs) const override {
    if (fell_back_.load(std::memory_order_acquire)) return fallback().solve(rhs);
    if (rhs.empty()) return {};

    const sp::banded_lu& lu = nominal_->solver().factorization();
    std::vector<cvec> xs(rhs.size());

    const sp::linear_op op = [this](const cvec& v) { return a_.matvec(v); };
    const sp::linear_op pre = [&lu](const cvec& r) { return lu.solve(r); };
    std::size_t iterations = 0;
    for (std::size_t k = 0; k < rhs.size(); ++k) {
      const sp::krylov_result res = sp::gmres(op, rhs[k], xs[k], pre, nearby_max_iterations,
                                              settings_.tol, nearby_max_iterations);
      iterations += res.iterations;
      // Accept on the true residual so agreement with the re-prepare path
      // holds regardless of the preconditioned convergence metric.
      cvec r = a_.matvec(xs[k]);
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = rhs[k][i] - r[i];
      const double b_norm = la::nrm2(rhs[k]);
      const double rel = b_norm > 0.0 ? la::nrm2(r) / b_norm : 0.0;
      if (!(rel <= settings_.tol * 100.0)) {
        counters().refinement_iterations.inc(iterations);
        counters().fallbacks.inc();
        return fallback().solve(rhs);
      }
    }
    counters().refinement_iterations.inc(iterations);
    return xs;
  }

 private:
  const linear_backend& fallback() const {
    std::call_once(fallback_once_, [this] {
      fallback_backend_ = make_backend(solver_, settings_);
      fell_back_.store(true, std::memory_order_release);
    });
    return *fallback_backend_;
  }

  const fdfd::fdfd_solver& solver_;
  engine_settings settings_;
  std::shared_ptr<const simulation_engine> nominal_;
  sp::csr_c a_;
  mutable std::once_flag fallback_once_;
  mutable std::unique_ptr<linear_backend> fallback_backend_;
  mutable std::atomic<bool> fell_back_{false};
};

}  // namespace

std::unique_ptr<linear_backend> make_backend(const fdfd::fdfd_solver& solver,
                                             const engine_settings& settings) {
  if (settings.backend == backend_kind::banded)
    return std::make_unique<banded_backend>(solver);
  return std::make_unique<krylov_backend>(solver, settings);
}

std::unique_ptr<linear_backend> make_nearby_backend(
    const fdfd::fdfd_solver& solver, const engine_settings& settings,
    std::shared_ptr<const simulation_engine> nominal) {
  require(nominal != nullptr, "make_nearby_backend: nominal engine required");
  require(settings.backend == backend_kind::banded,
          "make_nearby_backend: reuse preconditioning needs the banded backend");
  return std::make_unique<nearby_backend>(solver, settings, std::move(nominal));
}

}  // namespace boson::sim
