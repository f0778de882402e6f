// Variation sensitivity study: how a finished design behaves across the
// fabrication / operation variation space.
//
// This is the downstream-user workflow: design a bend through the session
// façade with the spectral sweep and lithography process window directly in
// the spec's evaluation plan, then sweep each variation axis in isolation —
// lithography corner, temperature, global etch threshold — and sample the
// spatially correlated etch field, reporting the figure of merit at every
// point. The per-axis scans evaluate the library's variation models directly
// on the problem `session::problem_for` rebuilds from the same spec.
//
// The method is given as a `core::method_recipe` value rather than a
// preset name: start from the BOSON-1 preset, tighten one policy, and hand
// the composed recipe to the spec — no name is needed for the variant.

#include <cstdio>

#include "api/session.h"
#include "common/rng.h"
#include "io/table.h"

int main() {
  using namespace boson;

  // The BOSON-1 preset with one policy pinned (the explicit concentrated
  // init instead of the parameterization-dependent default) — the kind of
  // single-ingredient recipe edit the paper's Table II performs.
  core::method_recipe recipe = api::find_method("boson");
  recipe.label = "BOSON-1 (variation study)";
  recipe.initialization = "concentrated";

  api::experiment_spec spec;
  spec.name = "variation_study_bend";
  spec.device = "bend";
  spec.method = "boson_variation";  // a label: the recipe below wins
  spec.recipe = recipe;
  spec.iterations = 20;  // a quick design is enough for the study
  spec.evaluation = {
      api::eval_step::sweep({1.50, 1.525, 1.55, 1.575, 1.60}),
      api::eval_step::window({0.0, 0.08, 0.16}, {0.95, 1.0, 1.05}),
  };

  api::session_options options;
  options.output_dir = "variation_out";
  api::session session(options);
  const api::experiment_result designed = session.run(spec);

  // Per-axis scans need the design problem itself (the spec's device +
  // parameterization + fabrication models).
  core::design_problem problem = api::session::problem_for(spec);

  auto fom_at = [&](const robust::variation_corner& corner) {
    core::eval_options o;
    o.fab_aware = true;
    o.hard_etch = true;
    o.compute_gradient = false;
    o.dense_objectives = false;
    const auto ev = problem.evaluate_pattern(designed.method.mask, corner, o);
    return problem.fom_of(ev.metrics);
  };

  auto nominal = [&] {
    robust::variation_corner c;
    c.xi.assign(problem.fab().space.eole_terms, 0.0);
    return c;
  };

  io::console_table table({"variation", "setting", "transmission"});
  table.add_row({"nominal", "-", io::console_table::num(fom_at(nominal()), 4)});

  for (int litho = 1; litho <= 2; ++litho) {
    auto c = nominal();
    c.litho = litho;
    table.add_row({"lithography", litho == 1 ? "l_min (defocus, -5% dose)"
                                             : "l_max (defocus, +5% dose)",
                   io::console_table::num(fom_at(c), 4)});
  }
  for (const double t : {260.0, 280.0, 320.0, 340.0}) {
    auto c = nominal();
    c.temperature = t;
    table.add_row(
        {"temperature", io::console_table::num(t, 0) + " K",
         io::console_table::num(fom_at(c), 4)});
  }
  for (const double shift : {-0.05, 0.05}) {
    auto c = nominal();
    c.eta_shift = shift;
    table.add_row({"etch threshold", (shift > 0 ? "+" : "") + io::console_table::num(shift, 2),
                   io::console_table::num(fom_at(c), 4)});
  }
  rng r(42);
  for (int s = 0; s < 3; ++s) {
    auto c = nominal();
    c.xi = r.normal_vector(problem.fab().space.eole_terms);
    table.add_row({"etch field (EOLE)", "random draw " + std::to_string(s + 1),
                   io::console_table::num(fom_at(c), 4)});
  }

  std::printf("\n");
  table.print("Post-fabrication sensitivity of the optimized bend");

  // Spectral response: how the design behaves off the central wavelength.
  io::console_table spectral({"wavelength [um]", "transmission"});
  for (const auto& pt : designed.spectrum)
    spectral.add_row({io::console_table::num(pt.lambda_um, 3),
                      io::console_table::num(pt.fom, 4)});
  std::printf("\n");
  spectral.print("Spectral response (nominal fabrication corner)");

  // Lithography process window: transmission across the (defocus, dose)
  // plane — the classical fab-engineering view of the same robustness the
  // BOSON-1 corners optimize.
  io::console_table pw({"defocus [um]", "dose", "transmission"});
  for (const auto& pt : designed.window)
    pw.add_row({io::console_table::num(pt.defocus_um, 2),
                io::console_table::num(pt.dose, 2), io::console_table::num(pt.fom, 4)});
  std::printf("\n");
  pw.print("Lithography process window");

  std::printf("\nArtifacts (summary.json, spectrum.csv, process_window.csv): %s\n",
              designed.artifact_dir.c_str());
  return 0;
}
