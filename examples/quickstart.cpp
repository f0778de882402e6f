// Quickstart: inverse-design a 90-degree waveguide bend with BOSON-1.
//
// Demonstrates the minimal end-to-end flow of the declarative API:
//   1. describe the experiment as an `api::experiment_spec` (device +
//      method + evaluation plan — the same structure boson_cli reads from
//      JSON),
//   2. execute it through an `api::session`, which streams progress through
//      common/log and writes the artifact directory,
//   3. read the results back from the returned `experiment_result`.
//
// Run time: about 8 s at the default settings on a 4-core machine.

#include <cstdio>

#include "api/session.h"

int main() {
  using namespace boson;

  // 1. The experiment as data: the 90-degree bend benchmark, the full
  //    BOSON-1 recipe, and a post-fabrication Monte Carlo. The equivalent
  //    JSON could be executed with `boson_cli run`.
  api::experiment_spec spec;
  spec.name = "quickstart_bend";
  spec.device = "bend";
  spec.method = "boson";
  spec.evaluation = {api::eval_step::monte_carlo(20)};

  // 2. Execute. The session validates the spec, resolves its names,
  //    runs the variation-aware optimization and the evaluation plan, and
  //    writes summary.json / trajectory.csv / mask.pgm under ./quickstart_out.
  api::session_options options;
  options.output_dir = "quickstart_out";
  api::session session(options);
  const api::experiment_result result = session.run(spec);

  // 3. Report.
  const auto& method = result.method;
  std::printf("\nBOSON-1 on the %s benchmark\n", spec.device.c_str());
  std::printf("  FDFD solver          : nested-dissection multifrontal LDLT\n");
  std::printf("  pre-fab transmission : %.4f\n", method.prefab_fom);
  std::printf("  post-fab transmission: %.4f +- %.4f  (%zu Monte-Carlo samples)\n",
              method.postfab.fom_mean, method.postfab.fom_std, method.postfab.samples);
  std::printf("  post-fab reflection  : %.4f\n",
              method.postfab.metric_means.at("reflection"));

  std::printf("  artifacts            : %s (summary.json, trajectory.csv, mask.pgm)\n",
              result.artifact_dir.c_str());
  return 0;
}
