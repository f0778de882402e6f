// Waveguide-crossing design study: conventional density-based inverse design
// versus BOSON-1 on the same benchmark.
//
// The density baseline produces a numerically plausible design whose fine
// features do not survive lithography; BOSON-1 optimizes inside the
// fabricable subspace, so its post-fabrication performance holds up. This
// example reproduces that comparison (one row of the paper's Table I) as a
// two-spec batch through the session façade: both experiments share the
// worker pool, and each leaves its own artifact directory.

#include <cstdio>

#include "api/session.h"
#include "io/table.h"

int main() {
  using namespace boson;

  std::vector<api::experiment_spec> batch;
  for (const char* method : {"density", "boson"}) {
    api::experiment_spec spec;
    spec.name = std::string("crossing_") + method;
    spec.device = "crossing";
    spec.method = method;
    spec.evaluation = {api::eval_step::monte_carlo(20)};
    batch.push_back(spec);
  }

  api::session_options options;
  options.output_dir = "crossing_out";
  api::session session(options);
  const std::vector<api::experiment_result> results = session.run_all(batch);

  io::console_table table(
      {"method", "pre-fab T", "post-fab T", "post-fab crosstalk", "post-fab reflection"});
  for (const auto& r : results) {
    const auto& m = r.method;
    table.add_row({m.method, io::console_table::num(m.prefab_fom, 4),
                   io::console_table::num(m.postfab.fom_mean, 4),
                   io::console_table::num(m.postfab.metric_means.at("crosstalk"), 4),
                   io::console_table::num(m.postfab.metric_means.at("reflection"), 4)});
  }

  std::printf("\n");
  table.print("Waveguide crossing: conventional density flow vs BOSON-1");
  std::printf("\nArtifacts (masks, trajectories, summaries): crossing_out/\n");
  return 0;
}
