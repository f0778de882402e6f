/// boson_e2e — one repetition of one benchmark workload, in this process.
///
///   boson_e2e <optimize|montecarlo|campaign_served> --seed N [--rep R]
///             [--trace | --setup-only] [--scratch DIR]
///
/// Prints one JSON object on its last stdout line: when the first unit of
/// work started (CLOCK_MONOTONIC seconds), the work's wall time, per-unit
/// latencies, the output checks, a result hash, and — with --trace — the
/// per-layer ledger. `run.py` spawns one process per repetition, so no
/// repetition inherits caches, memos or threads from another.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "io/json.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: boson_e2e <optimize|montecarlo|campaign_served> --seed N [--rep R]"
               " [--trace | --setup-only] [--scratch DIR]\n";
  return 2;
}

boson::io::json_value to_json(const e2e::rep_result& r, double rss_mb) {
  using boson::io::json_value;
  json_value v = json_value::object();
  v["first_work_at"] = r.first_work_at;
  v["work_s"] = r.work_s;
  json_value units = json_value::array();
  for (const double u : r.unit_s) units.push_back(u);
  v["unit_s"] = std::move(units);
  v["attempted"] = r.attempted;
  json_value failures = json_value::array();
  for (const auto& f : r.failures) failures.push_back(f);
  v["failures"] = std::move(failures);
  v["result_hash"] = r.result_hash;
  v["values"] = json_value::from_map(r.values);
  v["layers"] = json_value::from_map(r.layers);
  v["peak_rss_mb"] = rss_mb;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  e2e::rep_options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      opt.traced = true;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--rep" && has_value) {
      opt.rep = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scratch" && has_value) {
      opt.scratch = argv[++i];
    } else {
      return usage();
    }
  }

  try {
    std::filesystem::create_directories(opt.scratch);
    e2e::rep_result r;
    if (workload == "optimize") r = e2e::run_optimize(opt);
    else if (workload == "montecarlo") r = e2e::run_montecarlo(opt);
    else if (workload == "campaign_served") r = e2e::run_campaign_served(opt);
    else return usage();
    std::cout << to_json(r, e2e::peak_rss_mb()).dump(-1) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "boson_e2e " << workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
