/// \file workloads.h
/// The three benchmark workloads, one repetition per process. Each builds its
/// inputs from the workload seed, marks when its first unit of work starts,
/// runs, checks its own outputs, and (traced) fills the per-layer ledger.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace e2e {

/// How one repetition went.
struct rep_result {
  double first_work_at = 0.0;  ///< monotonic_s() when the first unit of work started
  double work_s = 0.0;         ///< wall of the work itself
  std::vector<double> unit_s;  ///< latencies of the units a user waits on
  std::size_t attempted = 0;   ///< operations checked
  std::vector<std::string> failures;  ///< one line per failed operation
  std::string result_hash;     ///< bit hash of the result ("" when not applicable)
  std::map<std::string, double> values;  ///< checked outputs, for run.py's tolerance test
  ledger layers;               ///< traced runs only
};

struct rep_options {
  std::uint64_t seed = 1;
  std::uint64_t rep = 0;          ///< repetition index (fresh Monte-Carlo stream per rep)
  bool traced = false;
  bool setup_only = false;        ///< stop where the first unit of work would start
  std::string scratch = ".";      ///< directory this process may write into
};

/// One BOSON-1 run on the bend at resolution 0.05, spec JSON -> api::session.
rep_result run_optimize(const rep_options& opt);

/// Post-fab Monte Carlo of a fixed bend mask at resolution 0.05.
rep_result run_montecarlo(const rep_options& opt);

/// The bend/crossing campaign submitted over loopback HTTP to an in-process
/// campaign service, watched the way `boson_cli campaign watch` watches it.
rep_result run_campaign_served(const rep_options& opt);

}  // namespace e2e
