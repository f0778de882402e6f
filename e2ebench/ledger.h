/// \file ledger.h
/// The per-layer ledger of a traced benchmark run: span self times folded
/// from an `obs::trace_collector`, counters read from `obs::registry` by name
/// (an absent series reads 0, so the ledger survives deletions of the
/// mechanisms it observes), process CPU accounting, and the stage probe that
/// times the pipeline stages which carry no span of their own.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/spec.h"
#include "common/array2d.h"
#include "core/design_problem.h"
#include "core/run.h"
#include "obs/trace.h"

namespace e2e {

/// Metric name -> value. Every per-layer metric of BENCHMARK.json appears,
/// 0 where the workload does not exercise the layer.
using ledger = std::map<std::string, double>;

/// All per-layer metric names, zero-initialised.
ledger empty_ledger();

/// Category of the spans the benchmark wraps around its own calls; they are
/// excluded from trace coverage.
inline constexpr const char* bench_category = "bench";

/// Steady-clock (CLOCK_MONOTONIC) seconds — the timebase of Python's
/// `time.monotonic()`, so run.py can measure set-up from process spawn.
double monotonic_s();

/// User + system CPU seconds of this process so far.
double cpu_seconds();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Percentile `q` in [0,1] of `v` by linear interpolation (0 when empty).
double percentile(std::vector<double> v, double q);

/// Span-derived entries: `sim.*` self times and call counts, `runtime.*`
/// job span durations, and the distinct thread count.
void add_spans(ledger& out, const std::vector<boson::obs::trace_event>& events);

/// Counter-derived entries: engine-cache hit ratio, reuse counters, store
/// appends, job retries and lease steals.
void add_counters(ledger& out);

/// Self time of every program span (not the benchmark's own) over `wall_s`.
double trace_coverage(const std::vector<boson::obs::trace_event>& events, double wall_s);

/// Stage probe of one optimization: replays the corners of the iteration
/// after `checkpoints[checkpoints.size()/2]` stage by stage, single-threaded,
/// and scales each stage's per-call time by the run's call count.
void probe_optimize(ledger& out, const boson::api::experiment_spec& spec,
                    const std::vector<boson::core::run_checkpoint>& checkpoints);

/// Stage probe of a campaign's optimizations: re-runs each of `specs` (one
/// job per device x method pair) with per-iteration checkpoints, probes it
/// like `probe_optimize`, and sums the stages, each pair weighted by the
/// `jobs_per_spec` jobs it stands for. The jobs' Monte-Carlo evaluations are
/// not probed.
void probe_campaign(ledger& out, const std::vector<boson::api::experiment_spec>& specs,
                    double jobs_per_spec);

/// Stage probe of a post-fab Monte Carlo: replays `probe_samples` of its
/// samples (same corner draws as `postfab_monte_carlo(..., seed)`) and
/// scales per-call times by `samples`.
void probe_montecarlo(ledger& out, const boson::core::design_problem& problem,
                      const boson::array2d<double>& mask, std::size_t samples,
                      std::uint64_t seed, std::size_t probe_samples);

/// Per-append time of a fresh `store::segment_log` under `dir`, scaled by
/// the `store.appends` count already in `out`.
void probe_store_append(ledger& out, const std::string& dir);

}  // namespace e2e
