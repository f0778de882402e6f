/// \file result_store.h
/// Persistent campaign-level results: every completed job appends one JSON
/// line to `<campaign_dir>/results.jsonl` (thread-safe, latest-attempt-wins
/// on reload), and `render_report` pivots the stored rows into the paper's
/// Table 1/2/3 layouts — a method x device grid of post-fab FoM mean +- std
/// aggregated over seeds/overrides, plus a per-device detail table — via
/// `io::table`.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/campaign.h"
#include "runtime/jsonl.h"

namespace boson::runtime {

/// One stored job result (the summary fields reports aggregate over).
struct job_result_row {
  std::size_t job_index = 0;
  std::string name;
  std::string device;
  std::string method;
  std::uint64_t seed = 0;
  double prefab_fom = 0.0;
  std::size_t postfab_samples = 0;  ///< 0 when the job planned no Monte Carlo
  double postfab_mean = 0.0;
  double postfab_std = 0.0;
  double postfab_min = 0.0;
  double postfab_max = 0.0;
  double seconds = 0.0;
  std::size_t attempt = 1;
  std::string artifact_dir;
  std::string recipe;  ///< resolved-recipe signature (method provenance)

  io::json_value to_json() const;
  static job_result_row from_json(const io::json_value& v);
};

/// Append-only JSONL store of job results inside a campaign directory.
class result_store {
 public:
  /// Opens (and heals, see `jsonl_appender`) the store for appending.
  explicit result_store(const std::string& campaign_dir);

  /// Append one row; thread-safe and flushed (line-atomic, so concurrent
  /// worker processes share one store).
  void append(const job_result_row& row);

  const std::string& path() const { return out_.path(); }

  /// Load every row of a campaign's store; duplicate job indices (retries,
  /// re-runs) collapse to the latest row. A missing store loads empty; a
  /// torn trailing line (crash mid-append, or a live reader racing a
  /// writer's flush) is ignored, corruption anywhere else throws.
  static std::vector<job_result_row> load(const std::string& campaign_dir);

  /// What `load(campaign_dir).size()` would return — the number of distinct
  /// jobs with a stored result — without materializing a single row.
  /// Status polls (CLI `campaign status`, the service control plane) call
  /// this per request, so it scans the store once, extracting only each
  /// line's job index: the canonical rows the store itself writes yield it
  /// from the leading `"job":` field; foreign-but-valid rows fall back to a
  /// full parse. Same torn-tail tolerance as `load`.
  static std::size_t count_rows(const std::string& campaign_dir);

  /// The store file inside `campaign_dir`.
  static std::string store_path(const std::string& campaign_dir);

 private:
  jsonl_appender out_;
};

/// Render the paper-shaped report: a coverage line ("N/M jobs"), the
/// Table 1/3-style method x device post-fab grid, and one detail table per
/// device (prefab / post-fab statistics per method x seed, plus an override
/// column when the campaign declares named overrides).
std::string render_report(const campaign_spec& spec,
                          const std::vector<job_result_row>& rows);

}  // namespace boson::runtime
