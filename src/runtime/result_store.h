/// \file result_store.h
/// Persistent campaign-level results: every completed job appends one JSON
/// line to `<campaign_dir>/results.jsonl` (thread-safe, latest-attempt-wins
/// on reload). The store stays one plain file, not a `store::segment_log`:
/// status polls count its rows on every request, and one file is the
/// cheapest thing to scan. `render_report` pivots the stored rows into the paper's
/// Table 1/2/3 layouts — a method x device grid of post-fab FoM mean +- std
/// aggregated over seeds/overrides, plus a per-device detail table — via
/// `io::table`.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/campaign.h"

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
///
/// Concurrent worker processes share one file through flock(2) on it, the
/// protocol of `store::segment_log`: an append is one O_APPEND write under a
/// shared lock, so appends interleave whole lines only; healing a torn tail
/// (`store::heal_torn_tail`) takes the exclusive lock, so it never truncates
/// a row another worker appended after the healer looked. Readers (`load`, `count_rows`) take no
/// lock and tolerate the torn tail instead.
class result_store {
 public:
  /// Opens the store for appending, creating `campaign_dir` and the file if
  /// needed. A crash-torn trailing fragment is truncated away first, so the
  /// next row cannot merge into it and become mid-file corruption.
  explicit result_store(const std::string& campaign_dir);
  ~result_store();

  result_store(const result_store&) = delete;
  result_store& operator=(const result_store&) = delete;

  /// Append one row as a single write; thread-safe, and in the kernel before
  /// returning.
  void append(const job_result_row& row);

  const std::string& path() const { return path_; }

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
  std::mutex mutex_;  ///< serializes this instance's appends
  std::string path_;
  int fd_ = -1;       ///< O_WRONLY | O_APPEND
};

/// Render the paper-shaped report: a coverage line ("N/M jobs"), the
/// Table 1/3-style method x device post-fab grid, and one detail table per
/// device (prefab / post-fab statistics per method x seed, plus an override
/// column when the campaign declares named overrides).
std::string render_report(const campaign_spec& spec,
                          const std::vector<job_result_row>& rows);

}  // namespace boson::runtime
