/// \file journal.h
/// Append-only durability log of a campaign: every job state transition
/// (leased, running, checkpointed, completed, failed, cancelled, ...) is one
/// JSON line in the campaign's `journal/` directory, a `store::segment_log`
/// (one growing segment). Appends are single O_APPEND writes, so concurrent
/// worker processes sharing one campaign directory interleave whole lines
/// only. Replay reconstructs the latest state per job — the scheduler's
/// crash-recovery source of truth — and tolerates a torn (crash-truncated)
/// final line.
///
/// The journal is also the *coordination* medium: workers claim jobs by
/// appending `leased` records, keep them alive with `lease_renewed`
/// heartbeats, and take over a dead worker's jobs by appending
/// `lease_expired` + a fresh claim. Because every appender shares one store,
/// replay order is a total order and resolves every claim race
/// deterministically (see `lease.h`).
///
/// `journal_path(campaign_dir)` names the store. It refuses a campaign
/// written before the store existed (a single `journal.jsonl` file) instead
/// of reading only part of its history.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/json.h"

namespace boson::store {
class segment_log;
}

namespace boson::runtime {

/// Lifecycle states a job moves through in the journal.
enum class job_state {
  leased,         ///< a worker claimed the job (winner decided by replay order)
  lease_renewed,  ///< heartbeat: the owner extended its lease deadline
  lease_released, ///< the owner gave the job back without finishing it
  lease_expired,  ///< a worker observed the lease deadline passed (steal prologue)
  running,        ///< an attempt started
  checkpointed,   ///< a mid-run snapshot was persisted (detail = next iteration)
  completed,      ///< finished; results are in the store
  failed,         ///< an attempt threw (detail = error message)
  cancelled,      ///< interrupted by cooperative cancellation
};

const char* to_string(job_state state);
job_state job_state_from_string(const std::string& text);

/// One journal record. The lease fields (`worker`, `lease_id`, `deadline`,
/// `stamp`) are only serialized when set, so pre-lease journals replay (and
/// re-serialize) unchanged.
struct journal_entry {
  std::size_t job_index = 0;
  std::string job_name;
  job_state state = job_state::leased;
  std::size_t attempt = 0;   ///< 1-based attempt number
  std::string detail;        ///< state-dependent payload (error, iteration, ...)
  double seconds = 0.0;      ///< wall-clock of the attempt (completed/failed)

  // Lease coordination fields.
  std::string worker;          ///< worker id that wrote (or is named by) the record
  std::uint64_t lease_id = 0;  ///< per-worker claim counter; (worker, lease_id) is unique
  double deadline = 0.0;       ///< absolute lease expiry time (leased / lease_renewed)
  double stamp = 0.0;          ///< the writer's clock when the record was appended

  io::json_value to_json() const;
  static journal_entry from_json(const io::json_value& v);
};

/// Resumable position in a journal: how much has been consumed so far.
/// Pollers — the event stream, the lease manager — keep one per journal and
/// fold only what appended since, so poll cost tracks journal *growth*
/// instead of journal size. The offset is a `store::segment_log` cursor and
/// doubles as the control plane's wire cursor (`?cursor=N`). In a journal an
/// earlier build compacted, a cursor into a compacted-away segment resumes
/// at the covering snapshot (at-least-once re-delivery — safe for the
/// latest-wins / lease-fold consumers).
struct journal_cursor {
  std::uint64_t offset = 0;  ///< store cursor; 0 = start of the journal
  std::size_t line = 0;      ///< complete lines already consumed
};

/// The campaign journal's store directory (`<campaign_dir>/journal`); it
/// creates nothing. A campaign still holding a pre-store single-file
/// `journal.jsonl` throws `io_error` naming the file, since the store would
/// hide that history.
std::string journal_path(const std::string& campaign_dir);

/// Append-only JSONL writer + replayer over one store directory.
class journal {
 public:
  /// Open (creating if needed) the journal store at `dir` — the value
  /// `journal_path` returns. The first append heals a crash-torn tail.
  /// `on_append`, if set, runs on the appending thread after every record
  /// this handle appends (the service wakes its events long-polls with it).
  explicit journal(std::string dir, std::function<void()> on_append = {});

  ~journal();

  /// Append one record; thread-safe, flushed before returning so a crash
  /// after `append` never loses the record.
  void append(const journal_entry& entry);

  /// The store directory.
  const std::string& path() const { return path_; }

  /// Parse every complete line of a journal, in order. A malformed final
  /// line (a racing writer's record seen mid-append) is ignored; a
  /// malformed line anywhere else throws `io_error` naming the line number.
  /// A missing journal replays to an empty history.
  static std::vector<journal_entry> replay(const std::string& path);

  /// Incremental replay: parse the records appended after `cursor` and
  /// advance it past every record returned. The torn-tail contract carries
  /// over — an unterminated final fragment, or a malformed final line (a
  /// racing writer's flush seen mid-append), is left *before* the cursor for
  /// the next poll; a malformed line with a successor throws `io_error`
  /// naming the line. A missing journal returns no records and leaves the
  /// cursor untouched; a cursor that names no segment throws `bad_argument`.
  static std::vector<journal_entry> since(const std::string& path,
                                          journal_cursor& cursor);

  /// `since` through this journal's open store handle, which keeps its lock
  /// file open and its manifest fold cached between calls — the lease
  /// manager's claim/verify loop polls this way.
  std::vector<journal_entry> poll(journal_cursor& cursor);

  /// Raw-line incremental read for consumers that forward journal lines
  /// verbatim (the control plane's NDJSON event stream): complete non-blank
  /// lines after `cursor`, advancing it, without parsing. `max_lines` 0 = no
  /// cap — the event stream passes its page size so one slow consumer never
  /// buffers an unbounded backlog. A missing journal returns no lines and
  /// leaves the cursor untouched; a cursor that names no segment throws
  /// `bad_argument`.
  static std::vector<std::string> raw_since(const std::string& path,
                                            std::uint64_t& cursor,
                                            std::size_t max_lines = 0);

  /// Reduce a replayed history to the latest entry per job index. Note that
  /// with lease coordination the *latest* record can be a losing claim or a
  /// heartbeat; scheduling decisions go through `lease_table::resolve`
  /// instead, which folds the full history.
  static std::map<std::size_t, journal_entry> latest_states(
      const std::vector<journal_entry>& entries);

 private:
  std::string path_;
  std::unique_ptr<store::segment_log> store_;
  std::function<void()> on_append_;
};

}  // namespace boson::runtime
