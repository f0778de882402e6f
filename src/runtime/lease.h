/// \file lease.h
/// Dynamic job leases over the shared campaign journal — the coordination
/// layer of elastic campaigns. Workers *claim* pending jobs by appending a
/// `leased` record and then re-reading the journal: because every worker
/// appends to one store with O_APPEND writes, replay order is a total order,
/// and the first claim to land wins (append-then-verify).
/// Live leases are kept alive with `lease_renewed` heartbeats; a lease whose
/// deadline passed can be taken over by any worker, which appends an
/// explicit `lease_expired` record (naming the victim lease) followed by its
/// own claim — that is how a SIGKILLed worker's jobs get re-leased instead
/// of stranded.
///
/// Time is pluggable (`clock_fn`): production uses the system clock (epoch
/// seconds, comparable across machines up to ordinary clock skew — keep TTLs
/// well above the skew of your fleet), tests inject manual clocks so lease
/// expiry is driven by advancing a number, never by sleeping.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/journal.h"

namespace boson::runtime {

/// Seconds-valued clock. The default (`wall_clock_seconds`) reads the system
/// clock; tests substitute manual clocks for deterministic expiry.
using clock_fn = std::function<double()>;

/// Unix-epoch seconds from the system clock (cross-process comparable).
double wall_clock_seconds();

/// Resolved lease state of one job after folding the journal history.
struct lease_view {
  enum class phase {
    pending,  ///< no live lease; the job is claimable (unless done)
    leased,   ///< a claim won and has not been released/expired/finished
    done,     ///< a `completed` record exists — terminal
  };

  phase state = phase::pending;
  std::string worker;          ///< live-lease owner (state == leased)
  std::uint64_t lease_id = 0;  ///< live-lease id (state == leased)
  double deadline = 0.0;       ///< live-lease expiry (state == leased)
  std::size_t attempts = 0;    ///< highest attempt number observed in any record
};

/// Deterministic fold of a journal history into per-job lease states.
///
/// Rules, applied in replay order per job:
///  - `completed` is terminal: the job is `done`; every later record for the
///    job is ignored (a racer's stale claim cannot resurrect it).
///  - `leased` wins only from `pending`; a claim over a live lease is a
///    *losing claim* and is ignored (the claimant observes this on its
///    verify pass and backs off).
///  - `lease_renewed` / `lease_released` take effect only when (worker,
///    lease_id) match the live lease — a heartbeat from a stolen lease is
///    void.
///  - `lease_expired` frees the job only when it names the live lease *and*
///    its stamp has reached the lease deadline; premature or mismatched
///    expiry records are ignored, so a slow worker cannot be robbed early.
///  - `failed` / `cancelled` from the lease owner (or from the pre-lease
///    legacy flow, which carries no worker) release the lease.
///
/// By construction at most one live lease exists per job at every prefix of
/// the history — the invariant the property tests replay-check.
class lease_table {
 public:
  /// Fold one record into the table (records must arrive in replay order).
  void apply(const journal_entry& e);

  /// Fold a whole replayed history.
  static lease_table resolve(const std::vector<journal_entry>& entries);

  /// The resolved view of `job` (a never-mentioned job is pending).
  lease_view view(std::size_t job) const;

  bool done(std::size_t job) const { return view(job).state == lease_view::phase::done; }

  /// True when `job` holds a lease whose deadline has not passed at `now`.
  bool live(std::size_t job, double now) const {
    const lease_view v = view(job);
    return v.state == lease_view::phase::leased && v.deadline > now;
  }

  const std::map<std::size_t, lease_view>& jobs() const { return jobs_; }

 private:
  std::map<std::size_t, lease_view> jobs_;
};

/// One claim held by this worker.
struct job_lease {
  std::size_t job_index = 0;
  std::string job_name;
  std::uint64_t lease_id = 0;
  double deadline = 0.0;
  std::size_t attempt = 0;     ///< the attempt number this claim starts
  bool stolen = false;         ///< the claim took over an expired lease
  std::string stolen_from;     ///< previous owner when `stolen`
};

/// Per-worker lease runtime: claims, heartbeats, and takeover of expired
/// leases, all through append-then-verify on the shared journal. Thread-safe
/// (one instance is shared by a scheduler's worker threads); reads are
/// incremental — each refresh folds only the records appended since the last
/// one, so claim cost stays proportional to journal growth, not journal
/// size.
class lease_manager {
 public:
  /// `log` is the journal this manager appends through and polls.
  /// `ttl` is the lease duration granted by claims/renewals.
  /// An empty `clock` uses `wall_clock_seconds`.
  lease_manager(journal& log, std::string worker_id, double ttl, clock_fn clock = {});

  /// Fold journal records appended since the last refresh into the table.
  void refresh();

  /// A copy of the current (last-refreshed) resolution. Prefer the query
  /// helpers below inside scheduling loops.
  lease_table snapshot();

  /// Try to claim `job`: returns the lease when this worker's claim won, or
  /// nullopt when the job is done, live-leased, or the claim lost an append
  /// race. Expired leases are taken over (an explicit `lease_expired` record
  /// precedes the claim, and the returned lease is marked `stolen`).
  std::optional<job_lease> claim(std::size_t job, const std::string& job_name);

  /// Heartbeat: extend the lease deadline by TTL. Returns false when the
  /// lease is no longer ours (expired + stolen, or the job completed
  /// elsewhere) — the caller must abandon the attempt.
  bool renew(job_lease& lease);

  /// Voluntarily give the job back (a claim that will not be run).
  void release(const job_lease& lease);

  /// True when `lease` is still the live lease and the job is not done.
  /// Workers call this immediately before committing results, so a worker
  /// that lost its lease mid-run forfeits instead of double-reporting.
  bool still_owner(const job_lease& lease);

  const std::string& worker() const { return worker_; }
  double ttl() const { return ttl_; }
  double now() const { return clock_(); }

 private:
  /// Fold journal records appended since the last refresh (mutex held).
  void refresh_locked();

  std::mutex mutex_;
  journal& log_;
  std::string worker_;
  double ttl_;
  clock_fn clock_;
  lease_table table_;
  std::uint64_t next_lease_id_ = 0;
  journal_cursor cursor_;  ///< journal position folded into `table_` so far
};

}  // namespace boson::runtime
