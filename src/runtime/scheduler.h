/// \file scheduler.h
/// The campaign execution engine: expands a `campaign_spec` and runs its
/// jobs across a bounded pool of worker threads with per-job retry,
/// cooperative cancellation, and durability. Work is distributed *elastically*
/// through journal leases (`lease.h`): every worker process claims pending
/// jobs by appending to the shared journal, heartbeats them while running,
/// and takes over leases whose owners died — so workers can join or leave a
/// campaign freely, and a SIGKILLed worker's jobs get re-leased instead of
/// stranded. Every state transition lands in the append-only journal and
/// every completed job in the result store; a killed scheduler resumes by
/// replaying the journal, restarting mid-flight jobs from their last
/// persisted checkpoint instead of iteration zero.

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/observer.h"
#include "api/session.h"
#include "common/error.h"
#include "runtime/campaign.h"
#include "runtime/fault.h"
#include "runtime/lease.h"
#include "runtime/result_store.h"

namespace boson::runtime {

/// Thrown through a job when `scheduler::cancel` interrupts it at an
/// iteration/stage boundary. The job's last checkpoint stays on disk, so a
/// later `resume` continues where the cancellation struck.
class cancelled_error : public error {
 public:
  using error::error;
};

/// Thrown through a job when a heartbeat discovers its lease is gone —
/// another worker proved it expired and took the job over. The attempt is
/// abandoned without journaling a result; the new owner's result is the one
/// that counts.
class lease_lost_error : public error {
 public:
  using error::error;
};

/// Pluggable job execution: the default runs the spec through an
/// `api::session` into `<campaign_dir>/jobs/<name>/`; tests and benchmarks
/// substitute synthetic executors to exercise the scheduling machinery
/// without simulations. `watcher` is the scheduler's per-job observer (it
/// enforces cancellation and lease heartbeats — executors should forward
/// progress through it).
using job_executor = std::function<api::experiment_result(
    const campaign_job& job, const api::run_control& control, api::observer* watcher)>;

/// The worker id a scheduler uses when none is configured: "w<pid>", unique
/// per process on one machine — the normal one-worker-per-process case.
std::string default_worker_id();

struct scheduler_options {
  /// Campaign working directory: journal, result store, and job artifacts.
  std::string campaign_dir = "boson_campaign";

  /// Identity this process claims leases under. Empty: `default_worker_id()`.
  /// Two live workers must never share an id (threads within one scheduler
  /// share it by design).
  std::string worker_id;

  /// Overrides of the campaign's scheduler settings (unset: use the spec's).
  std::optional<std::size_t> workers;
  std::optional<std::size_t> max_retries;
  std::optional<std::size_t> checkpoint_every;
  std::optional<double> lease_ttl;

  bool write_artifacts = true;

  /// Capture a span trace per job attempt and write it as a Chrome
  /// `trace.json` artifact next to the job's summary.json. Also enabled
  /// process-wide by the BOSON_TRACE environment variable.
  bool trace = false;

  /// Shared progress receiver; must be thread-safe (see `api::observer`).
  /// nullptr: each worker logs through a worker-prefixed `log_observer`.
  api::observer* watcher = nullptr;

  /// Execution override for tests/benchmarks (empty: the api::session path).
  job_executor executor;

  /// Lease clock override (empty: `wall_clock_seconds`). Tests drive expiry
  /// by injecting manual clocks instead of sleeping.
  clock_fn clock;

  /// Deterministic kill points (tests / `--fault`); nullptr: none.
  fault_injector* faults = nullptr;

  /// Called on the appending thread after every journal record this
  /// scheduler appends (claims, heartbeats, transitions). The service wakes
  /// the campaign's events long-polls with it. Empty: nothing.
  std::function<void()> on_append;
};

/// What one `scheduler::run` call did to the jobs it considered.
struct scheduler_report {
  std::size_t jobs = 0;         ///< jobs in the campaign
  std::size_t completed = 0;    ///< finished during this run
  std::size_t skipped = 0;      ///< already completed per the journal
  std::size_t failed = 0;       ///< exhausted their retry budget
  std::size_t cancelled = 0;    ///< interrupted by `cancel`
  std::size_t resumed = 0;      ///< restarted from a mid-flight checkpoint
  std::size_t claimed = 0;      ///< leases this run won
  std::size_t stolen = 0;       ///< claims that took over an expired lease
  std::size_t lost = 0;         ///< attempts abandoned because the lease was lost
  std::size_t left_leased = 0;  ///< jobs skipped because another worker holds a live lease
  double wall_seconds = 0.0;
  std::vector<job_result_row> rows;    ///< result-store rows appended this run
  std::vector<std::string> errors;     ///< messages of permanently-failed jobs
};

/// Lease-coordinated, journaled, resumable campaign runner.
class scheduler {
 public:
  scheduler(campaign_spec spec, scheduler_options options);

  /// Execute pending jobs this worker can claim; blocks until every job it
  /// considers is done, held by another live worker, or failed permanently
  /// (it never waits on another worker's live lease — re-run, or run a
  /// second worker, to pick up leftovers). Safe to call again on the same
  /// campaign directory — completed jobs are skipped, failed/cancelled jobs
  /// get a fresh retry budget.
  scheduler_report run();

  /// Cooperative cancellation, callable from any thread (or from a job's
  /// observer callback): no new jobs are dispatched and running jobs stop at
  /// their next iteration/stage boundary, leaving their checkpoints behind.
  void cancel() { cancel_.store(true); }
  bool cancel_requested() const { return cancel_.load(); }

  const campaign_spec& spec() const { return spec_; }

  /// Effective settings after applying option overrides to the spec.
  scheduler_settings effective_settings() const;

  /// Effective worker id (the configured one, or `default_worker_id()`).
  std::string worker_id() const;

 private:
  api::experiment_result execute_with_session(const campaign_job& job,
                                              const api::run_control& control,
                                              api::observer* watcher);

  campaign_spec spec_;
  scheduler_options options_;
  std::atomic<bool> cancel_{false};
};

/// Path helpers shared by the scheduler and the CLI (`journal_path` lives
/// in journal.h).
std::string campaign_spec_path(const std::string& campaign_dir);
std::string job_directory(const std::string& campaign_dir, const std::string& job_name);

}  // namespace boson::runtime
