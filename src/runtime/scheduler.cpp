#include "runtime/scheduler.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/log.h"
#include "common/timer.h"
#include "core/methods.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"

namespace boson::runtime {

namespace {

namespace fs = std::filesystem;

/// Scheduler counters and gauges in the process-wide obs registry; resolved
/// once, relaxed-atomic to update.
struct sched_metrics_block {
  obs::gauge& queue_depth;
  obs::counter& completed;
  obs::counter& failed;
  obs::counter& cancelled;
  obs::counter& claimed;
  obs::counter& stolen;
  obs::counter& lost;
};

sched_metrics_block& sched_metrics() {
  auto& reg = obs::registry::global();
  static sched_metrics_block block{
      reg.get_gauge("runtime.scheduler.queue_depth"),
      reg.get_counter("runtime.scheduler.jobs_completed"),
      reg.get_counter("runtime.scheduler.jobs_failed"),
      reg.get_counter("runtime.scheduler.jobs_cancelled"),
      reg.get_counter("runtime.scheduler.leases_claimed"),
      reg.get_counter("runtime.scheduler.leases_stolen"),
      reg.get_counter("runtime.scheduler.leases_lost")};
  return block;
}

/// Observer each attempt runs under: forwards to the worker's inner observer
/// and, at every iteration/stage boundary,
///  1. turns a cancel request into `cancelled_error` — never after the work
///     already finished, so a cancel that lands during final artifact writes
///     does not discard a completed job;
///  2. counts the `mid_run` fault point (iteration boundaries only);
///  3. heartbeats the job's lease once a third of the TTL has elapsed,
///     turning a failed renewal (the lease was stolen) into
///     `lease_lost_error` so the attempt is abandoned promptly.
class lease_guard : public api::observer {
 public:
  lease_guard(api::observer* inner, const std::atomic<bool>& cancel_flag,
              lease_manager& manager, job_lease& lease, fault_injector* faults)
      : inner_(inner), cancel_(cancel_flag), manager_(manager), lease_(lease),
        faults_(faults) {}

  void on_event(const api::progress_event& event) override {
    using phase = api::progress_event::phase;
    const bool boundary = event.kind == phase::iteration_finished ||
                          event.kind == phase::stage_started;
    if (boundary) {
      if (cancel_.load())
        throw cancelled_error("job '" + event.experiment + "' cancelled");
      if (faults_ != nullptr && event.kind == phase::iteration_finished)
        faults_->hit(fault_point::mid_run, lease_.job_index, lease_.job_name,
                     lease_.attempt);
      if (manager_.now() >= lease_.deadline - 2.0 / 3.0 * manager_.ttl() &&
          !manager_.renew(lease_))
        throw lease_lost_error("job '" + event.experiment +
                               "' lease lost at a heartbeat");
    }
    if (inner_ != nullptr) inner_->on_event(event);
  }

 private:
  api::observer* inner_;
  const std::atomic<bool>& cancel_;
  lease_manager& manager_;
  job_lease& lease_;
  fault_injector* faults_;
};

job_result_row make_row(const campaign_job& job, const api::experiment_result& result,
                        std::size_t attempt, double seconds) {
  job_result_row row;
  row.job_index = job.index;
  row.name = job.name;
  row.device = job.spec.device;
  row.method = job.spec.method;
  row.seed = job.spec.seed;
  row.prefab_fom = result.method.prefab_fom;
  row.postfab_samples = result.method.postfab.samples;
  row.postfab_mean = result.method.postfab.fom_mean;
  row.postfab_std = result.method.postfab.fom_std;
  row.postfab_min = result.method.postfab.fom_min;
  row.postfab_max = result.method.postfab.fom_max;
  row.seconds = seconds;
  row.attempt = attempt;
  row.artifact_dir = result.artifact_dir;
  row.recipe = api::resolved_recipe(job.spec).signature();
  return row;
}

}  // namespace

std::string default_worker_id() { return "w" + std::to_string(::getpid()); }

std::string campaign_spec_path(const std::string& campaign_dir) {
  return (fs::path(campaign_dir) / "campaign.json").string();
}

std::string job_directory(const std::string& campaign_dir, const std::string& job_name) {
  // api::artifact_name is the session's own sanitizer, so checkpoints land
  // in the exact directory the session writes the job's artifacts into.
  return (fs::path(campaign_dir) / "jobs" / api::artifact_name(job_name)).string();
}

scheduler::scheduler(campaign_spec spec, scheduler_options options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

scheduler_settings scheduler::effective_settings() const {
  scheduler_settings settings = spec_.scheduler;
  if (options_.workers) settings.workers = *options_.workers;
  if (options_.max_retries) settings.max_retries = *options_.max_retries;
  if (options_.checkpoint_every) settings.checkpoint_every = *options_.checkpoint_every;
  if (options_.lease_ttl) settings.lease_ttl = *options_.lease_ttl;
  settings.workers = std::max<std::size_t>(1, settings.workers);
  require(settings.lease_ttl > 0.0, "scheduler: lease TTL must be positive");
  return settings;
}

std::string scheduler::worker_id() const {
  return options_.worker_id.empty() ? default_worker_id() : options_.worker_id;
}

scheduler_report scheduler::run() {
  const stopwatch sw;
  // Each run starts un-cancelled: the documented re-run contract gives
  // previously cancelled jobs a fresh chance (cancel() during this run
  // still stops it).
  cancel_.store(false);
  const scheduler_settings settings = effective_settings();
  const bool tracing = options_.trace || env_int("BOSON_TRACE", 0) != 0;
  const std::vector<campaign_job> all_jobs = spec_.expand();

  journal log(journal_path(options_.campaign_dir), options_.on_append);
  result_store store(options_.campaign_dir);
  fs::create_directories(fs::path(options_.campaign_dir) / "jobs");
  lease_manager manager(log, worker_id(), settings.lease_ttl, options_.clock);
  fault_injector* const faults = options_.faults;

  // Every job, minus what the journal already proved done.
  scheduler_report report;
  report.jobs = all_jobs.size();
  std::vector<const campaign_job*> pending;
  {
    const lease_table table = manager.snapshot();
    for (const campaign_job& job : all_jobs) {
      if (table.done(job.index)) {
        ++report.skipped;
        continue;
      }
      pending.push_back(&job);
    }
  }

  if (pending.empty()) {
    report.wall_seconds = sw.seconds();
    return report;
  }

  const auto journal_event = [&log, &manager](const campaign_job& job, job_state state,
                                              std::size_t attempt,
                                              const std::string& detail = "",
                                              double seconds = 0.0,
                                              const job_lease* lease = nullptr) {
    journal_entry e;
    e.job_index = job.index;
    e.job_name = job.name;
    e.state = state;
    e.attempt = attempt;
    e.detail = detail;
    e.seconds = seconds;
    if (lease != nullptr) {
      e.worker = manager.worker();
      e.lease_id = lease->lease_id;
    }
    e.stamp = manager.now();
    log.append(e);
  };

  std::mutex report_mutex;
  std::atomic<std::size_t> next{0};

  // One leased attempt sequence for `job`: run (resuming from a persisted
  // checkpoint if one exists), commit on success, re-claim between retries —
  // a `failed` record releases the lease, so each retry has to win the job
  // back before burning simulation time on it.
  const auto run_leased_job = [&](const campaign_job& job, job_lease lease,
                                  api::observer* inner) {
    const std::string dir = job_directory(options_.campaign_dir, job.name);
    const std::string snapshot = checkpoint_path(dir);
    bool counted_resume = false;

    for (std::size_t try_index = 0; try_index <= settings.max_retries; ++try_index) {
      if (try_index > 0) {
        // The failed record released the lease; win it back for the retry.
        std::optional<job_lease> again;
        {
          obs::span lease_sp("job.lease", "runtime");
          if (lease_sp.active()) lease_sp.arg("job", job.name);
          again = manager.claim(job.index, job.name);
        }
        if (!again) {
          sched_metrics().lost.inc();
          const std::lock_guard<std::mutex> lock(report_mutex);
          ++report.lost;  // another worker took (or finished) the retry
          return;
        }
        lease = *again;
        sched_metrics().claimed.inc();
        if (lease.stolen) sched_metrics().stolen.inc();
        const std::lock_guard<std::mutex> lock(report_mutex);
        ++report.claimed;
        if (lease.stolen) ++report.stolen;
      }
      const std::size_t attempt = lease.attempt;
      lease_guard guard(inner, cancel_, manager, lease, faults);

      api::run_control control;
      if (settings.checkpoint_every > 0) {
        control.checkpoint_every = settings.checkpoint_every;
        control.on_checkpoint = [&](const core::run_checkpoint& ck) {
          obs::span ck_sp("job.checkpoint", "runtime");
          if (ck_sp.active())
            ck_sp.arg("iteration", std::to_string(ck.next_iteration));
          save_checkpoint(dir, job.name, ck);
          journal_event(job, job_state::checkpointed, attempt,
                        "iteration " + std::to_string(ck.next_iteration) + "/" +
                            std::to_string(ck.total_iterations),
                        0.0, &lease);
          if (faults != nullptr)
            faults->hit(fault_point::after_checkpoint, job.index, job.name, attempt);
          // A persisted checkpoint is the natural heartbeat: whoever steals
          // this lease resumes from here, so renewing now keeps the lease
          // honest about how stale a steal could be.
          if (!manager.renew(lease))
            throw lease_lost_error("job '" + job.name +
                                   "' lease lost at a checkpoint");
        };
      }

      // Restore any persisted snapshot — also when checkpointing is now
      // disabled, so `campaign resume` picks up mid-flight work regardless.
      std::string resume_note;
      if (fs::exists(snapshot)) {
        try {
          checkpoint_file file = load_checkpoint(snapshot);
          require(file.job == job.name,
                  "checkpoint belongs to job '" + file.job + "'");
          // A snapshot from a different effective run length (an edited
          // campaign spec) would be rejected by the optimizer on every
          // retry; discard it here so the job runs fresh instead of burning
          // its whole budget on the same dead state.
          // Resolve through the recipe: a recipe-level iterations override
          // changes the run length the checkpoints were captured under.
          const std::size_t expected =
              core::resolved_run_options(api::resolved_recipe(job.spec),
                                         api::session::config_for(job.spec))
                  .iterations;
          require(file.state.total_iterations == expected,
                  "checkpoint captured for " +
                      std::to_string(file.state.total_iterations) +
                      " iterations, the run expects " + std::to_string(expected));
          resume_note =
              "resume from iteration " + std::to_string(file.state.next_iteration);
          control.resume =
              std::make_shared<const core::run_checkpoint>(std::move(file.state));
        } catch (const std::exception& e) {
          log_warn("scheduler: discarding unusable checkpoint '", snapshot,
                   "': ", e.what());
          std::error_code ec;
          fs::remove(snapshot, ec);
        }
      }

      journal_event(job, job_state::running, attempt, resume_note, 0.0, &lease);
      if (!resume_note.empty() && !counted_resume) {
        counted_resume = true;
        const std::lock_guard<std::mutex> lock(report_mutex);
        ++report.resumed;
      }

      const stopwatch job_sw;
      try {
        api::experiment_result result;
        {
          obs::span run_sp("job.run", "runtime");
          if (run_sp.active()) {
            run_sp.arg("job", job.name);
            run_sp.arg("attempt", std::to_string(attempt));
            run_sp.arg("worker", manager.worker());
          }
          result = options_.executor ? options_.executor(job, control, &guard)
                                     : execute_with_session(job, control, &guard);
        }
        // Commit protocol: prove the lease is still ours, then row first,
        // then the journal — "completed" implies stored, and a worker that
        // lost its lease mid-run forfeits instead of double-reporting (the
        // stealer's bit-identical resumed result is the one that lands).
        if (!manager.still_owner(lease)) {
          sched_metrics().lost.inc();
          const std::lock_guard<std::mutex> lock(report_mutex);
          ++report.lost;
          return;
        }
        if (faults != nullptr)
          faults->hit(fault_point::before_result, job.index, job.name, attempt);
        const job_result_row row = make_row(job, result, attempt, job_sw.seconds());
        {
          obs::span commit_sp("job.commit", "runtime");
          if (commit_sp.active()) commit_sp.arg("job", job.name);
          store.append(row);
          journal_event(job, job_state::completed, attempt, "", row.seconds, &lease);
        }
        std::error_code ec;
        fs::remove(snapshot, ec);
        fs::remove(fs::path(dir) / "checkpoint.pgm", ec);
        sched_metrics().completed.inc();
        const std::lock_guard<std::mutex> lock(report_mutex);
        ++report.completed;
        report.rows.push_back(row);
        return;
      } catch (const cancelled_error& e) {
        // Releases the lease in resolution, so another worker can pick the
        // job up; the checkpoint stays for them (or a later resume).
        journal_event(job, job_state::cancelled, attempt, e.what(), job_sw.seconds(),
                      &lease);
        sched_metrics().cancelled.inc();
        const std::lock_guard<std::mutex> lock(report_mutex);
        ++report.cancelled;
        return;  // cancellation is not a failure: no retry
      } catch (const lease_lost_error& e) {
        // The job is someone else's now — nothing to journal (our lease
        // fields would resolve as void anyway).
        log_warn("scheduler: ", e.what(), "; abandoning the attempt");
        sched_metrics().lost.inc();
        const std::lock_guard<std::mutex> lock(report_mutex);
        ++report.lost;
        return;
      } catch (const io_error&) {
        // Durability (journal/store/checkpoint) or artifact IO died — disk
        // full, permissions. Re-running the simulation cannot fix that and
        // its outcome could not be made durable anyway: escalate so
        // worker_main stops the whole campaign instead of burning
        // retries x simulation time per job.
        throw;
      } catch (const std::exception& e) {
        // A checkpoint the optimizer itself refused (e.g. the spec changed
        // between runs in a way the proactive validation above misses) is
        // unusable: drop it so the retry — or a later resume — runs fresh.
        if (control.resume != nullptr && dynamic_cast<const bad_argument*>(&e) != nullptr &&
            std::string(e.what()).find("resume checkpoint") != std::string::npos) {
          log_warn("scheduler: discarding checkpoint the optimizer refused ('",
                   e.what(), "')");
          std::error_code ec;
          fs::remove(snapshot, ec);
        }
        journal_event(job, job_state::failed, attempt, e.what(), job_sw.seconds(),
                      &lease);
        if (try_index == settings.max_retries) {
          sched_metrics().failed.inc();
          const std::lock_guard<std::mutex> lock(report_mutex);
          ++report.failed;
          report.errors.push_back(job.name + ": " + e.what());
        } else {
          log_warn("scheduler: job '", job.name, "' attempt ", attempt, " failed (",
                   e.what(), "); retrying");
        }
      }
    }
  };

  const auto worker_main = [&](std::size_t thread_id) {
    api::log_observer tagged("[" + manager.worker() + ".t" +
                             std::to_string(thread_id) + "] ");
    api::observer* inner = options_.watcher != nullptr ? options_.watcher : &tagged;

    while (!cancel_.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      sched_metrics().queue_depth.set(
          static_cast<double>(pending.size() - std::min(i + 1, pending.size())));
      const campaign_job& job = *pending[i];
      try {
        // Per-job trace buffer: spans recorded on this thread while the job
        // runs (lease, run, checkpoints, commit, and the sim spans beneath
        // them) land in a `trace.json` artifact next to summary.json.
        std::unique_ptr<obs::trace_collector> job_trace;
        std::unique_ptr<obs::scoped_trace_sink> trace_sink;
        if (tracing) {
          job_trace = std::make_unique<obs::trace_collector>();
          trace_sink = std::make_unique<obs::scoped_trace_sink>(job_trace.get());
        }
        std::optional<job_lease> lease;
        {
          obs::span lease_sp("job.lease", "runtime");
          if (lease_sp.active()) lease_sp.arg("job", job.name);
          lease = manager.claim(job.index, job.name);
        }
        if (!lease) {
          // Done, live-leased elsewhere (including by a sibling thread of
          // this worker), or a lost claim race. Never wait on another
          // worker's live lease — report it and move on.
          const lease_view v = manager.snapshot().view(job.index);
          const std::lock_guard<std::mutex> lock(report_mutex);
          if (v.state == lease_view::phase::done) ++report.skipped;
          else ++report.left_leased;
          continue;
        }
        sched_metrics().claimed.inc();
        if (lease->stolen) sched_metrics().stolen.inc();
        {
          const std::lock_guard<std::mutex> lock(report_mutex);
          ++report.claimed;
          if (lease->stolen) ++report.stolen;
        }
        if (lease->stolen)
          log_warn("scheduler[", manager.worker(), "]: took over job '", job.name,
                   "' from expired lease of '", lease->stolen_from, "'");
        if (faults != nullptr)
          faults->hit(fault_point::after_lease, job.index, job.name, lease->attempt);
        run_leased_job(job, *lease, inner);
        if (job_trace != nullptr && job_trace->size() > 0) {
          trace_sink.reset();  // stop recording before the export
          const std::string dir = job_directory(options_.campaign_dir, job.name);
          fs::create_directories(dir);
          job_trace->write_chrome_json((fs::path(dir) / "trace.json").string());
        }
      } catch (const std::exception& e) {
        // Journal/store IO died: stop the campaign rather than run jobs
        // whose outcomes cannot be made durable.
        cancel_.store(true);
        const std::lock_guard<std::mutex> lock(report_mutex);
        report.errors.push_back(std::string("scheduler worker: ") + e.what());
      }
    }
  };

  const std::size_t worker_count = std::min(settings.workers, pending.size());
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) workers.emplace_back(worker_main, w);
  for (std::thread& t : workers) t.join();
  sched_metrics().queue_depth.set(0.0);

  report.wall_seconds = sw.seconds();
  log_info("scheduler[", spec_.name, " ", manager.worker(), "]: ",
           report.completed, " completed, ", report.skipped, " skipped, ",
           report.failed, " failed, ", report.cancelled, " cancelled, ",
           report.stolen, " stolen, ", report.left_leased, " left leased in ",
           report.wall_seconds, " s");
  return report;
}

api::experiment_result scheduler::execute_with_session(const campaign_job& job,
                                                       const api::run_control& control,
                                                       api::observer* watcher) {
  api::session_options so;
  so.output_dir = (fs::path(options_.campaign_dir) / "jobs").string();
  so.write_artifacts = options_.write_artifacts;
  so.watcher = watcher;
  api::session session(so);
  return session.run(job.spec, control);
}

}  // namespace boson::runtime
