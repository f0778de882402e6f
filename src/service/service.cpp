#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"
#include "runtime/journal.h"
#include "runtime/lease.h"
#include "runtime/result_store.h"

namespace boson::service {

namespace {

/// Registry key of a campaign ("tenant/id") — the active_/claimed_ map key.
std::string key_of(const std::string& tenant, const std::string& id) {
  return tenant + "/" + id;
}

}  // namespace

campaign_service::campaign_service(service_options options)
    : options_(std::move(options)),
      registry_({options_.data_dir, options_.tenant_quota}) {
  options_.runners = std::max<std::size_t>(1, options_.runners);
  require(options_.poll_interval > 0.0, "campaign_service: poll interval must be positive");

  // Bearer-token auth is on when a tenants.json sits in the data root:
  // a flat {"tenant": "token"} object.
  const std::string tokens_path =
      (std::filesystem::path(options_.data_dir) / "tenants.json").string();
  std::error_code ec;
  if (std::filesystem::exists(tokens_path, ec)) {
    const io::json_value doc = io::json_value::parse_file(tokens_path);
    for (const auto& [tenant, token] : doc.members()) {
      require(valid_tenant(tenant),
              "campaign_service: invalid tenant '" + tenant + "' in " + tokens_path);
      require(!token.as_string().empty(),
              "campaign_service: empty token for tenant '" + tenant + "' in " +
                  tokens_path);
      tenant_tokens_[tenant] = token.as_string();
    }
    log_info("campaign_service: bearer-token auth enabled (", tenant_tokens_.size(),
             " tenants)");
  }
}

campaign_service::~campaign_service() { stop(); }

double campaign_service::now() const {
  return options_.clock ? options_.clock() : runtime::wall_clock_seconds();
}

void campaign_service::start() {
  require(!running_.load(), "campaign_service: already started");
  stopping_.store(false);
  draining_.store(false);

  // Campaigns a previous process left mid-run have no owner anymore; requeue
  // them so this process's runners resume them. The journal makes the resume
  // exact — completed jobs are skipped, leases of the dead process expire.
  for (const campaign_record& r : registry_.all())
    if (r.state == "running")
      registry_.set_state(r.tenant, r.id, "queued", now(), "requeued on restart");

  running_.store(true);
  runners_.reserve(options_.runners);
  for (std::size_t i = 0; i < options_.runners; ++i)
    runners_.emplace_back(&campaign_service::runner_loop, this);
  log_info("campaign_service: started (", options_.runners, " runners, data: ",
           registry_.data_dir(), ")");
}

void campaign_service::drain() {
  {
    // Set under the mutex so a long-poll between its predicate check and
    // its wait cannot miss the flag.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    draining_.store(true);
  }
  wake_cv_.notify_all();
  events_cv_.notify_all();
}

void campaign_service::note_event(const std::string& key) {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    ++events_seen_[key];
  }
  events_cv_.notify_all();
}

void campaign_service::stop() {
  drain();
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (auto& [key, sched] : active_) sched->cancel();
  }
  wake_cv_.notify_all();
  for (std::thread& t : runners_)
    if (t.joinable()) t.join();
  runners_.clear();
  log_info("campaign_service: stopped");
}

void campaign_service::runner_loop() {
  while (!stopping_.load()) {
    std::optional<campaign_record> next;
    {
      const std::lock_guard<std::mutex> lock(active_mutex_);
      for (const campaign_record& r : registry_.all()) {
        if (r.state != "queued" || claimed_.count(key_of(r.tenant, r.id))) continue;
        claimed_[key_of(r.tenant, r.id)] = true;
        next = r;
        break;
      }
    }
    if (!next) {
      // Plain timed wait: submit()'s notify shortcuts the sleep, and the
      // loop re-checks the queue either way.
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_for(lock, std::chrono::duration<double>(options_.poll_interval));
      continue;
    }
    try {
      run_campaign(*next);
    } catch (const std::exception& e) {
      // A campaign that cannot even start (spec deleted from disk, ...) is
      // failed, not fatal: the runner must survive to serve the next one.
      log_warn("campaign_service: campaign ", next->id, " aborted: ", e.what());
      try {
        registry_.set_state(next->tenant, next->id, "failed", now(), e.what());
      } catch (const std::exception&) {
      }
    }
    const std::lock_guard<std::mutex> lock(active_mutex_);
    claimed_.erase(key_of(next->tenant, next->id));
  }
}

void campaign_service::run_campaign(const campaign_record& record) {
  const std::string key = key_of(record.tenant, record.id);
  const runtime::campaign_spec spec =
      runtime::campaign_spec::load(runtime::campaign_spec_path(record.dir));

  runtime::scheduler_options so;
  so.campaign_dir = record.dir;
  so.worker_id = "svc-" + record.id;
  so.workers = options_.workers;
  so.lease_ttl = options_.lease_ttl;
  so.write_artifacts = options_.write_artifacts;
  so.executor = options_.executor;
  so.clock = options_.clock;
  so.on_append = [this, key] { note_event(key); };
  runtime::scheduler scheduler(spec, std::move(so));

  {
    // Claim-to-running flip and cancel() share active_mutex_, so a cancel
    // that lands between them either sees "queued" (and wins: we bail here)
    // or finds the scheduler registered (and cancels it cooperatively). The
    // flip itself is try_claim — atomic under the registry store's exclusive
    // lock, so of several service processes sharing one data root exactly
    // one wins each queued campaign.
    const std::lock_guard<std::mutex> lock(active_mutex_);
    if (!registry_.try_claim(record.tenant, record.id, now()))
      return;  // cancelled while claimed, or another process's runner won
    active_[key] = &scheduler;
  }
  log_info("campaign_service: running ", key, " ('", spec.name, "', ",
           spec.job_count(), " jobs)");

  std::string final_state;
  std::string detail;
  try {
    run_registered(record, scheduler, final_state, detail);
  } catch (...) {
    // The scheduler lives on this stack frame: a throw anywhere after the
    // registration above (corrupt journal in scheduler.run() or the replay
    // fold, ...) must unregister it, or stop()/cancel() would dereference a
    // dangling pointer. The runner's catch handler records the failure.
    const std::lock_guard<std::mutex> lock(active_mutex_);
    active_.erase(key);
    user_cancelled_.erase(key);
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    active_.erase(key);
    // A shutdown-cancelled campaign is unfinished business, not an outcome:
    // requeue it so the next start() resumes from the journal.
    if (final_state == "cancelled" && stopping_.load() &&
        !user_cancelled_.count(key))
      final_state = "queued";
    user_cancelled_.erase(key);
    registry_.set_state(record.tenant, record.id, final_state, now(), detail);
  }
  note_event(key);  // a terminal campaign's long-polls return at once
  log_info("campaign_service: ", key, " -> ", final_state,
           detail.empty() ? "" : " (" + detail + ")");
}

void campaign_service::run_registered(const campaign_record& record,
                                      runtime::scheduler& scheduler,
                                      std::string& final_state,
                                      std::string& detail) {
  while (final_state.empty()) {
    const runtime::scheduler_report report = scheduler.run();
    {
      const std::lock_guard<std::mutex> lock(metrics_mutex_);
      jobs_completed_ += report.completed;
      run_seconds_ += report.wall_seconds;
    }
    if (scheduler.cancel_requested()) {
      final_state = "cancelled";
      detail = stopping_.load() ? "service shutdown" : "cancelled by request";
      break;
    }
    if (report.failed > 0 || !report.errors.empty()) {
      final_state = "failed";
      detail = report.errors.empty() ? "jobs failed" : report.errors.front();
      break;
    }
    if (report.left_leased == 0) {
      // Nothing pending, nothing leased elsewhere: every job this pass could
      // see is terminal. Confirm against the journal fold (external workers
      // may have finished jobs we never touched).
      const runtime::lease_table leases = runtime::lease_table::resolve(
          runtime::journal::replay(runtime::journal_path(record.dir)));
      bool all_done = true;
      for (std::size_t i = 0; i < record.total_jobs && all_done; ++i)
        all_done = leases.done(i);
      if (all_done) {
        final_state = "done";
        break;
      }
    }
    // External lease workers hold live jobs (or a stale failed state needs a
    // fresh pass): wait a beat, then run another pass. Stop requests and
    // cancels arrive through scheduler.cancel(), which the pass observes.
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, std::chrono::duration<double>(options_.poll_interval),
                      [this, &scheduler] {
                        return stopping_.load() || scheduler.cancel_requested();
                      });
  }
}

// ------------------------------------------------------- control plane ----

campaign_record campaign_service::submit(const std::string& tenant,
                                         const runtime::campaign_spec& spec) {
  // Validate the whole expansion up front: a spec the scheduler would choke
  // on must be rejected at the door (400), not discovered by a runner.
  spec.expand();
  campaign_record record = registry_.submit(tenant, spec, now());
  wake_cv_.notify_all();
  log_info("campaign_service: submitted ", key_of(tenant, record.id), " ('",
           spec.name, "', ", record.total_jobs, " jobs)");
  return record;
}

std::vector<campaign_record> campaign_service::list(const std::string& tenant) const {
  return registry_.list(tenant);
}

campaign_record campaign_service::resolve(const std::string& tenant,
                                          const std::string& id) const {
  if (!valid_tenant(tenant))
    throw net::http_error(400, "invalid tenant '" + tenant +
                                   "' (lowercase [a-z0-9_-], at most 32 chars)");
  const std::optional<campaign_record> record = registry_.find(tenant, id);
  if (!record) {
    if (!registry_.known_tenant(tenant))
      throw net::http_error(404, "unknown tenant '" + tenant + "'");
    throw net::http_error(404, "tenant '" + tenant + "' has no campaign '" + id + "'");
  }
  return *record;
}

campaign_status campaign_service::status(const std::string& tenant,
                                         const std::string& id,
                                         bool include_jobs) const {
  const campaign_record record = resolve(tenant, id);
  const runtime::campaign_spec spec =
      runtime::campaign_spec::load(runtime::campaign_spec_path(record.dir));
  campaign_status s = read_campaign_status(spec, record.dir, now());
  s.id = record.id;
  s.tenant = record.tenant;
  s.service_state = record.state;
  if (!include_jobs) s.jobs.clear();
  return s;
}

event_page campaign_service::events(const std::string& tenant, const std::string& id,
                                    std::streamoff cursor, double max_wait) {
  const campaign_record record = resolve(tenant, id);
  const std::string path = runtime::journal_path(record.dir);

  const std::string key = key_of(tenant, id);
  const auto events_seen = [&] {  // wake_mutex_ held
    const auto it = events_seen_.find(key);
    return it == events_seen_.end() ? std::uint64_t{0} : it->second;
  };

  event_page page;
  std::uint64_t at = static_cast<std::uint64_t>(cursor);
  std::uint64_t seen = 0;
  {
    // Read the count before the journal, so an append between the two
    // still moves the count past `seen` and wakes the wait below.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    seen = events_seen();
  }
  page.lines = runtime::journal::raw_since(path, at, options_.event_page_lines);

  // Long-poll: wait for the journal to grow rather than making clients
  // hammer the endpoint. This service's own appends wake the wait; other
  // processes' appends are picked up at the next poll_interval beat.
  // Terminal campaigns return immediately — nothing will be appended.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(max_wait);
  while (page.lines.empty() && max_wait > 0.0 && !stopping_.load() &&
         !draining_.load() && std::chrono::steady_clock::now() < deadline) {
    const std::optional<campaign_record> current = registry_.find(tenant, id);
    if (!current || current->terminal()) break;
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      const auto beat = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options_.poll_interval);
      events_cv_.wait_until(lock, std::min(beat, deadline), [&] {
        return events_seen() != seen || draining_.load() || stopping_.load();
      });
      seen = events_seen();
    }
    page.lines = runtime::journal::raw_since(path, at, options_.event_page_lines);
  }
  page.next_cursor = static_cast<std::streamoff>(at);
  return page;
}

std::string campaign_service::report_text(const std::string& tenant,
                                          const std::string& id) const {
  const campaign_record record = resolve(tenant, id);
  const runtime::campaign_spec spec =
      runtime::campaign_spec::load(runtime::campaign_spec_path(record.dir));
  return runtime::render_report(spec, runtime::result_store::load(record.dir));
}

io::json_value campaign_service::report_json(const std::string& tenant,
                                             const std::string& id) const {
  const campaign_record record = resolve(tenant, id);
  const runtime::campaign_spec spec =
      runtime::campaign_spec::load(runtime::campaign_spec_path(record.dir));
  const std::vector<runtime::job_result_row> rows =
      runtime::result_store::load(record.dir);

  io::json_value v = io::json_value::object();
  v["id"] = record.id;
  v["name"] = spec.name;
  v["total_jobs"] = record.total_jobs;
  v["rows_stored"] = rows.size();
  io::json_value& arr = v["rows"] = io::json_value::array();
  for (const runtime::job_result_row& row : rows) arr.push_back(row.to_json());
  return v;
}

campaign_record campaign_service::cancel(const std::string& tenant,
                                         const std::string& id) {
  const campaign_record record = resolve(tenant, id);
  const std::string key = key_of(tenant, id);

  const std::lock_guard<std::mutex> lock(active_mutex_);
  const std::optional<campaign_record> current = registry_.find(tenant, id);
  if (!current) throw net::http_error(404, "campaign '" + id + "' disappeared");
  if (current->terminal())
    throw net::http_error(409, "campaign '" + id + "' is already " + current->state);

  const auto it = active_.find(key);
  if (it != active_.end()) {
    // Running in-process: cancel cooperatively; the runner records the
    // terminal state once the scheduler pass drains.
    user_cancelled_.insert(key);
    it->second->cancel();
    wake_cv_.notify_all();
    return *current;
  }
  // Queued (possibly claimed but not yet running — the runner re-checks the
  // state under this same mutex and backs off).
  (void)record;
  campaign_record updated =
      registry_.set_state(tenant, id, "cancelled", now(), "cancelled by request");
  wake_cv_.notify_all();
  return updated;
}

campaign_record campaign_service::remove(const std::string& tenant,
                                         const std::string& id) {
  resolve(tenant, id);  // 404 mapping
  const std::string key = key_of(tenant, id);

  campaign_record tombstone;
  {
    // Under active_mutex_ a runner cannot flip the campaign to running
    // between our terminal check and the tombstone append.
    const std::lock_guard<std::mutex> lock(active_mutex_);
    const std::optional<campaign_record> current = registry_.find(tenant, id);
    if (!current) throw net::http_error(404, "campaign '" + id + "' disappeared");
    if (!current->terminal() || active_.count(key) || claimed_.count(key))
      throw net::http_error(409, "campaign '" + id + "' is " + current->state +
                                     "; cancel it (and let it settle) before deleting");
    tombstone = registry_.remove(tenant, id, now());
  }

  // The tombstone is durable; reclaim the disk. A failure here (NFS
  // silliness, permissions) leaves an orphan directory, not a ghost
  // campaign — the registry already forgot it.
  std::error_code ec;
  std::filesystem::remove_all(tombstone.dir, ec);
  if (ec)
    log_warn("campaign_service: could not remove '", tombstone.dir,
             "': ", ec.message());
  log_info("campaign_service: deleted ", key);
  return tombstone;
}

std::size_t campaign_service::active_runs() const {
  const std::lock_guard<std::mutex> lock(active_mutex_);
  return active_.size();
}

service_metrics campaign_service::metrics() const {
  service_metrics m;
  const double t = now();
  for (const campaign_record& r : registry_.all()) {
    if (r.state == "queued") ++m.campaigns_queued;
    else if (r.state == "running") ++m.campaigns_running;
    else if (r.state == "done") ++m.campaigns_done;
    else if (r.state == "failed") ++m.campaigns_failed;
    else if (r.state == "cancelled") ++m.campaigns_cancelled;

    if (r.state == "running") {
      const runtime::lease_table leases = runtime::lease_table::resolve(
          runtime::journal::replay(runtime::journal_path(r.dir)));
      for (const auto& [job, view] : leases.jobs())
        if (view.state == runtime::lease_view::phase::leased && view.deadline > t)
          ++m.live_leases;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    m.jobs_completed = jobs_completed_;
    m.run_seconds = run_seconds_;
  }
  // Control-plane request total: the sum over the per-endpoint ×
  // status-class counters the handler records into the obs registry.
  m.requests = static_cast<std::size_t>(
      obs::registry::global().counter_total("http.requests_total"));
  return m;
}

}  // namespace boson::service
