/// \file service.h
/// Campaign-as-a-service: the control plane that turns the elastic runtime
/// into a long-lived daemon. A `campaign_service` owns a `campaign_registry`
/// (per-tenant campaign directories under one data root) and a small pool of
/// *runner* threads that execute queued campaigns through the lease
/// scheduler. Because coordination lives in the shared journal, the
/// in-process runners are just workers like any other: external
/// `boson_cli campaign resume <dir>` processes can attach to a service-owned
/// campaign directory and claim jobs side by side.
///
/// The HTTP surface (`handler()`) is transport-agnostic: it is a plain
/// `net::http_handler`, served by `net::http_server` in `boson_serve` and
/// called directly (no sockets) by unit tests.
///
///   POST /v1/campaigns                 submit (body: campaign.json) -> 201
///   GET  /v1/campaigns                 list this tenant's campaigns
///   GET  /v1/campaigns/{id}            status summary (no per-job detail)
///   GET  /v1/campaigns/{id}/jobs       status with per-job detail
///   GET  /v1/campaigns/{id}/events     journal records since ?cursor=N
///                                      (chunked NDJSON long-poll, ?wait=S)
///   GET  /v1/campaigns/{id}/report     result tables (?format=json|text)
///   POST /v1/campaigns/{id}/cancel     cooperative cancellation
///   DELETE /v1/campaigns/{id}          retention: delete a terminal campaign
///   GET  /healthz                      liveness
///   GET  /v1/metrics                   queue/lease/throughput/cache gauges
///
/// Tenancy: with a `tenants.json` token file in the data root, requests
/// authenticate with `Authorization: Bearer <token>` and the token *is* the
/// tenant identity (the legacy X-Boson-Tenant header, if also present, must
/// agree). Without a token file the legacy bare header (default "default")
/// picks the tenant. Either way the tenant selects the registry namespace,
/// the artifact subtree, and the quota bucket.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "runtime/scheduler.h"
#include "service/registry.h"
#include "service/status.h"

namespace boson::service {

struct service_options {
  std::string data_dir = "boson_service";
  std::size_t runners = 2;       ///< campaigns executed concurrently in-process
  std::size_t tenant_quota = 8;  ///< max queued+running campaigns per tenant
  bool write_artifacts = true;

  /// Per-campaign scheduler overrides (unset: each spec's own settings).
  std::optional<std::size_t> workers;
  std::optional<double> lease_ttl;

  /// Seconds a runner sleeps between scheduler passes while external workers
  /// hold live leases, and the longest an events long-poll goes without
  /// rereading the journal (appends by this service's own runners wake it
  /// at once; other processes' appends are seen within one interval).
  double poll_interval = 0.2;

  /// Max journal lines one events() poll returns (backpressure: a slow
  /// consumer pages through history instead of buffering it all at once).
  std::size_t event_page_lines = 512;

  /// Test hooks, forwarded to every scheduler this service constructs.
  runtime::job_executor executor;
  runtime::clock_fn clock;  ///< also stamps registry records / lease liveness
};

/// Events long-poll result: raw journal lines (exactly as appended, no
/// re-serialization) and the cursor to pass next time.
struct event_page {
  std::vector<std::string> lines;
  std::streamoff next_cursor = 0;
};

/// Service throughput counters (the /v1/metrics source).
struct service_metrics {
  std::size_t campaigns_queued = 0;
  std::size_t campaigns_running = 0;
  std::size_t campaigns_done = 0;
  std::size_t campaigns_failed = 0;
  std::size_t campaigns_cancelled = 0;
  std::size_t live_leases = 0;        ///< live-leased jobs across running campaigns
  std::size_t jobs_completed = 0;     ///< by in-process runners, service lifetime
  double run_seconds = 0.0;           ///< scheduler wall time behind those jobs
  std::size_t requests = 0;           ///< control-plane requests handled

  /// Derived at read time from the counters above, so a snapshot can never
  /// carry a stale precomputed rate.
  double jobs_per_second() const {
    return run_seconds > 0.0 ? static_cast<double>(jobs_completed) / run_seconds
                             : 0.0;
  }
};

class campaign_service {
 public:
  explicit campaign_service(service_options options);
  ~campaign_service();  ///< stop()s

  campaign_service(const campaign_service&) = delete;
  campaign_service& operator=(const campaign_service&) = delete;

  /// Launch the runner pool. Queued campaigns recovered from a previous
  /// process (and ones interrupted mid-run) start executing immediately.
  void start();

  /// Cancel running campaigns cooperatively, then join every runner. A
  /// stopped service still answers reads; submits queue for the next start.
  void stop();

  /// Begin shutdown without stopping anything yet: in-flight `events()`
  /// long-polls return promptly instead of sleeping out their deadline.
  /// Call before stopping the HTTP transport, whose stop() joins the worker
  /// threads those long-polls are running on; `stop()` implies it.
  void drain();

  // --- control-plane operations (handler() routes here; tests call direct) --
  campaign_record submit(const std::string& tenant, const runtime::campaign_spec& spec);
  std::vector<campaign_record> list(const std::string& tenant) const;
  campaign_status status(const std::string& tenant, const std::string& id,
                         bool include_jobs) const;
  event_page events(const std::string& tenant, const std::string& id,
                    std::streamoff cursor, double max_wait);
  std::string report_text(const std::string& tenant, const std::string& id) const;
  io::json_value report_json(const std::string& tenant, const std::string& id) const;
  campaign_record cancel(const std::string& tenant, const std::string& id);

  /// Retention: delete a campaign — journal a registry tombstone and remove
  /// its directory (spec, journal, results, artifacts). Refuses non-terminal
  /// campaigns (409): cancel first, then delete.
  campaign_record remove(const std::string& tenant, const std::string& id);

  service_metrics metrics() const;

  /// Schedulers currently registered by runners (the cancel() targets).
  /// Every registration must be unwound when its campaign settles — a
  /// nonzero count with no campaign running means a dangling pointer.
  std::size_t active_runs() const;

  /// The full JSON control plane as one transport-agnostic handler. The
  /// handler wraps `route` with request telemetry: per-endpoint ×
  /// status-class counters and per-endpoint latency histograms in the
  /// process-wide obs registry.
  net::http_handler handler();

  campaign_registry& registry() { return registry_; }
  const std::string& data_dir() const { return registry_.data_dir(); }

 private:
  /// Resolve (tenant, id) to its record or throw the proper http_error
  /// (404 for unknown tenant/id).
  campaign_record resolve(const std::string& tenant, const std::string& id) const;

  /// The request's tenant identity. With bearer tokens configured
  /// (`tenants.json` in the data root): resolve `Authorization: Bearer` by
  /// constant-time comparison against every tenant's token, throwing 401 on
  /// a missing/unknown token (and on an X-Boson-Tenant header that
  /// disagrees). Without tokens: the legacy X-Boson-Tenant header.
  std::string authenticate(const net::http_request& req) const;

  /// Dispatch one request to the matching control-plane operation (the
  /// uninstrumented core of `handler()`).
  net::http_response route(const net::http_request& req);

  void runner_loop();
  void run_campaign(const campaign_record& record);

  /// The run loop of `run_campaign`, entered with `scheduler` registered in
  /// `active_` — every exit (including a throw) must unregister it before
  /// the scheduler's stack frame unwinds.
  void run_registered(const campaign_record& record, runtime::scheduler& scheduler,
                      std::string& final_state, std::string& detail);
  double now() const;

  /// Count a journal append (or state change) of campaign `key` and wake
  /// its events long-polls.
  void note_event(const std::string& key);

  service_options options_;
  campaign_registry registry_;
  /// tenant -> bearer token, from `<data_dir>/tenants.json` (empty: legacy
  /// header auth). Loaded once at construction.
  std::map<std::string, std::string> tenant_tokens_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};  ///< releases events() long-polls early
  std::vector<std::thread> runners_;
  mutable std::mutex wake_mutex_;
  std::condition_variable wake_cv_;  ///< submit/cancel/stop kick idle runners
  /// Events long-polls wait here for their campaign's `events_seen_` count
  /// to move (or for drain/stop); guarded by wake_mutex_.
  std::condition_variable events_cv_;
  std::map<std::string, std::uint64_t> events_seen_;  ///< per campaign key

  mutable std::mutex active_mutex_;
  /// Schedulers currently executing, keyed tenant/id — the cancel() path.
  std::map<std::string, runtime::scheduler*> active_;
  /// Campaigns claimed by a runner (set before the registry flips to
  /// "running", so two runners never pick the same queued campaign).
  std::map<std::string, bool> claimed_;
  /// Running campaigns cancelled *by request* — distinguishes a user cancel
  /// (terminal) from a shutdown cancel (requeued for the next start).
  std::set<std::string> user_cancelled_;

  mutable std::mutex metrics_mutex_;
  std::size_t jobs_completed_ = 0;
  double run_seconds_ = 0.0;
};

}  // namespace boson::service
