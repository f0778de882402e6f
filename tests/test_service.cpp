// Tests of the campaign service: the registry ledger (id assignment, tenant
// quota and validation, restart rescan), the incremental journal cursor
// (`journal::since`) and `result_store::count_rows` the status path rides
// on, the shared campaign-status snapshot, the campaign_service lifecycle
// (submit -> runner -> done, user cancel vs shutdown requeue, restart
// resume), and the JSON control plane — routed both directly (handler calls,
// no sockets) and over a real loopback `net::http_server` with concurrent
// clients. Executors are synthetic throughout: these tests exercise the
// service machinery, never a simulation.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "io/json.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "runtime/campaign.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scheduler.h"
#include "service/registry.h"
#include "service/service.h"
#include "service/status.h"

namespace boson {
namespace {

namespace fs = std::filesystem;

/// EXPECT that `fn` throws `Exception` whose message contains `fragment`.
template <class Exception, class Fn>
void expect_throw_with(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected an exception containing \"" << fragment << "\"";
  } catch (const Exception& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Poll `predicate` up to `timeout` seconds; true when it held in time.
template <class Fn>
bool wait_until(Fn&& predicate, double timeout = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

/// Coarse, fast base spec (mirrors the api/core smoke configuration).
api::experiment_spec smoke_base() {
  api::experiment_spec spec;
  spec.resolution = 0.1;
  spec.iterations = 6;
  spec.relax_epochs = 0;
  spec.litho.na = 0.65;
  spec.litho.sigma = 0.35;
  spec.litho.kernel_half = 5;
  spec.litho.max_kernels = 5;
  spec.eole.anchors_x = 4;
  spec.eole.anchors_y = 4;
  spec.eole.num_terms = 5;
  spec.evaluation = {api::eval_step::monte_carlo(2)};
  return spec;
}

/// 1 device x 3 methods x 2 seeds x 2 overrides = 12 cheap-to-expand jobs.
runtime::campaign_spec synthetic_campaign() {
  runtime::campaign_spec spec;
  spec.name = "synthetic";
  spec.devices = {"bend"};
  spec.methods = {"density", "ls", "boson_no_relax"};
  spec.seeds = {1, 2};
  runtime::campaign_override nominal;
  nominal.name = "nom";
  runtime::campaign_override hot;
  hot.name = "hot";
  hot.patch = io::json_value::parse(R"({"litho": {"corner_defocus": 0.08}})");
  spec.overrides = {nominal, hot};
  spec.base = smoke_base();
  spec.scheduler.workers = 3;
  spec.scheduler.max_retries = 0;
  return spec;
}

/// Executor that fabricates a result without running any simulation.
runtime::job_executor counting_executor(std::atomic<std::size_t>& executed) {
  return [&executed](const runtime::campaign_job& job, const api::run_control&,
                     api::observer*) {
    ++executed;
    api::experiment_result result;
    result.spec = job.spec;
    result.method.prefab_fom = static_cast<double>(job.index);
    result.method.postfab.samples = 2;
    result.method.postfab.fom_mean = static_cast<double>(job.index) * 0.5;
    result.seconds = 0.001;
    return result;
  };
}

/// Executor whose jobs run "forever" (bounded, for safety) at cooperative
/// iteration boundaries — so user cancel and shutdown land mid-campaign.
runtime::job_executor slow_executor(std::atomic<std::size_t>& executed) {
  return [&executed](const runtime::campaign_job& job, const api::run_control&,
                     api::observer* watcher) {
    for (std::size_t i = 0; i < 5000; ++i) {
      api::progress_event event;
      event.kind = api::progress_event::phase::iteration_finished;
      event.experiment = job.name;
      event.iteration = i;
      event.total_iterations = 5000;
      watcher->on_event(event);  // throws cancelled_error once cancel lands
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++executed;
    api::experiment_result result;
    result.spec = job.spec;
    return result;
  };
}

/// Persist a spec the way the registry does, so `read_campaign_status`'s
/// directory overload finds it.
void write_spec(const runtime::campaign_spec& spec, const fs::path& dir) {
  spec.to_json().write_file(runtime::campaign_spec_path(dir.string()));
}

// ---------------------------------------------------------- journal since ----

TEST(journal_since, reads_incrementally) {
  const fs::path dir = fresh_dir("since_incremental");
  const std::string path = runtime::journal_path(dir.string());
  runtime::journal journal(path);

  runtime::journal_entry e;
  e.job_name = "j";
  e.state = runtime::job_state::running;
  e.attempt = 1;
  e.job_index = 0;
  journal.append(e);
  e.job_index = 1;
  journal.append(e);

  runtime::journal_cursor cursor;
  std::vector<runtime::journal_entry> got = runtime::journal::since(path, cursor);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].job_index, 1u);
  EXPECT_EQ(cursor.line, 2u);

  e.job_index = 2;
  journal.append(e);
  got = runtime::journal::since(path, cursor);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].job_index, 2u);
  EXPECT_EQ(cursor.line, 3u);

  // Drained: nothing new, cursor parked.
  EXPECT_TRUE(runtime::journal::since(path, cursor).empty());

  // The byte cursor equals the file size once drained (the wire contract:
  // clients resume with exactly this offset).
  EXPECT_EQ(static_cast<std::uintmax_t>(cursor.offset), fs::file_size(path));

  // A full replay and the cursor walk agree.
  EXPECT_EQ(runtime::journal::replay(path).size(), 3u);
}

TEST(journal_since, missing_file_returns_nothing) {
  runtime::journal_cursor cursor;
  EXPECT_TRUE(
      runtime::journal::since((fresh_dir("since_none") / "journal.jsonl").string(),
                              cursor)
          .empty());
  EXPECT_EQ(cursor.offset, 0);
}

TEST(journal_since, torn_tail_stays_ahead_of_the_cursor) {
  const fs::path dir = fresh_dir("since_torn");
  const std::string path = runtime::journal_path(dir.string());
  {
    runtime::journal journal(path);
    runtime::journal_entry e;
    e.job_name = "j";
    e.state = runtime::job_state::completed;
    e.attempt = 1;
    journal.append(e);
  }
  // A crash (or a racing writer observed mid-flush) leaves a line without
  // its newline.
  std::ofstream(path, std::ios::app) << R"({"job":1,"name":"j","state":"running")";

  runtime::journal_cursor cursor;
  EXPECT_EQ(runtime::journal::since(path, cursor).size(), 1u);
  EXPECT_EQ(cursor.line, 1u);  // the fragment was not consumed

  // The "writer" finishes the line; the next poll picks it up whole.
  std::ofstream(path, std::ios::app) << ",\"attempt\":1}\n";
  const std::vector<runtime::journal_entry> got =
      runtime::journal::since(path, cursor);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].job_index, 1u);
  EXPECT_EQ(got[0].state, runtime::job_state::running);
}

TEST(journal_since, malformed_line_is_fatal_only_with_a_successor) {
  const fs::path dir = fresh_dir("since_malformed");
  const std::string path = runtime::journal_path(dir.string());
  {
    runtime::journal journal(path);
    runtime::journal_entry e;
    e.job_name = "j";
    e.state = runtime::job_state::completed;
    e.attempt = 1;
    journal.append(e);
  }
  std::ofstream(path, std::ios::app) << "{broken\n";

  // Malformed *final* line: indistinguishable from a racing append — the
  // good prefix is returned and the suspect line waits.
  runtime::journal_cursor cursor;
  EXPECT_EQ(runtime::journal::since(path, cursor).size(), 1u);
  EXPECT_EQ(cursor.line, 1u);

  // A successor line proves the file kept going: now it is corruption.
  std::ofstream(path, std::ios::app)
      << R"({"job":2,"name":"j","state":"running","attempt":1})" << "\n";
  expect_throw_with<io_error>(
      [&] { runtime::journal::since(path, cursor); }, "line 2");
}

// ------------------------------------------------------------- count_rows ----

TEST(result_store_count, matches_load_and_collapses_duplicates) {
  const fs::path dir = fresh_dir("count_rows");
  EXPECT_EQ(runtime::result_store::count_rows(dir.string()), 0u);

  std::atomic<std::size_t> executed{0};
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.write_artifacts = false;
  options.executor = counting_executor(executed);
  runtime::scheduler scheduler(synthetic_campaign(), options);
  EXPECT_EQ(scheduler.run().completed, 12u);

  EXPECT_EQ(runtime::result_store::count_rows(dir.string()), 12u);
  EXPECT_EQ(runtime::result_store::load(dir.string()).size(), 12u);

  // A retry re-appends a row for an existing job: distinct-job count holds.
  {
    runtime::result_store store(dir.string());
    runtime::job_result_row row;
    row.job_index = 0;
    row.name = "retry";
    row.attempt = 2;
    store.append(row);
  }
  EXPECT_EQ(runtime::result_store::count_rows(dir.string()), 12u);
  EXPECT_EQ(runtime::result_store::load(dir.string()).size(), 12u);
}

// --------------------------------------------------------- status snapshot ----

TEST(campaign_status_snapshot, tracks_a_campaign_from_pending_to_completed) {
  const fs::path dir = fresh_dir("status_snapshot");
  const runtime::campaign_spec spec = synthetic_campaign();
  write_spec(spec, dir);

  service::campaign_status before =
      service::read_campaign_status(dir.string(), 0.0);
  EXPECT_EQ(before.name, "synthetic");
  EXPECT_EQ(before.total_jobs, 12u);
  EXPECT_EQ(before.journal_events, 0u);
  EXPECT_EQ(before.result_rows, 0u);
  EXPECT_EQ(before.counts.at("pending"), 12u);
  EXPECT_FALSE(before.all_completed());
  ASSERT_EQ(before.jobs.size(), 12u);
  EXPECT_FALSE(before.jobs[0].name.empty());  // names come from expansion

  std::atomic<std::size_t> executed{0};
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.write_artifacts = false;
  options.executor = counting_executor(executed);
  runtime::scheduler(spec, options).run();

  const service::campaign_status after =
      service::read_campaign_status(dir.string(), 0.0);
  EXPECT_EQ(after.counts.at("completed"), 12u);
  EXPECT_EQ(after.result_rows, 12u);
  EXPECT_TRUE(after.all_completed());
  EXPECT_TRUE(after.settled());
  EXPECT_GT(after.journal_events, 0u);

  // Both renderings carry the summary; the compact JSON omits per-job rows.
  const io::json_value summary = after.to_json(false);
  EXPECT_EQ(summary.find("jobs"), nullptr);
  EXPECT_EQ(summary.at("result_rows").as_number(), 12.0);
  const io::json_value full = after.to_json(true);
  EXPECT_EQ(full.at("jobs").size(), 12u);
  const std::string text = after.render_text();
  EXPECT_NE(text.find("Campaign 'synthetic'"), std::string::npos);
  EXPECT_NE(text.find("12 completed"), std::string::npos);
}

// ---------------------------------------------------------------- registry ----

TEST(registry, assigns_sequential_ids_and_rescans_after_restart) {
  const fs::path data = fresh_dir("registry_rescan");
  const runtime::campaign_spec spec = synthetic_campaign();
  {
    service::campaign_registry registry({data.string(), 8});
    const service::campaign_record a = registry.submit("alice", spec, 1.0);
    const service::campaign_record b = registry.submit("alice", spec, 2.0);
    EXPECT_EQ(a.id, "c0001");
    EXPECT_EQ(b.id, "c0002");
    EXPECT_EQ(a.state, "queued");
    EXPECT_EQ(a.total_jobs, 12u);
    EXPECT_TRUE(fs::exists(runtime::campaign_spec_path(a.dir)));
    registry.set_state("alice", a.id, "done", 3.0);

    // Ids are per registry, not per tenant — and scoped lookups miss across
    // tenants.
    EXPECT_FALSE(registry.find("bob", a.id).has_value());
    EXPECT_TRUE(registry.find("alice", a.id).has_value());
    EXPECT_TRUE(registry.known_tenant("alice"));
    EXPECT_FALSE(registry.known_tenant("bob"));
  }
  // A new process rescans the manifest: same records, same next id.
  service::campaign_registry reopened({data.string(), 8});
  const std::vector<service::campaign_record> all = reopened.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, "c0001");
  EXPECT_EQ(all[0].state, "done");  // latest manifest record wins
  EXPECT_EQ(all[1].state, "queued");
  EXPECT_EQ(reopened.submit("alice", spec, 4.0).id, "c0003");
  ASSERT_TRUE(reopened.oldest_queued().has_value());
  EXPECT_EQ(reopened.oldest_queued()->id, "c0002");
}

TEST(registry, enforces_quota_and_tenant_validation) {
  const fs::path data = fresh_dir("registry_quota");
  service::campaign_registry registry({data.string(), 2});
  const runtime::campaign_spec spec = synthetic_campaign();

  registry.submit("alice", spec, 1.0);
  const service::campaign_record second = registry.submit("alice", spec, 2.0);
  expect_throw_with<service::quota_error>(
      [&] { registry.submit("alice", spec, 3.0); }, "quota");
  // Other tenants have their own bucket; a terminal campaign frees a slot.
  registry.submit("bob", spec, 4.0);
  registry.set_state("alice", second.id, "cancelled", 5.0);
  EXPECT_EQ(registry.active_count("alice"), 1u);
  registry.submit("alice", spec, 6.0);

  for (const std::string& bad :
       {std::string("Alice"), std::string(""), std::string("a b"),
        std::string(33, 'a')}) {
    EXPECT_FALSE(service::valid_tenant(bad));
    expect_throw_with<bad_argument>([&] { registry.submit(bad, spec, 7.0); },
                                    "tenant");
  }
  expect_throw_with<bad_argument>(
      [&] { registry.set_state("alice", "c9999", "done", 8.0); }, "c9999");
}

TEST(registry, rescan_names_a_corrupt_manifest_id_instead_of_aborting_blind) {
  const fs::path data = fresh_dir("registry_bad_id");
  {  // a valid manifest first, so the failure is clearly about the bad record
    service::campaign_registry registry({data.string(), 8});
    registry.submit("alice", synthetic_campaign(), 1.0);
  }
  io::json_value record = io::json_value::object();
  record["id"] = "zzz9";  // not 'c<digits>': corrupt or foreign
  record["tenant"] = "alice";
  record["name"] = "synthetic";
  record["state"] = "queued";
  record["dir"] = (data / "alice" / "zzz9").string();
  record["total_jobs"] = 12;
  record["submitted_at"] = 2.0;
  record["updated_at"] = 2.0;
  std::ofstream(data / "registry.jsonl", std::ios::app) << record.dump(-1) << "\n";

  expect_throw_with<io_error>(
      [&] { service::campaign_registry reopened({data.string(), 8}); }, "zzz9");
  expect_throw_with<io_error>(
      [&] { service::campaign_registry reopened({data.string(), 8}); },
      "registry.jsonl");
}

// ---------------------------------------------------------------- service ----

service::service_options fast_options(const fs::path& data,
                                      std::atomic<std::size_t>& executed,
                                      bool slow = false) {
  service::service_options options;
  options.data_dir = data.string();
  options.runners = 2;
  options.poll_interval = 0.01;
  options.write_artifacts = false;
  options.executor = slow ? slow_executor(executed) : counting_executor(executed);
  return options;
}

TEST(campaign_service, runs_a_submitted_campaign_to_done) {
  const fs::path data = fresh_dir("service_done");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));
  service.start();

  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());
  EXPECT_EQ(record.id, "c0001");
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", record.id)->state == "done";
  })) << "campaign never finished";
  EXPECT_EQ(executed.load(), 12u);

  const service::campaign_status status = service.status("alice", record.id, true);
  EXPECT_TRUE(status.all_completed());
  EXPECT_EQ(status.service_state, "done");
  EXPECT_EQ(status.result_rows, 12u);
  EXPECT_EQ(status.jobs.size(), 12u);
  // include_jobs = false keeps the summary but drops the per-job vector.
  EXPECT_TRUE(service.status("alice", record.id, false).jobs.empty());

  const io::json_value report = service.report_json("alice", record.id);
  EXPECT_EQ(report.at("rows_stored").as_number(), 12.0);
  EXPECT_EQ(report.at("rows").size(), 12u);
  EXPECT_NE(service.report_text("alice", record.id).find("12/12"),
            std::string::npos);

  // The event stream pages by byte cursor and drains exactly once.
  service::event_page page = service.events("alice", record.id, 0, 0.0);
  EXPECT_FALSE(page.lines.empty());
  for (const std::string& line : page.lines)
    EXPECT_NO_THROW(io::json_value::parse(line)) << line;
  const std::streamoff cursor = page.next_cursor;
  EXPECT_GT(cursor, 0);
  page = service.events("alice", record.id, cursor, 0.0);
  EXPECT_TRUE(page.lines.empty());
  EXPECT_EQ(page.next_cursor, cursor);

  const service::service_metrics metrics = service.metrics();
  EXPECT_EQ(metrics.campaigns_done, 1u);
  EXPECT_EQ(metrics.jobs_completed, 12u);
  EXPECT_GT(metrics.jobs_per_second(), 0.0);

  service.stop();
}

TEST(campaign_service, user_cancel_interrupts_a_running_campaign) {
  const fs::path data = fresh_dir("service_cancel_running");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed, /*slow=*/true));
  service.start();

  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", record.id)->state == "running";
  }));
  service.cancel("alice", record.id);
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", record.id)->state == "cancelled";
  })) << "cancel never landed";
  EXPECT_EQ(service.registry().find("alice", record.id)->detail,
            "cancelled by request");

  // Cancelling a terminal campaign is a conflict, not a no-op.
  try {
    service.cancel("alice", record.id);
    FAIL() << "expected 409";
  } catch (const net::http_error& e) {
    EXPECT_EQ(e.status(), 409);
  }
  service.stop();
}

TEST(campaign_service, cancel_before_any_runner_claims_it) {
  const fs::path data = fresh_dir("service_cancel_queued");
  std::atomic<std::size_t> executed{0};
  // Never started: the campaign stays queued, cancel() must settle it alone.
  service::campaign_service service(fast_options(data, executed));
  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());
  EXPECT_EQ(service.cancel("alice", record.id).state, "cancelled");
  EXPECT_EQ(executed.load(), 0u);
}

TEST(campaign_service, shutdown_requeues_and_a_restart_finishes_the_job) {
  const fs::path data = fresh_dir("service_requeue");
  std::atomic<std::size_t> executed{0};
  std::string id;
  {
    service::campaign_service service(fast_options(data, executed, /*slow=*/true));
    service.start();
    id = service.submit("alice", synthetic_campaign()).id;
    ASSERT_TRUE(wait_until([&] {
      return service.registry().find("alice", id)->state == "running";
    }));
    service.stop();
    // Shutdown is not an outcome: the campaign goes back to the queue.
    EXPECT_EQ(service.registry().find("alice", id)->state, "queued");
  }
  // A new process picks the queued campaign up and finishes it; journal
  // replay skips whatever the first life already completed.
  std::atomic<std::size_t> finished{0};
  service::campaign_service revived(fast_options(data, finished));
  revived.start();
  ASSERT_TRUE(wait_until([&] {
    return revived.registry().find("alice", id)->state == "done";
  })) << "revived service never finished the campaign";
  EXPECT_EQ(revived.status("alice", id, false).result_rows, 12u);
  revived.stop();
}

TEST(campaign_service, a_campaign_that_throws_mid_run_fails_without_dangling_state) {
  const fs::path data = fresh_dir("service_run_throws");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));

  // Submit while stopped, then corrupt the journal: a malformed line with a
  // valid successor makes the replay fold inside scheduler.run() throw —
  // *after* run_campaign registered the stack-local scheduler in active_.
  // The unwind must unregister it, or cancel()/stop() below would call into
  // a dead stack frame (the ASan job proves the absence of that UAF).
  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());
  std::ofstream(runtime::journal_path(record.dir), std::ios::app)
      << "{broken\n"
      << R"({"job":0,"name":"j","state":"running","attempt":1})" << "\n";

  service.start();
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", record.id)->state == "failed";
  })) << "corrupt campaign never failed";
  EXPECT_EQ(executed.load(), 0u);
  // The unwind unregistered the scheduler: nothing dangles in active_.
  EXPECT_EQ(service.active_runs(), 0u);

  // The registration is gone: cancel sees a terminal campaign (409), it does
  // not reach into a freed scheduler.
  try {
    service.cancel("alice", record.id);
    FAIL() << "expected 409";
  } catch (const net::http_error& e) {
    EXPECT_EQ(e.status(), 409);
  }

  // The runner survived the throw and serves the next campaign.
  const service::campaign_record healthy =
      service.submit("alice", synthetic_campaign());
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", healthy.id)->state == "done";
  })) << "runner did not survive the failed campaign";
  service.stop();
}

TEST(campaign_service, drain_releases_event_long_polls_promptly) {
  const fs::path data = fresh_dir("service_drain");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));
  // Never started: the campaign stays queued and non-terminal, so a long
  // poll would otherwise sleep out its whole deadline.
  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());

  std::atomic<bool> returned{false};
  std::thread poller([&] {
    service.events("alice", record.id, 0, /*max_wait=*/30.0);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());  // the poll is parked, waiting for events

  const auto drained_at = std::chrono::steady_clock::now();
  service.drain();
  poller.join();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - drained_at)
          .count();
  EXPECT_TRUE(returned.load());
  EXPECT_LT(waited, 5.0) << "drain() did not release the long-poll";
}

// ----------------------------------------------------------- control plane ----

/// Build a request the way the server's parser would deliver it.
net::http_request make_request(const std::string& method, const std::string& target,
                               const std::string& body = "",
                               const std::string& tenant = "") {
  net::http_request req;
  req.method = method;
  req.target = target;
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  if (q != std::string::npos) req.query = net::parse_query(target.substr(q + 1));
  req.body = body;
  if (!tenant.empty()) req.headers.emplace_back("X-Boson-Tenant", tenant);
  return req;
}

/// Invoke the handler with the transport's exception mapping (http_server
/// does exactly this), so tests assert on final statuses.
net::http_response answer(const net::http_handler& handler,
                          const net::http_request& req) {
  try {
    return handler(req);
  } catch (const net::http_error& e) {
    return net::error_response(e.status(), e.what());
  } catch (const bad_argument& e) {
    return net::error_response(400, e.what());
  } catch (const std::exception& e) {
    return net::error_response(500, e.what());
  }
}

TEST(control_plane, routes_actions_and_rejects_abuse_with_structured_errors) {
  const fs::path data = fresh_dir("control_plane");
  std::atomic<std::size_t> executed{0};
  service::service_options options = fast_options(data, executed);
  options.tenant_quota = 1;
  service::campaign_service service(options);  // not started: campaigns queue
  const net::http_handler handler = service.handler();

  EXPECT_EQ(answer(handler, make_request("GET", "/healthz")).status, 200);
  EXPECT_NE(answer(handler, make_request("GET", "/healthz")).body.find("ok"),
            std::string::npos);
  EXPECT_EQ(answer(handler, make_request("POST", "/healthz")).status, 405);
  EXPECT_EQ(answer(handler, make_request("GET", "/nope")).status, 404);

  const io::json_value metrics = io::json_value::parse(
      answer(handler, make_request("GET", "/v1/metrics")).body);
  EXPECT_NE(metrics.find("campaigns"), nullptr);
  EXPECT_GE(metrics.at("requests").as_number(), 1.0);

  // Malformed and invalid submissions: structured 4xx, nothing registered.
  EXPECT_EQ(answer(handler, make_request("POST", "/v1/campaigns", "{oops")).status,
            400);
  io::json_value invalid = synthetic_campaign().to_json();
  invalid["axes"]["devices"] = io::json_value::array();
  EXPECT_EQ(
      answer(handler, make_request("POST", "/v1/campaigns", invalid.dump(-1))).status,
      400);
  EXPECT_EQ(answer(handler, make_request("GET", "/v1/campaigns", "", "Bad Tenant"))
                .status,
            400);
  EXPECT_EQ(answer(handler, make_request("GET", "/v1/campaigns/c1", "", "ghost"))
                .status,
            404);
  EXPECT_TRUE(service.registry().all().empty());

  // A good submission; the listing is tenant-scoped.
  const std::string body = synthetic_campaign().to_json().dump(-1);
  const net::http_response created =
      answer(handler, make_request("POST", "/v1/campaigns", body, "alice"));
  ASSERT_EQ(created.status, 201);
  const std::string id = io::json_value::parse(created.body).at("id").as_string();
  EXPECT_EQ(io::json_value::parse(
                answer(handler, make_request("GET", "/v1/campaigns", "", "alice")).body)
                .at("campaigns")
                .size(),
            1u);

  // Quota: tenant 'alice' is full (quota 1, campaign still queued) -> 429.
  EXPECT_EQ(
      answer(handler, make_request("POST", "/v1/campaigns", body, "alice")).status,
      429);
  // Another tenant is unaffected.
  EXPECT_EQ(answer(handler, make_request("POST", "/v1/campaigns", body, "bob")).status,
            201);

  const std::string base = "/v1/campaigns/" + id;
  EXPECT_EQ(answer(handler, make_request("GET", base, "", "alice")).status, 200);
  EXPECT_EQ(io::json_value::parse(
                answer(handler, make_request("GET", base + "/jobs", "", "alice")).body)
                .at("jobs")
                .size(),
            12u);
  EXPECT_EQ(answer(handler, make_request("GET", base, "", "bob")).status, 404);
  // DELETE is a real method now, but only for terminal campaigns: a queued
  // one answers 409, and other verbs are still 405.
  EXPECT_EQ(answer(handler, make_request("DELETE", base, "", "alice")).status, 409);
  EXPECT_EQ(answer(handler, make_request("PUT", base, "", "alice")).status, 405);
  EXPECT_EQ(answer(handler, make_request("GET", base + "/frobnicate", "", "alice"))
                .status,
            404);
  // Query numbers parse strictly: a numeric *prefix* ("1.2.3" is 1.2 to a
  // bare stod) or a digitless dot must be a clean 400, not a silent accept.
  EXPECT_EQ(answer(handler,
                   make_request("GET", base + "/events?cursor=abc", "", "alice"))
                .status,
            400);
  EXPECT_EQ(answer(handler,
                   make_request("GET", base + "/events?cursor=1.2.3", "", "alice"))
                .status,
            400);
  EXPECT_EQ(answer(handler,
                   make_request("GET", base + "/events?wait=.", "", "alice"))
                .status,
            400);
  EXPECT_EQ(answer(handler,
                   make_request("GET", base + "/report?format=xml", "", "alice"))
                .status,
            400);
  EXPECT_EQ(answer(handler, make_request("GET", base + "/report?format=text", "",
                                         "alice"))
                .content_type,
            "text/plain; charset=utf-8");

  // Events of a queued campaign: no journal yet, cursor parked at zero.
  const net::http_response events =
      answer(handler, make_request("GET", base + "/events", "", "alice"));
  EXPECT_EQ(events.status, 200);
  EXPECT_TRUE(events.chunked);
  ASSERT_NE(events.header("X-Boson-Cursor"), nullptr);
  EXPECT_EQ(*events.header("X-Boson-Cursor"), "0");

  EXPECT_EQ(answer(handler, make_request("POST", base + "/cancel", "", "alice"))
                .status,
            200);
  EXPECT_EQ(answer(handler, make_request("POST", base + "/cancel", "", "alice"))
                .status,
            409);

  // Every error above came back as the uniform envelope.
  const net::http_response not_found = answer(handler, make_request("GET", "/nope"));
  EXPECT_NE(not_found.body.find("{\"error\":{\"status\":404"), std::string::npos);
}

TEST(control_plane, prometheus_exposition_serves_request_series) {
  const fs::path data = fresh_dir("control_plane_prometheus");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));
  const net::http_handler handler = service.handler();

  // Traffic across endpoints and status classes, including 4xx abuse.
  EXPECT_EQ(answer(handler, make_request("GET", "/healthz")).status, 200);
  EXPECT_EQ(answer(handler, make_request("GET", "/nope")).status, 404);
  EXPECT_EQ(answer(handler, make_request("GET", "/v1/metrics?format=xml")).status,
            400);

  const net::http_response res =
      answer(handler, make_request("GET", "/v1/metrics?format=prometheus"));
  ASSERT_EQ(res.status, 200);
  EXPECT_NE(res.content_type.find("text/plain"), std::string::npos);

  // Per-endpoint x status-class counters and the latency histogram series.
  EXPECT_NE(res.body.find("# TYPE boson_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(res.body.find(
                "boson_http_requests_total{endpoint=\"healthz\",class=\"2xx\"}"),
            std::string::npos);
  EXPECT_NE(
      res.body.find("boson_http_requests_total{endpoint=\"unknown\",class=\"4xx\"}"),
      std::string::npos);
  EXPECT_NE(res.body.find("# TYPE boson_http_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(res.body.find("boson_http_request_seconds_bucket{endpoint=\"healthz\","),
            std::string::npos);

  // The sim counters and the service gauges ride the same page.
  EXPECT_NE(res.body.find("boson_sim_reuse_refinement_iterations"), std::string::npos);
  EXPECT_NE(res.body.find("boson_sim_reuse_fallbacks"), std::string::npos);
  EXPECT_NE(res.body.find("# TYPE boson_service_campaigns_running gauge"),
            std::string::npos);

  // The JSON total agrees with the labeled counters (>= the four requests
  // routed above; other tests in this process may add more).
  const io::json_value metrics = io::json_value::parse(
      answer(handler, make_request("GET", "/v1/metrics")).body);
  EXPECT_GE(metrics.at("requests").as_number(), 4.0);
}

TEST(control_plane, eight_concurrent_tenants_submit_and_watch_over_loopback) {
  const fs::path data = fresh_dir("control_plane_loopback");
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));
  service.start();

  net::http_server_options server_options;
  server_options.threads = 8;
  net::http_server server(server_options, service.handler());
  server.start();

  const std::string body = synthetic_campaign().to_json().dump(-1);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> finished{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      net::http_client client(server.base_url());
      const net::http_response created =
          client.post("/v1/campaigns", body, {{"X-Boson-Tenant", tenant}});
      if (created.status != 201) return;
      const std::string id =
          io::json_value::parse(created.body).at("id").as_string();
      const bool done = wait_until([&] {
        const net::http_response res = client.get("/v1/campaigns/" + id, {
            {"X-Boson-Tenant", tenant}});
        return res.status == 200 &&
               io::json_value::parse(res.body).at("state").as_string() == "done";
      });
      if (done) ++finished;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(finished.load(), 8u) << "not every tenant's campaign completed";
  EXPECT_EQ(executed.load(), 8u * 12u);

  const net::http_response metrics =
      net::http_client(server.base_url()).get("/v1/metrics");
  EXPECT_EQ(io::json_value::parse(metrics.body)
                .at("campaigns")
                .at("done")
                .as_number(),
            8.0);

  server.stop();
  service.stop();
}

// ------------------------------------------- auth, retention, store layout ---

net::http_request with_header(net::http_request req, const std::string& name,
                              const std::string& value) {
  req.headers.emplace_back(name, value);
  return req;
}

TEST(control_plane, bearer_tokens_gate_the_campaign_routes) {
  const fs::path data = fresh_dir("control_plane_auth");
  std::ofstream(data / "tenants.json")
      << R"({"alice": "secret-a", "bob": "secret-b"})";
  std::atomic<std::size_t> executed{0};
  service::campaign_service service(fast_options(data, executed));  // not started
  const net::http_handler handler = service.handler();

  const std::string body = synthetic_campaign().to_json().dump(-1);
  const auto submit = [&](const net::http_request& req) {
    return answer(handler, req).status;
  };

  // No credentials / the legacy header alone / garbage — all 401. The
  // tenant header cannot stand in for the token once tokens exist.
  EXPECT_EQ(submit(make_request("POST", "/v1/campaigns", body)), 401);
  EXPECT_EQ(submit(make_request("POST", "/v1/campaigns", body, "alice")), 401);
  EXPECT_EQ(submit(with_header(make_request("POST", "/v1/campaigns", body),
                               "Authorization", "Token secret-a")),
            401);
  EXPECT_EQ(submit(with_header(make_request("POST", "/v1/campaigns", body),
                               "Authorization", "Bearer wrong")),
            401);

  // The right token resolves the tenant without any header.
  const net::http_response created =
      answer(handler, with_header(make_request("POST", "/v1/campaigns", body),
                                  "Authorization", "Bearer secret-a"));
  ASSERT_EQ(created.status, 201);
  const std::string id = io::json_value::parse(created.body).at("id").as_string();

  // Tenancy still isolates: bob's token cannot see alice's campaign, and a
  // tenant header that contradicts the token is a 401, not a crossover.
  EXPECT_EQ(submit(with_header(make_request("GET", "/v1/campaigns/" + id),
                               "Authorization", "Bearer secret-b")),
            404);
  EXPECT_EQ(submit(with_header(make_request("GET", "/v1/campaigns/" + id, "", "bob"),
                               "Authorization", "Bearer secret-a")),
            401);
  EXPECT_EQ(submit(with_header(make_request("GET", "/v1/campaigns/" + id, "", "alice"),
                               "Authorization", "Bearer secret-a")),
            200);

  // Unauthenticated infrastructure routes stay open.
  EXPECT_EQ(answer(handler, make_request("GET", "/healthz")).status, 200);
}

TEST(campaign_service, delete_removes_a_terminal_campaign_durably) {
  const fs::path data = fresh_dir("service_delete");
  std::atomic<std::size_t> executed{0};
  std::string id;
  {
    service::campaign_service service(fast_options(data, executed));
    service.start();
    const service::campaign_record record =
        service.submit("alice", synthetic_campaign());
    id = record.id;
    ASSERT_TRUE(wait_until([&] {
      return service.registry().find("alice", id)->state == "done";
    })) << "campaign never finished";
    const net::http_handler handler = service.handler();

    EXPECT_EQ(answer(handler, make_request("DELETE", "/v1/campaigns/nope", "",
                                           "alice"))
                  .status,
              404);
    const net::http_response deleted = answer(
        handler, make_request("DELETE", "/v1/campaigns/" + id, "", "alice"));
    EXPECT_EQ(deleted.status, 200);
    EXPECT_EQ(io::json_value::parse(deleted.body).at("state").as_string(),
              "deleted");

    // Gone from every read path, and from disk.
    EXPECT_EQ(
        answer(handler, make_request("GET", "/v1/campaigns/" + id, "", "alice"))
            .status,
        404);
    EXPECT_TRUE(service.list("alice").empty());
    EXPECT_FALSE(fs::exists(data / "alice" / id));
    service.stop();
  }

  // The tombstone survives a restart: the campaign stays gone and its id is
  // never reissued.
  service::campaign_service restarted(fast_options(data, executed));
  EXPECT_TRUE(restarted.list("alice").empty());
  const service::campaign_record next =
      restarted.submit("alice", synthetic_campaign());
  EXPECT_EQ(next.id, "c0002");
}

TEST(campaign_service, segmented_journal_campaign_completes_and_pages_events) {
  const fs::path data = fresh_dir("service_segmented");
  std::atomic<std::size_t> executed{0};
  service::service_options options = fast_options(data, executed);
  options.segment_records = 8;   // force several rotations across 12 jobs
  options.compact_segments = 2;  // and at least one compaction opportunity
  options.event_page_lines = 5;  // exercise the page cap
  service::campaign_service service(options);
  service.start();

  const service::campaign_record record =
      service.submit("alice", synthetic_campaign());
  ASSERT_TRUE(wait_until([&] {
    return service.registry().find("alice", record.id)->state == "done";
  })) << "campaign never finished";
  EXPECT_EQ(executed.load(), 12u);

  // The journal landed as a store directory.
  EXPECT_TRUE(fs::is_directory(data / "alice" / record.id / "journal"));

  // Event pages respect the cap and the cursor walks the chain without
  // gaps or duplicates.
  std::vector<std::string> lines;
  std::streamoff cursor = 0;
  while (true) {
    const service::event_page page = service.events("alice", record.id, cursor, 0.0);
    EXPECT_LE(page.lines.size(), 5u);
    if (page.lines.empty()) break;
    for (const std::string& line : page.lines) lines.push_back(line);
    cursor = page.next_cursor;
  }
  EXPECT_GE(lines.size(), 12u);
  std::size_t completed = 0;
  for (const std::string& line : lines) {
    const io::json_value v = io::json_value::parse(line);
    if (v.at("state").as_string() == "completed") ++completed;
  }
  EXPECT_EQ(completed, 12u);
  service.stop();
}

/// Fork a child running `fn`; the child never returns into gtest.
template <class Fn>
pid_t fork_child(Fn&& fn) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    fn();
    std::_Exit(0);
  }
  return pid;
}

TEST(registry, concurrent_submitters_in_separate_processes_mint_unique_ids) {
  const fs::path data = fresh_dir("registry_race");
  constexpr int kChildren = 4;
  constexpr int kEach = 3;

  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    pids.push_back(fork_child([&] {
      service::campaign_registry registry({data.string(), 64});
      for (int i = 0; i < kEach; ++i)
        registry.submit("alice", synthetic_campaign(), 1.0);
    }));
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a submitting child did not exit cleanly";
  }

  // Every submit across every process got its own id and its own record —
  // the exclusive-lock section serialized the mints on the shared ledger.
  service::campaign_registry registry({data.string(), 64});
  const auto records = registry.list("alice");
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kChildren * kEach));
  std::set<std::string> ids;
  for (const auto& r : records) ids.insert(r.id);
  EXPECT_EQ(ids.size(), records.size());
}

}  // namespace
}  // namespace boson
