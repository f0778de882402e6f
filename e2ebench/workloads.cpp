#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/session.h"
#include "core/evaluate.h"
#include "io/json.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/campaign.h"
#include "runtime/lease.h"
#include "service/service.h"

namespace e2e {

using namespace boson;

namespace {

constexpr std::size_t kOptimizeIterations = 10;
constexpr std::size_t kMcSamples = 16;
constexpr std::size_t kMcProbeSamples = 8;
constexpr std::size_t kCampaignSeeds = 3;
constexpr const char* kEventsWait = "20";  // seconds, as boson_cli's watch loop
// The status poller's think time. 50 ms gives about 20 GETs per second of
// campaign, 550-650 per 30 s run, so the p90 tail has 55-65 samples beyond
// it; the GETs cost about 2% of one core.
constexpr std::chrono::milliseconds kStatusThinkTime{50};
// Leaves room for one last full long-poll inside run.py's child timeout.
constexpr double kCampaignTimeoutS = 90.0;

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The spec-level seed a workload seed maps to (specs take small integers).
std::uint64_t spec_seed(std::uint64_t seed) { return 1 + splitmix(seed) % 100000; }

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// The bend spec both single-design workloads start from (resolution 0.05,
/// the 88x88 grid), with the coarse lithography/EOLE settings of the
/// committed smoke spec.
io::json_value bend_spec(std::uint64_t seed, std::size_t iterations) {
  io::json_value v = io::json_value::parse(R"({
    "name": "e2e_bend", "device": "bend", "method": "boson", "resolution": 0.05,
    "run": {"relax_epochs": 3, "learning_rate": 0.05},
    "litho": {"na": 0.65, "sigma": 0.35, "kernel_half": 5, "max_kernels": 5},
    "eole": {"anchors_x": 4, "anchors_y": 4, "num_terms": 5},
    "evaluation": []
  })");
  v["run"]["iterations"] = iterations;
  v["run"]["seed"] = static_cast<double>(spec_seed(seed));
  return v;
}

/// Thrown by the observer of a set-up-only run once the optimization starts.
struct setup_done {};

class timing_observer : public api::observer {
 public:
  explicit timing_observer(bool stop_at_start) : stop_at_start_(stop_at_start) {}

  void on_event(const api::progress_event& e) override {
    const double now = monotonic_s();
    if (e.kind == api::progress_event::phase::stage_started && e.message == "optimize") {
      optimize_started = now;
      if (stop_at_start_) throw setup_done{};
    }
    if (e.kind == api::progress_event::phase::iteration_finished) iteration_ends.push_back(now);
  }
  double optimize_started = 0.0;
  std::vector<double> iteration_ends;

 private:
  bool stop_at_start_;
};

void check(rep_result& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) r.failures.push_back(what);
}

/// Fill the ledger entries every traced workload shares.
void finish_trace(rep_result& r, obs::trace_collector& collector, double wall_s,
                  double cpu_s) {
  obs::set_global_trace(nullptr);
  const std::vector<obs::trace_event> events = collector.events();
  add_spans(r.layers, events);
  add_counters(r.layers);
  r.layers["common.cpu_util"] = cpu_s / (wall_s * nproc());
  r.layers["trace.coverage"] = trace_coverage(events, wall_s);
}

/// Median of the server-side status-endpoint latency histogram, by linear
/// interpolation inside the bucket holding the median.
double status_server_p50_ms() {
  for (const obs::metric_sample& s : obs::registry::global().samples()) {
    if (s.name != "http.request_seconds") continue;
    bool status_endpoint = false;
    for (const auto& [k, v] : s.labels) status_endpoint |= k == "endpoint" && v == "campaign";
    if (!status_endpoint || s.hist.count == 0) continue;
    const double half = 0.5 * static_cast<double>(s.hist.count);
    double seen = 0.0;
    for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
      const double c = static_cast<double>(s.hist.counts[b]);
      if (seen + c >= half && c > 0.0) {
        const double lo = b == 0 ? 0.0 : s.hist.bounds[b - 1];
        const double hi = b < s.hist.bounds.size() ? s.hist.bounds[b] : lo;
        return 1e3 * (lo + (hi - lo) * (half - seen) / c);
      }
      seen += c;
    }
  }
  return 0.0;
}

}  // namespace

rep_result run_optimize(const rep_options& opt) {
  rep_result r;
  r.layers = empty_ledger();
  const api::experiment_spec spec =
      api::experiment_spec::from_json(bend_spec(opt.seed, kOptimizeIterations));

  timing_observer watcher(opt.setup_only);
  api::session_options so;
  so.output_dir = opt.scratch;
  so.write_artifacts = false;
  so.watcher = &watcher;
  api::session session(so);

  std::vector<core::run_checkpoint> checkpoints;
  api::run_control control;
  if (opt.traced) {
    control.checkpoint_every = 1;
    control.on_checkpoint = [&](const core::run_checkpoint& ck) { checkpoints.push_back(ck); };
  }

  obs::trace_collector collector;
  if (opt.traced) {
    obs::registry::global().reset();
    obs::set_global_trace(&collector);
  }
  const double cpu0 = cpu_seconds();
  const double t0 = monotonic_s();
  api::experiment_result result;
  try {
    obs::span sp("bench.session.run", bench_category);
    result = session.run(spec, control);
  } catch (const setup_done&) {
    r.first_work_at = watcher.optimize_started;
    return r;
  }
  const double t1 = monotonic_s();
  if (opt.traced) finish_trace(r, collector, t1 - t0, cpu_seconds() - cpu0);

  r.first_work_at = watcher.optimize_started;
  r.work_s = t1 - watcher.optimize_started;
  double prev = watcher.optimize_started;
  for (const double end : watcher.iteration_ends) {
    r.unit_s.push_back(end - prev);
    prev = end;
  }

  const core::run_result& run = result.method.run;
  check(r, watcher.optimize_started > 0.0, "optimize stage never started");
  check(r, run.trajectory.size() == kOptimizeIterations,
        "trajectory has " + std::to_string(run.trajectory.size()) + " of " +
            std::to_string(kOptimizeIterations) + " iterations");
  check(r, watcher.iteration_ends.size() == kOptimizeIterations,
        "missing iteration_finished events");
  double transmission = std::nan("");
  if (!run.trajectory.empty()) {
    const auto it = run.trajectory.back().metrics.find("transmission");
    if (it != run.trajectory.back().metrics.end()) transmission = it->second;
  }
  check(r, std::isfinite(transmission), "final nominal transmission is not finite");
  r.values["transmission"] = transmission;

  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv1a(run.design_rho.data(), run.design_rho.size() * sizeof(double), h);
  for (const auto& rec : run.trajectory) h = fnv1a(&rec.loss, sizeof rec.loss, h);
  r.result_hash = hex(h);

  if (opt.traced) probe_optimize(r.layers, spec, checkpoints);
  return r;
}

rep_result run_montecarlo(const rep_options& opt) {
  rep_result r;
  r.layers = empty_ledger();
  const api::experiment_spec spec = api::experiment_spec::from_json(bend_spec(opt.seed, 1));
  core::design_problem problem = [&] {
    obs::span sp("bench.problem_for", bench_category);
    return api::session::problem_for(spec);
  }();

  // The fixed mask: the device's light-concentrated start shape, binarized.
  const array2d<double>& field = problem.spec().init_signed_field;
  array2d<double> mask(field.nx(), field.ny());
  for (std::size_t i = 0; i < field.size(); ++i) mask.data()[i] = field.data()[i] > 0.0 ? 1.0 : 0.0;
  const std::uint64_t mc_seed = splitmix(splitmix(opt.seed) ^ (opt.rep + 1));
  if (opt.setup_only) {
    r.first_work_at = monotonic_s();
    return r;
  }

  obs::trace_collector collector;
  if (opt.traced) {
    obs::registry::global().reset();
    obs::set_global_trace(&collector);
  }
  const double cpu0 = cpu_seconds();
  const double t0 = monotonic_s();
  core::mc_stats mc;
  {
    obs::span sp("bench.postfab_monte_carlo", bench_category);
    mc = core::postfab_monte_carlo(problem, mask, kMcSamples, mc_seed);
  }
  const double t1 = monotonic_s();
  if (opt.traced) finish_trace(r, collector, t1 - t0, cpu_seconds() - cpu0);

  r.first_work_at = t0;
  r.work_s = t1 - t0;
  r.unit_s.push_back(t1 - t0);
  check(r, mc.samples == kMcSamples,
        "Monte Carlo accounted " + std::to_string(mc.samples) + " of " +
            std::to_string(kMcSamples) + " samples");
  check(r, std::isfinite(mc.fom_mean) && mc.fom_mean >= 0.0 && mc.fom_mean <= 1.0,
        "fom_mean outside [0, 1]");
  r.values["fom_mean"] = mc.fom_mean;

  if (opt.traced) probe_montecarlo(r.layers, problem, mask, kMcSamples, mc_seed, kMcProbeSamples);
  return r;
}

rep_result run_campaign_served(const rep_options& opt) {
  rep_result r;
  r.layers = empty_ledger();

  // The committed bend_campaign.json axes, with seeds added to lengthen it.
  io::json_value campaign = io::json_value::parse(R"({
    "name": "e2e_campaign",
    "axes": {"devices": ["bend", "crossing"], "methods": ["density", "ls", "boson_no_relax"]},
    "base": {
      "resolution": 0.1,
      "run": {"iterations": 6, "relax_epochs": 0, "learning_rate": 0.05,
              "use_operator_cache": true, "record_trajectory": true},
      "litho": {"na": 0.65, "sigma": 0.35, "kernel_half": 5, "max_kernels": 5},
      "eole": {"anchors_x": 4, "anchors_y": 4, "num_terms": 5},
      "evaluation": [{"type": "postfab_monte_carlo", "samples": 3}]
    },
    "scheduler": {"workers": 2, "max_retries": 1, "checkpoint_every": 2}
  })");
  io::json_value seeds = io::json_value::array();
  const std::uint64_t s0 = spec_seed(opt.seed);
  for (std::size_t k = 0; k < kCampaignSeeds; ++k) seeds.push_back(static_cast<double>(s0 + k));
  campaign["axes"]["seeds"] = std::move(seeds);
  const std::size_t jobs = 2 * 3 * kCampaignSeeds;

  service::service_options so;
  so.data_dir = opt.scratch + "/service";
  service::campaign_service svc(so);
  svc.start();
  net::http_server server(net::http_server_options{}, svc.handler());
  server.start();

  if (opt.setup_only) {  // the destructors stop the server, then the service
    r.first_work_at = monotonic_s();
    // http_server::stop() sets its stop flag and notifies without holding the
    // queue mutex, so a worker thread that is just starting can miss the
    // wake-up and block for ever. Let the workers reach their wait first.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return r;
  }

  obs::trace_collector collector;
  if (opt.traced) {
    obs::registry::global().reset();
    obs::set_global_trace(&collector);
  }

  std::size_t rejected = 0;
  const auto answered = [&](int status, const std::string& what) {
    check(r, status >= 200 && status < 300, what + " answered " + std::to_string(status));
    if (status == 429 || status == 503) ++rejected;
  };

  const double cpu0 = cpu_seconds();
  r.first_work_at = monotonic_s();
  const double posted_at = runtime::wall_clock_seconds();
  net::http_client client(server.base_url());
  net::http_response posted;
  {
    obs::span sp("bench.http.submit", bench_category);
    posted = client.post("/v1/campaigns", campaign.dump(-1));
  }
  answered(posted.status, "POST /v1/campaigns");
  const std::string id =
      posted.status == 201 ? io::json_value::parse(posted.body).at("id").as_string() : "";
  const std::string base = "/v1/campaigns/" + id;
  const double deadline = r.first_work_at + kCampaignTimeoutS;

  // Two connections: a closed-loop status poller (GET the status, wait
  // kStatusThinkTime, repeat), whose latencies are the timed units, and an
  // events watcher that long-polls the journal (wait=20, as boson_cli's
  // watch loop). The watcher stops once every job has committed, on the
  // deadline, or when a request throws (recorded as a failure); the poller
  // stops with it.
  std::atomic<bool> stop_polling{false};
  std::vector<int> poll_statuses;
  std::string poll_error;
  std::thread poller;
  if (!id.empty()) {
    poller = std::thread([&] {
      try {
        net::http_client status_client(server.base_url());
        while (!stop_polling.load()) {
          const double t = monotonic_s();
          net::http_response res;
          {
            obs::span sp("bench.http.status", bench_category);
            res = status_client.get(base);
          }
          r.unit_s.push_back(monotonic_s() - t);  // only this thread touches unit_s until the join
          poll_statuses.push_back(res.status);
          std::this_thread::sleep_for(kStatusThinkTime);
        }
      } catch (const std::exception& e) {
        poll_error = e.what();
      }
    });
  }

  bool all_committed = false;
  double first_leased = 0.0;
  double queue_wait = 0.0;
  std::size_t failed_records = 0;
  std::set<std::size_t> completed;
  std::set<std::size_t> leased;
  net::http_client events(server.base_url());
  std::string cursor = "0";
  try {
    while (!id.empty() && !all_committed && monotonic_s() < deadline) {
      net::http_response res;
      {
        obs::span sp("bench.http.events", bench_category);
        res = events.get(base + "/events?cursor=" + cursor + "&wait=" + kEventsWait);
      }
      answered(res.status, "GET events");
      if (res.status != 200) break;
      if (const std::string* next = res.header("X-Boson-Cursor")) cursor = *next;
      std::size_t start = 0;
      while (start < res.body.size()) {
        const std::size_t end = std::min(res.body.find('\n', start), res.body.size());
        const std::string line = res.body.substr(start, end - start);
        start = end + 1;
        if (line.empty()) continue;
        const io::json_value rec = io::json_value::parse(line);
        const auto job = static_cast<std::size_t>(rec.at("job").as_number());
        const std::string& state = rec.at("state").as_string();
        const io::json_value* t = rec.find("t");
        if (state == "leased" && t != nullptr && leased.insert(job).second) {
          queue_wait += t->as_number() - posted_at;
          if (first_leased == 0.0) first_leased = t->as_number();
        }
        if (state == "failed") ++failed_records;
        if (state == "completed") completed.insert(job);
      }
      all_committed = completed.size() == jobs;
    }
  } catch (const std::exception& e) {
    check(r, false, std::string("watch loop: ") + e.what());
  }
  stop_polling = true;
  if (poller.joinable()) poller.join();
  for (const int status : poll_statuses) answered(status, "GET status");
  if (!poll_error.empty()) check(r, false, "status poller: " + poll_error);

  // The makespan ends once /report also shows every row.
  std::size_t rows = 0;
  while (!id.empty() && monotonic_s() < deadline) {
    const net::http_response res = client.get(base + "/report");
    answered(res.status, "GET report");
    if (res.status != 200) break;
    rows = static_cast<std::size_t>(io::json_value::parse(res.body).at("rows_stored").as_number());
    if (rows >= jobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double reported_at = monotonic_s();
  r.work_s = reported_at - r.first_work_at;
  const double cpu_s = cpu_seconds() - cpu0;

  // Settle: wait for the service to mark the campaign done before shutdown.
  io::json_value status;
  while (!id.empty() && monotonic_s() < deadline) {
    const net::http_response res = client.get(base);
    answered(res.status, "GET status");
    if (res.status != 200) break;
    status = io::json_value::parse(res.body);
    if (status.at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  svc.drain();
  server.stop();
  svc.stop();

  if (opt.traced) {
    finish_trace(r, collector, r.work_s, cpu_s);
    r.layers["runtime.queue_wait_s"] = queue_wait;
    r.layers["runtime.retries"] = static_cast<double>(failed_records);
    // Journal stamps carry 10 ms resolution, so a pickup can read just below 0.
    r.layers["service.pickup_s"] = first_leased > 0.0 ? std::max(0.0, first_leased - posted_at) : 0.0;
    r.layers["net.status_server_p50_ms"] = status_server_p50_ms();
    r.layers["net.requests_rejected"] = static_cast<double>(rejected);
    probe_store_append(r.layers, opt.scratch + "/store_probe");
    std::vector<api::experiment_spec> pairs;  // the first seed's job of every device x method
    for (const runtime::campaign_job& job : runtime::campaign_spec::from_json(campaign).expand())
      if (job.spec.seed == s0) pairs.push_back(job.spec);
    probe_campaign(r.layers, pairs, static_cast<double>(kCampaignSeeds));
  }

  check(r, !id.empty(), "campaign was not accepted");
  check(r, all_committed, "watcher saw " + std::to_string(completed.size()) + "/" +
                                     std::to_string(jobs) + " jobs committed");
  check(r, rows == jobs,
        "/report shows " + std::to_string(rows) + "/" + std::to_string(jobs) + " rows");
  const bool all_completed = status.is_object() && status.at("all_completed").as_bool() &&
                             static_cast<std::size_t>(status.at("total_jobs").as_number()) == jobs;
  check(r, all_completed, "status does not show every job completed");
  r.attempted += jobs;  // every failed attempt is a failed (retried or abandoned) job run
  for (std::size_t k = 0; k < failed_records; ++k) r.failures.push_back("a job attempt failed");
  std::filesystem::remove_all(so.data_dir);
  return r;
}

}  // namespace e2e
