// bench_service — wall-clocks the campaign control plane and the status-path
// primitives it leans on, writing BENCH_service.json for bench_compare:
//
//   http.*            requests/s through the full loopback stack (client ->
//                     http_server -> handler -> service) on the two hot
//                     endpoints: GET status and POST submit
//   journal_cursor.*  polling a growing journal via journal::since versus a
//                     full replay per poll (the event stream / lease manager
//                     economics)
//   result_store.*    result_store::count_rows versus materializing every row
//                     with load (the per-status-request row count)
//
// No simulations run anywhere: executors are no-ops, so the numbers isolate
// the service machinery.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timer.h"
#include "io/json.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "service/service.h"

namespace {

namespace fs = std::filesystem;
using boson::io::json_value;

/// A 6-job campaign spec that is cheap to expand and serialize.
boson::runtime::campaign_spec small_campaign() {
  boson::runtime::campaign_spec spec;
  spec.name = "bench_service";
  spec.devices = {"bend"};
  spec.methods = {"density", "ls", "boson_no_relax"};
  spec.seeds = {1, 2};
  spec.base.resolution = 0.1;
  spec.base.iterations = 6;
  spec.base.relax_epochs = 0;
  spec.base.litho.na = 0.65;
  spec.base.litho.sigma = 0.35;
  spec.base.litho.kernel_half = 5;
  spec.base.litho.max_kernels = 5;
  spec.base.eole.anchors_x = 4;
  spec.base.eole.anchors_y = 4;
  spec.base.eole.num_terms = 5;
  spec.scheduler.workers = 2;
  spec.scheduler.max_retries = 0;
  return spec;
}

/// HTTP request/s on the status and submit paths through a real socket.
json_value time_http(const fs::path& root) {
  using namespace boson;

  service::service_options options;
  options.data_dir = (root / "http").string();
  options.runners = 2;
  options.poll_interval = 0.005;
  options.write_artifacts = false;
  const std::size_t submits = 64;
  options.tenant_quota = submits + 8;
  options.executor = [](const runtime::campaign_job& job, const api::run_control&,
                        api::observer*) {
    api::experiment_result result;
    result.spec = job.spec;
    return result;
  };
  service::campaign_service service(options);
  service.start();

  net::http_server_options server_options;
  server_options.threads = 4;
  net::http_server server(server_options, service.handler());
  server.start();
  net::http_client client(server.base_url());

  const std::string body = small_campaign().to_json().dump(-1);
  json_value report = json_value::object();

  {  // submit path: POST spec -> registry + spec persisted + 201 record.
    stopwatch sw;
    for (std::size_t i = 0; i < submits; ++i) {
      const net::http_response res = client.post("/v1/campaigns", body);
      if (res.status != 201) {
        std::fprintf(stderr, "bench_service: submit answered %d\n", res.status);
        std::exit(1);
      }
    }
    const double seconds = sw.seconds();
    report["submit_requests"] = submits;
    report["submit_seconds"] = seconds;
    report["submit_requests_per_second"] = static_cast<double>(submits) / seconds;
    std::printf("http submit: %zu requests in %.3f s => %.0f req/s\n", submits,
                seconds, static_cast<double>(submits) / seconds);
  }

  {  // status path: GET the first campaign until the clock says enough.
    const std::size_t reads = 512;
    stopwatch sw;
    for (std::size_t i = 0; i < reads; ++i) {
      const net::http_response res = client.get("/v1/campaigns/c0001");
      if (res.status != 200) {
        std::fprintf(stderr, "bench_service: status answered %d\n", res.status);
        std::exit(1);
      }
    }
    const double seconds = sw.seconds();
    report["status_requests"] = reads;
    report["status_seconds"] = seconds;
    report["status_requests_per_second"] = static_cast<double>(reads) / seconds;
    std::printf("http status: %zu requests in %.3f s => %.0f req/s\n", reads,
                seconds, static_cast<double>(reads) / seconds);
  }

  server.stop();
  service.stop();
  return report;
}

/// Poll a growing journal: cursor (`journal::since`) vs full replay per poll.
json_value time_journal_cursor(const fs::path& root) {
  using namespace boson;

  const fs::path dir = root / "journal";
  const std::size_t entries = 20000;
  const std::size_t batches = 100;

  const auto grow = [&](const std::string& path, std::size_t count) {
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_name = "bench_job";
    e.state = runtime::job_state::checkpointed;
    e.attempt = 1;
    e.detail = "iteration 10/50";
    for (std::size_t i = 0; i < count; ++i) {
      e.job_index = i;
      log.append(e);
    }
  };

  json_value report = json_value::object();
  report["entries"] = entries;
  report["polls"] = batches;

  {  // a poller that folds with journal::since pays only for the growth.
    const std::string path = runtime::journal_path((dir / "since").string());
    runtime::journal_cursor cursor;
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_name = "bench_job";
    e.state = runtime::job_state::checkpointed;
    e.attempt = 1;
    double poll_seconds = 0.0;
    std::size_t seen = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < entries / batches; ++i) {
        e.job_index = b * (entries / batches) + i;
        log.append(e);
      }
      stopwatch sw;
      seen += runtime::journal::since(path, cursor).size();
      poll_seconds += sw.seconds();
    }
    report["since_poll_seconds"] = poll_seconds;
    report["since_entries_seen"] = seen;
    std::printf("journal since: %zu polls over %zu entries in %.3f s\n", batches,
                seen, poll_seconds);
  }

  {  // the naive poller replays the whole file every time (O(n^2) total).
    const std::string path = runtime::journal_path((dir / "replay").string());
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_name = "bench_job";
    e.state = runtime::job_state::checkpointed;
    e.attempt = 1;
    double poll_seconds = 0.0;
    std::size_t seen = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < entries / batches; ++i) {
        e.job_index = b * (entries / batches) + i;
        log.append(e);
      }
      stopwatch sw;
      seen = runtime::journal::replay(path).size();
      poll_seconds += sw.seconds();
    }
    report["replay_poll_seconds"] = poll_seconds;
    std::printf("journal replay-per-poll: %zu polls to %zu entries in %.3f s\n",
                batches, seen, poll_seconds);
    report["speedup_since_vs_replay"] =
        poll_seconds / report.at("since_poll_seconds").as_number();
  }

  {  // one-shot drain of a finished journal: since and replay should tie.
    const std::string path = runtime::journal_path((dir / "drain").string());
    grow(path, entries);
    stopwatch sw;
    const std::size_t replayed = runtime::journal::replay(path).size();
    const double replay_s = sw.seconds();
    runtime::journal_cursor cursor;
    sw.reset();
    const std::size_t drained = runtime::journal::since(path, cursor).size();
    const double since_s = sw.seconds();
    report["full_replay_seconds"] = replay_s;
    report["full_since_seconds"] = since_s;
    std::printf("journal full drain: replay %.3f s (%zu), since %.3f s (%zu)\n",
                replay_s, replayed, since_s, drained);
  }
  return report;
}

/// Distinct-job counting: count_rows vs materializing every row with load.
json_value time_count_rows(const fs::path& root) {
  using namespace boson;

  const fs::path dir = root / "store";
  fs::create_directories(dir);
  const std::size_t rows = 10000;
  {
    runtime::result_store store(dir.string());
    runtime::job_result_row row;
    row.name = "bench_job";
    row.device = "bend";
    row.method = "density";
    row.postfab_samples = 16;
    for (std::size_t i = 0; i < rows; ++i) {
      row.job_index = i;
      row.prefab_fom = static_cast<double>(i);
      store.append(row);
    }
  }

  stopwatch sw;
  const std::size_t counted = runtime::result_store::count_rows(dir.string());
  const double count_s = sw.seconds();
  sw.reset();
  const std::size_t loaded = runtime::result_store::load(dir.string()).size();
  const double load_s = sw.seconds();

  json_value report = json_value::object();
  report["rows"] = rows;
  report["counted"] = counted;
  report["count_rows_seconds"] = count_s;
  report["load_seconds"] = load_s;
  report["speedup_count_vs_load"] = load_s / count_s;
  std::printf("result store: count_rows %.4f s, load %.4f s (%zu/%zu rows)\n",
              count_s, load_s, counted, loaded);
  return report;
}

}  // namespace

int main() {
  const fs::path root = fs::temp_directory_path() / "boson_bench_service";
  fs::remove_all(root);
  fs::create_directories(root);

  json_value report = json_value::object();
  try {
    report["http"] = time_http(root);
    report["journal_cursor"] = time_journal_cursor(root);
    report["result_store"] = time_count_rows(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return 1;
  }
  report.write_file("BENCH_service.json");
  std::printf("service timings written to BENCH_service.json\n");
  fs::remove_all(root);
  return 0;
}
