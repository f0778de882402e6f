// boson_cli — the declarative experiment driver of the BOSON-1 library.
//
// Experiments are JSON specs (see docs/API.md for the schema) executed
// through the boson::api session façade:
//
//   boson_cli run <spec.json> [--out <dir>] [--no-artifacts]
//   boson_cli validate <spec.json>
//   boson_cli list devices|methods|objectives [--json]
//   boson_cli describe method <name>
//
// Campaigns (see docs/RUNTIME.md) are whole experiment matrices executed by
// the boson::runtime scheduler — elastic (lease-coordinated), journaled, and
// resumable. Any number of worker processes can share one campaign
// directory; each claims jobs through journal leases and dead workers' jobs
// are re-leased automatically:
//
//   boson_cli campaign run <campaign.json> [--out <dir>] [--worker <id>]
//                          [--workers N] [--lease-ttl <s>] [--no-artifacts]
//   boson_cli campaign resume <dir> [--worker <id>] [--workers N]
//                          [--lease-ttl <s>]
//   boson_cli campaign status <dir>
//   boson_cli campaign report <dir>
//
// (`--fault point[:n]` SIGKILLs the process at a named scheduler kill
// point, for fault-injection tests.)
//
// `run` accepts a single spec (JSON object) or a batch (JSON array) and
// writes one artifact directory per experiment (summary.json,
// trajectory.csv, mask.pgm, plus spectrum / process-window CSVs when those
// evaluation steps are planned). Progress streams through common/log on
// stderr; result tables go to stdout. A spec runs exactly as written;
// BOSON_THREADS caps the worker threads as everywhere else.

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "common/env.h"
#include "common/log.h"
#include "core/methods.h"
#include "io/table.h"
#include "net/http_client.h"
#include "obs/trace.h"
#include "runtime/campaign.h"
#include "runtime/journal.h"
#include "runtime/lease.h"
#include "runtime/result_store.h"
#include "runtime/scheduler.h"
#include "service/status.h"

namespace {

using namespace boson;

int usage(std::FILE* out) {
  std::fprintf(out,
               "boson_cli — declarative experiment driver for the BOSON-1 library\n"
               "\n"
               "usage:\n"
               "  boson_cli run <spec.json> [--out <dir>] [--no-artifacts]\n"
               "                         [--trace <trace.json>]\n"
               "  boson_cli validate <spec.json>\n"
               "  boson_cli list devices|methods|objectives [--json]\n"
               "  boson_cli describe method <name>\n"
               "  boson_cli campaign run <campaign.json> [--out <dir>] [--worker <id>]\n"
               "                         [--workers N] [--lease-ttl <s>] [--no-artifacts]\n"
               "                         [--trace]\n"
               "  boson_cli campaign resume <dir> [--worker <id>] [--workers N]\n"
               "                         [--lease-ttl <s>] [--trace]\n"
               "  boson_cli campaign status <dir> [--json]\n"
               "  boson_cli campaign report <dir>\n"
               "  boson_cli campaign submit <campaign.json> --server <url> [--tenant <t>]\n"
               "                         [--token <token>]\n"
               "  boson_cli campaign status|watch|report|cancel|delete <id> --server <url>\n"
               "                         [--tenant <t>] [--token <token>] [--json]\n"
               "\n"
               "run       execute one spec (JSON object) or a batch (JSON array);\n"
               "          artifacts land in --out (default: boson_out)\n"
               "validate  parse + validate a spec file without running it\n"
               "list      show the registered scenario names (--json emits a\n"
               "          machine-readable array for campaign generators)\n"
               "describe  print a registered method's fully-resolved recipe\n"
               "campaign  elastic, journaled, resumable execution of a whole\n"
               "          experiment matrix (see docs/RUNTIME.md). Point any\n"
               "          number of workers (--worker <id>) at one --out dir;\n"
               "          jobs are claimed through journal leases and a dead\n"
               "          worker's jobs are re-leased after --lease-ttl:\n"
               "            run     expand + execute claimable jobs\n"
               "            resume  continue a killed/partial campaign directory\n"
               "                    (also attaches to a boson_serve campaign dir)\n"
               "            status  replay the journal into a per-job state table\n"
               "                    (owner + lease column for live/expired leases);\n"
               "                    --json emits the service's status snapshot\n"
               "            report  render the paper-style tables from the store\n"
               "          with --server <url>, campaigns run on a boson_serve\n"
               "          daemon instead (docs/SERVICE.md): submit posts the spec,\n"
               "          watch streams journal events to completion, status/\n"
               "          report/cancel hit the matching endpoints; delete removes\n"
               "          a terminal campaign (registry tombstone + artifacts);\n"
               "          --tenant selects the namespace (default: \"default\");\n"
               "          --token (or BOSON_TOKEN) sends Authorization: Bearer,\n"
               "          required when the server has a tenants.json\n"
               "          --fault point[:n] SIGKILLs at a named kill point\n"
               "          (after_lease, mid_run, after_checkpoint, before_result)\n"
               "          for fault-injection tests\n"
               "tracing   'run --trace <file>' writes one Chrome trace_event JSON\n"
               "          for the whole run; 'campaign ... --trace' (or BOSON_TRACE=1)\n"
               "          writes a per-job trace.json next to each summary.json\n");
  return out == stdout ? 0 : 2;
}

int cmd_list(const std::string& what, bool as_json) {
  if (what == "devices") {
    if (as_json) {
      io::json_value arr = io::json_value::array();
      for (const api::device_entry& device : api::device_table) {
        io::json_value e = io::json_value::object();
        e["name"] = device.name;
        e["description"] = device.description;
        arr.push_back(std::move(e));
      }
      std::printf("%s\n", arr.dump(2).c_str());
      return 0;
    }
    io::console_table table({"device", "description"});
    for (const api::device_entry& device : api::device_table)
      table.add_row({device.name, device.description});
    table.print("Registered devices");
    return 0;
  }
  if (what == "methods") {
    if (as_json) {
      // The machine-readable form campaign generators consume: identity,
      // the spec-validation-relevant facts, and the full preset recipe.
      io::json_value arr = io::json_value::array();
      for (const auto& name : api::method_names()) {
        const core::method_recipe& recipe = api::find_method(name);
        io::json_value e = io::json_value::object();
        e["name"] = name;
        e["label"] = recipe.label;
        e["parameterization"] = recipe.parameterization;
        e["objective_override"] = recipe.objective_override;
        e["signature"] = recipe.signature();
        e["recipe"] = api::recipe_to_json(recipe);
        arr.push_back(std::move(e));
      }
      std::printf("%s\n", arr.dump(2).c_str());
      return 0;
    }
    io::console_table table({"method", "label", "recipe"});
    for (const auto& name : api::method_names()) {
      const core::method_recipe& recipe = api::find_method(name);
      table.add_row({name, recipe.label, recipe.signature()});
    }
    table.print("Registered methods");
    return 0;
  }
  if (what == "objectives") {
    if (as_json) {
      io::json_value arr = io::json_value::array();
      for (const api::objective_entry& objective : api::objective_table) {
        io::json_value e = io::json_value::object();
        e["name"] = objective.name;
        e["override_metric"] = objective.override_metric;
        e["description"] = objective.description;
        arr.push_back(std::move(e));
      }
      std::printf("%s\n", arr.dump(2).c_str());
      return 0;
    }
    io::console_table table({"objective", "description"});
    for (const api::objective_entry& objective : api::objective_table)
      table.add_row({objective.name, objective.description});
    table.print("Registered objectives");
    return 0;
  }
  std::fprintf(stderr,
               "boson_cli: unknown list target '%s' (expected devices, methods or "
               "objectives)\n",
               what.c_str());
  return 2;
}

int cmd_describe(const std::string& kind, const std::string& name) {
  if (kind != "method") {
    std::fprintf(stderr, "boson_cli: unknown describe target '%s' (expected method)\n",
                 kind.c_str());
    return 2;
  }
  // Throws the did-you-mean error for unknown names.
  const core::method_recipe& recipe = api::find_method(name);
  io::json_value v = io::json_value::object();
  v["name"] = name;
  v["label"] = recipe.label;
  v["signature"] = recipe.signature();
  v["recipe"] = api::recipe_to_json(recipe);
  std::printf("%s\n", v.dump(2).c_str());
  return 0;
}

int cmd_validate(const std::string& path) {
  const std::vector<api::experiment_spec> specs = api::load_specs(path);
  std::printf("%s: %zu valid spec%s\n", path.c_str(), specs.size(),
              specs.size() == 1 ? "" : "s");
  for (const auto& spec : specs)
    std::printf("  %-24s %s x %s @ %g um\n", spec.display_name().c_str(),
                spec.device.c_str(), spec.method.c_str(), spec.resolution);
  return 0;
}

int cmd_run(const std::string& path, const api::session_options& options) {
  const std::vector<api::experiment_spec> specs = api::load_specs(path);

  api::session session(options);
  const std::vector<api::experiment_result> results = session.run_all(specs);

  io::console_table table(
      {"experiment", "prefab FoM", "postfab FoM", "runtime [s]", "artifacts"});
  for (const auto& r : results) {
    const std::string postfab =
        r.method.postfab.samples > 0
            ? io::console_table::sci(r.method.postfab.fom_mean) + " +- " +
                  io::console_table::sci(r.method.postfab.fom_std)
            : "-";
    table.add_row({r.spec.name, io::console_table::sci(r.method.prefab_fom), postfab,
                   io::console_table::num(r.seconds, 1),
                   r.artifact_dir.empty() ? "-" : r.artifact_dir});
  }
  std::printf("\n");
  table.print("Executed " + std::to_string(results.size()) + " experiment" +
              (results.size() == 1 ? "" : "s") + " from " + path);
  return 0;
}

// ----------------------------------------------------------- campaigns ----

/// Execute one scheduler pass over a campaign directory and print the
/// outcome. Returns a process exit code (failures -> 1).
int run_campaign(const runtime::campaign_spec& spec, runtime::scheduler_options options) {
  runtime::scheduler scheduler(spec, options);
  const std::string worker = scheduler.worker_id();
  const runtime::scheduler_report report = scheduler.run();

  io::console_table table({"jobs", "completed", "skipped", "resumed", "failed",
                           "cancelled", "claimed", "stolen", "lost", "left leased",
                           "wall [s]"});
  table.add_row({std::to_string(report.jobs), std::to_string(report.completed),
                 std::to_string(report.skipped), std::to_string(report.resumed),
                 std::to_string(report.failed), std::to_string(report.cancelled),
                 std::to_string(report.claimed), std::to_string(report.stolen),
                 std::to_string(report.lost), std::to_string(report.left_leased),
                 io::console_table::num(report.wall_seconds, 1)});
  std::printf("\n");
  table.print("Campaign '" + spec.name + "' worker " + worker);
  if (report.left_leased > 0)
    std::fprintf(stderr,
                 "boson_cli: %zu job(s) are leased to other workers; re-run "
                 "'campaign resume' (after their lease TTL) to pick up leftovers\n",
                 report.left_leased);
  for (const std::string& message : report.errors)
    std::fprintf(stderr, "boson_cli: job failed: %s\n", message.c_str());
  return report.failed == 0 && report.errors.empty() ? 0 : 1;
}

int cmd_campaign_run(const std::string& spec_path, runtime::scheduler_options options) {
  const runtime::campaign_spec spec = runtime::campaign_spec::load(spec_path);
  std::filesystem::create_directories(options.campaign_dir);
  // Persist the canonical spec next to the journal so status/resume/report
  // need only the directory. Shards of one campaign write identical bytes —
  // but a *different* campaign aimed at a used directory would inherit a
  // journal/store keyed by the old expansion (wrongly-skipped jobs, reports
  // mixing stale rows), so that is refused outright.
  const std::string canonical_path = runtime::campaign_spec_path(options.campaign_dir);
  if (std::filesystem::exists(canonical_path)) {
    if (io::json_value::parse_file(canonical_path).dump() != spec.to_json().dump()) {
      std::fprintf(stderr,
                   "boson_cli: '%s' already holds a different campaign; use a fresh "
                   "--out directory, or 'campaign resume %s' to continue the "
                   "existing one\n",
                   options.campaign_dir.c_str(), options.campaign_dir.c_str());
      return 2;
    }
  } else {
    spec.to_json().write_file(canonical_path);
  }
  return run_campaign(spec, std::move(options));
}

int cmd_campaign_resume(runtime::scheduler_options options) {
  const std::string path = runtime::campaign_spec_path(options.campaign_dir);
  if (!std::filesystem::exists(path)) {
    std::fprintf(stderr, "boson_cli: '%s' is not a campaign directory (no campaign.json)\n",
                 options.campaign_dir.c_str());
    return 2;
  }
  return run_campaign(runtime::campaign_spec::load(path), std::move(options));
}

int cmd_campaign_status(const std::string& dir, bool as_json) {
  // One snapshot type serves the CLI and the service control plane (see
  // service/status.h), so `status --json` here and GET /v1/campaigns/{id}
  // describe a campaign in the same shape.
  const service::campaign_status status =
      service::read_campaign_status(dir, runtime::wall_clock_seconds());
  if (as_json) std::printf("%s\n", status.to_json(true).dump(2).c_str());
  else std::fputs(status.render_text().c_str(), stdout);
  return 0;
}

int cmd_campaign_report(const std::string& dir) {
  const runtime::campaign_spec spec =
      runtime::campaign_spec::load(runtime::campaign_spec_path(dir));
  const std::vector<runtime::job_result_row> rows = runtime::result_store::load(dir);
  std::fputs(runtime::render_report(spec, rows).c_str(), stdout);
  return 0;
}

// ------------------------------------------------- remote campaign mode ----

/// True for 2xx; otherwise surface the control plane's JSON error envelope
/// (falling back to the raw body) on stderr.
bool remote_ok(const net::http_response& res) {
  if (res.status >= 200 && res.status < 300) return true;
  std::string message = res.body;
  try {
    message = io::json_value::parse(res.body).at("error").at("message").as_string();
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "boson_cli: server answered %d %s: %s\n", res.status,
               net::status_reason(res.status), message.c_str());
  return false;
}

/// Credentials for remote mode: --tenant names the namespace, --token (or
/// BOSON_TOKEN) authenticates it when the server has a tenants.json. The
/// token travels as `Authorization: Bearer <token>`; the tenant header
/// stays as a cross-check (the server 401s on a mismatch).
struct remote_auth {
  std::string tenant;
  std::string token;

  std::vector<std::pair<std::string, std::string>> headers() const {
    std::vector<std::pair<std::string, std::string>> h;
    if (!tenant.empty()) h.emplace_back("X-Boson-Tenant", tenant);
    if (!token.empty()) h.emplace_back("Authorization", "Bearer " + token);
    return h;
  }
};

int cmd_remote_submit(const std::string& server, const remote_auth& auth,
                      const std::string& spec_path) {
  std::ifstream in(spec_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "boson_cli: cannot read '%s'\n", spec_path.c_str());
    return 2;
  }
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  net::http_client client(server);
  const net::http_response res =
      client.post("/v1/campaigns", body, auth.headers());
  if (!remote_ok(res)) return 1;
  const io::json_value record = io::json_value::parse(res.body);
  std::printf("%s\n", record.dump(2).c_str());
  std::fprintf(stderr, "boson_cli: submitted campaign %s (%s)\n",
               record.at("id").as_string().c_str(), server.c_str());
  return 0;
}

int cmd_remote_status(const std::string& server, const remote_auth& auth,
                      const std::string& id, bool as_json) {
  net::http_client client(server);
  const net::http_response res =
      client.get("/v1/campaigns/" + id + "/jobs", auth.headers());
  if (!remote_ok(res)) return 1;
  if (as_json) {
    std::fputs(res.body.c_str(), stdout);
    return 0;
  }
  const io::json_value v = io::json_value::parse(res.body);
  std::printf("campaign %s '%s': %s, %zu/%zu result rows\n",
              v.at("id").as_string().c_str(), v.at("name").as_string().c_str(),
              v.at("state").as_string().c_str(),
              static_cast<std::size_t>(v.at("result_rows").as_number()),
              static_cast<std::size_t>(v.at("total_jobs").as_number()));
  std::string summary;
  for (const auto& [state, n] : v.at("counts").members())
    summary += (summary.empty() ? "" : ", ") +
               std::to_string(static_cast<std::size_t>(n.as_number())) + " " + state;
  std::printf("%s\n", summary.c_str());
  return 0;
}

int cmd_remote_watch(const std::string& server, const remote_auth& auth,
                     const std::string& id) {
  net::http_client client(server);
  const auto headers = auth.headers();
  std::string cursor = "0";
  int transport_failures = 0;

  // One GET with bounded retry on transport errors: the server's write
  // timeout drops consumers that stop reading, and our cursor makes the
  // reconnect gap-free (X-Boson-Cursor only advances past delivered
  // lines, so re-asking from `cursor` re-delivers nothing and skips
  // nothing). HTTP-level errors (404, 401, ...) are not retried.
  const auto fetch = [&](const std::string& path) -> std::optional<net::http_response> {
    while (true) {
      try {
        net::http_response res = client.get(path, headers);
        transport_failures = 0;
        return res;
      } catch (const std::exception& e) {
        if (++transport_failures > 5) {
          std::fprintf(stderr, "boson_cli: giving up after repeated transport errors: %s\n",
                       e.what());
          return std::nullopt;
        }
        std::fprintf(stderr, "boson_cli: transport error (%s); retrying from cursor %s\n",
                     e.what(), cursor.c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(200 * transport_failures));
      }
    }
  };

  // Long-poll the journal stream; after each page, check the lifecycle
  // state. On a terminal state, drain one final page (records appended
  // between our last read and the state flip) before returning.
  const auto fetch_events = [&](const std::string& wait) -> std::optional<bool> {
    const auto res = fetch("/v1/campaigns/" + id + "/events?cursor=" + cursor +
                           "&wait=" + wait);
    if (!res || !remote_ok(*res)) return std::nullopt;
    if (const std::string* next = res->header("X-Boson-Cursor")) cursor = *next;
    if (!res->body.empty()) {
      std::fputs(res->body.c_str(), stdout);
      std::fflush(stdout);
    }
    return true;
  };

  while (true) {
    if (!fetch_events("20")) return 1;
    const auto status = fetch("/v1/campaigns/" + id);
    if (!status || !remote_ok(*status)) return 1;
    const std::string state =
        io::json_value::parse(status->body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      if (!fetch_events("0")) return 1;
      std::fprintf(stderr, "boson_cli: campaign %s %s\n", id.c_str(), state.c_str());
      return state == "done" ? 0 : 1;
    }
  }
}

int cmd_remote_report(const std::string& server, const remote_auth& auth,
                      const std::string& id, bool as_json) {
  net::http_client client(server);
  const std::string path =
      "/v1/campaigns/" + id + "/report" + (as_json ? "?format=json" : "?format=text");
  const net::http_response res = client.get(path, auth.headers());
  if (!remote_ok(res)) return 1;
  std::fputs(res.body.c_str(), stdout);
  return 0;
}

int cmd_remote_cancel(const std::string& server, const remote_auth& auth,
                      const std::string& id) {
  net::http_client client(server);
  const net::http_response res =
      client.post("/v1/campaigns/" + id + "/cancel", "", auth.headers());
  if (!remote_ok(res)) return 1;
  std::fputs(res.body.c_str(), stdout);
  std::printf("\n");
  return 0;
}

int cmd_remote_delete(const std::string& server, const remote_auth& auth,
                      const std::string& id) {
  net::http_client client(server);
  const net::http_response res =
      client.del("/v1/campaigns/" + id, auth.headers());
  if (!remote_ok(res)) return 1;
  std::fputs(res.body.c_str(), stdout);
  std::printf("\n");
  std::fprintf(stderr, "boson_cli: campaign %s deleted\n", id.c_str());
  return 0;
}

int cmd_campaign(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage(stderr);
  const std::string& action = args[0];
  const bool known_local = action == "run" || action == "resume" ||
                           action == "status" || action == "report";
  const bool known_remote = action == "submit" || action == "watch" ||
                            action == "cancel" || action == "delete" ||
                            known_local;
  if (!known_remote) {
    std::fprintf(stderr, "boson_cli: unknown campaign action '%s'\n", action.c_str());
    return usage(stderr);
  }

  std::string target;
  std::string server;
  remote_auth auth;
  auth.token = env_string("BOSON_TOKEN", "");
  bool as_json = false;
  runtime::scheduler_options options;
  // Lives past run(): fault actions fire from inside scheduler worker
  // threads (the kill action never returns anyway, but keep the lifetime
  // honest).
  static runtime::fault_injector faults;
  bool saw_out = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage(stderr);
      options.campaign_dir = args[++i];
      saw_out = true;
    } else if (args[i] == "--server") {
      if (i + 1 >= args.size()) return usage(stderr);
      server = args[++i];
    } else if (args[i] == "--tenant") {
      if (i + 1 >= args.size()) return usage(stderr);
      auth.tenant = args[++i];
    } else if (args[i] == "--token") {
      if (i + 1 >= args.size()) return usage(stderr);
      auth.token = args[++i];
    } else if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--worker") {
      if (i + 1 >= args.size()) return usage(stderr);
      options.worker_id = args[++i];
    } else if (args[i] == "--lease-ttl") {
      if (i + 1 >= args.size()) return usage(stderr);
      options.lease_ttl = std::stod(args[++i]);
    } else if (args[i] == "--fault") {
      if (i + 1 >= args.size()) return usage(stderr);
      faults.arm(args[++i]);
      options.faults = &faults;
    } else if (args[i] == "--workers") {
      if (i + 1 >= args.size()) return usage(stderr);
      options.workers = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (args[i] == "--no-artifacts") {
      options.write_artifacts = false;
    } else if (args[i] == "--trace") {
      options.trace = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::fprintf(stderr, "boson_cli: unknown option '%s'\n", args[i].c_str());
      return 2;
    } else if (target.empty()) {
      target = args[i];
    } else {
      return usage(stderr);
    }
  }
  if (target.empty()) return usage(stderr);

  if (!server.empty()) {
    // Remote mode: the target is a spec file (submit) or a campaign id.
    if (action == "submit") return cmd_remote_submit(server, auth, target);
    if (action == "status") return cmd_remote_status(server, auth, target, as_json);
    if (action == "watch") return cmd_remote_watch(server, auth, target);
    if (action == "report") return cmd_remote_report(server, auth, target, as_json);
    if (action == "cancel") return cmd_remote_cancel(server, auth, target);
    if (action == "delete") return cmd_remote_delete(server, auth, target);
    std::fprintf(stderr,
                 "boson_cli: campaign %s is local-only (did you mean 'campaign "
                 "submit --server'?)\n",
                 action.c_str());
    return 2;
  }
  if (!known_local) {
    std::fprintf(stderr, "boson_cli: campaign %s needs --server <url>\n", action.c_str());
    return 2;
  }
  if (!auth.tenant.empty()) {
    std::fprintf(stderr, "boson_cli: --tenant only applies with --server\n");
    return 2;
  }

  if (action == "status") return cmd_campaign_status(target, as_json);
  if (action == "report") return cmd_campaign_report(target);
  if (action == "resume") {
    if (saw_out) return usage(stderr);  // resume takes the directory directly
    options.campaign_dir = target;
    return cmd_campaign_resume(std::move(options));
  }
  return cmd_campaign_run(target, std::move(options));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace boson;

  // Progress is the CLI's interface: default to info-level logging unless
  // the user pinned a level via BOSON_LOG.
  if (env_string("BOSON_LOG", "").empty()) set_log_level(log_level::info);

  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    return usage(args.empty() ? stderr : stdout);
  }

  try {
    const std::string& command = args[0];
    if (command == "list") {
      std::string what;
      bool as_json = false;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--json") as_json = true;
        else if (!args[i].empty() && args[i][0] == '-') {
          std::fprintf(stderr, "boson_cli: unknown option '%s'\n", args[i].c_str());
          return 2;
        } else if (what.empty()) what = args[i];
        else return usage(stderr);
      }
      if (what.empty()) return usage(stderr);
      return cmd_list(what, as_json);
    }
    if (command == "describe") {
      if (args.size() != 3) return usage(stderr);
      return cmd_describe(args[1], args[2]);
    }
    if (command == "campaign") {
      return cmd_campaign({args.begin() + 1, args.end()});
    }
    if (command == "validate") {
      if (args.size() != 2) return usage(stderr);
      return cmd_validate(args[1]);
    }
    if (command == "run") {
      std::string spec_path;
      std::string trace_path;
      api::session_options options;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--out") {
          if (i + 1 >= args.size()) return usage(stderr);
          options.output_dir = args[++i];
        } else if (args[i] == "--no-artifacts") {
          options.write_artifacts = false;
        } else if (args[i] == "--trace") {
          if (i + 1 >= args.size()) return usage(stderr);
          trace_path = args[++i];
        } else if (!args[i].empty() && args[i][0] == '-') {
          std::fprintf(stderr, "boson_cli: unknown option '%s'\n", args[i].c_str());
          return 2;
        } else if (spec_path.empty()) {
          spec_path = args[i];
        } else {
          return usage(stderr);
        }
      }
      if (spec_path.empty()) return usage(stderr);
      if (trace_path.empty()) return cmd_run(spec_path, options);

      // Whole-run tracing: every span of the process (prepare, factorize,
      // solve, ...) lands in one Chrome trace_event file.
      obs::trace_collector collector;
      obs::set_global_trace(&collector);
      const int rc = cmd_run(spec_path, options);
      obs::set_global_trace(nullptr);
      collector.write_chrome_json(trace_path);
      std::fprintf(stderr, "boson_cli: wrote %zu span(s) to %s\n",
                   collector.size(), trace_path.c_str());
      return rc;
    }
    std::fprintf(stderr, "boson_cli: unknown command '%s'\n", command.c_str());
    return usage(stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "boson_cli: %s\n", e.what());
    return 1;
  }
}
