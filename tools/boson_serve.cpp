// boson_serve — campaign-as-a-service daemon: the boson::service control
// plane (campaign registry + in-process scheduler runners) mounted on the
// boson::net HTTP server. See docs/SERVICE.md for the endpoint reference.
//
//   boson_serve [--data <dir>] [--host <ip>] [--port <n>] [--port-file <path>]
//               [--threads N] [--runners N] [--quota N] [--workers N]
//               [--lease-ttl <s>] [--read-timeout <s>] [--write-timeout <s>]
//               [--max-body-kb N] [--no-artifacts]
//
// The process serves until SIGINT/SIGTERM, then shuts down cleanly: the
// listener closes, in-flight requests finish, running campaigns are
// cancelled at their next checkpoint boundary and *requeued* (journals make
// the resume exact), and every thread joins before exit. `--port 0` (the
// default) binds an ephemeral port; `--port-file` writes the resolved port
// for scripts that need to find the server (the CI smoke test does).
//
// External workers are first-class: `boson_cli campaign resume
// <data>/<tenant>/<id>` attaches to a service-owned campaign directory and
// claims jobs through the same journal leases the in-process runners use.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

int usage(std::FILE* out) {
  std::fprintf(out,
               "boson_serve — campaign-as-a-service daemon (HTTP+JSON control plane)\n"
               "\n"
               "usage:\n"
               "  boson_serve [--data <dir>] [--host <ip>] [--port <n>]\n"
               "              [--port-file <path>] [--threads N] [--runners N]\n"
               "              [--quota N] [--workers N] [--lease-ttl <s>]\n"
               "              [--read-timeout <s>] [--write-timeout <s>]\n"
               "              [--max-body-kb N] [--no-artifacts]\n"
               "\n"
               "--data         data root: per-tenant campaign directories + registry\n"
               "               (default: boson_service)\n"
               "--host/--port  bind address (default 127.0.0.1:0 — ephemeral port)\n"
               "--port-file    write the resolved port to this file after binding\n"
               "--threads      HTTP worker threads (default 4)\n"
               "--runners      campaigns executed concurrently in-process (default 2)\n"
               "--quota        max queued+running campaigns per tenant (default 8)\n"
               "--workers      per-campaign scheduler worker threads (default: spec's)\n"
               "--lease-ttl    lease TTL override in seconds (default: spec's)\n"
               "--read-timeout seconds one socket read may block (default 35;\n"
               "               keep above the events long-poll cap of 30)\n"
               "--write-timeout seconds one socket send may block before the\n"
               "               connection drops (default 10; 0 disables) — slow\n"
               "               event-stream consumers resume from X-Boson-Cursor\n"
               "--max-body-kb  request body ceiling in KiB (default 8192)\n"
               "--no-artifacts skip per-job artifact files (journal/results only)\n"
               "\n"
               "With a tenants.json ({\"tenant\": \"token\"}) in the data root,\n"
               "requests must carry Authorization: Bearer <token>.\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace boson;

  if (env_string("BOSON_LOG", "").empty()) set_log_level(log_level::info);

  service::service_options service_options;
  net::http_server_options server_options;
  server_options.read_timeout = 35.0;  // events long-poll waits up to 30 s
  server_options.write_timeout = 10.0; // drop consumers that stop reading
  std::string port_file;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "boson_serve: %s needs a value\n", args[i].c_str());
        std::exit(2);
      }
      return args[++i];
    };
    try {
      if (args[i] == "--help" || args[i] == "-h") return usage(stdout);
      else if (args[i] == "--data") service_options.data_dir = value();
      else if (args[i] == "--host") server_options.host = value();
      else if (args[i] == "--port")
        server_options.port = static_cast<std::uint16_t>(std::stoul(value()));
      else if (args[i] == "--port-file") port_file = value();
      else if (args[i] == "--threads")
        server_options.threads = static_cast<std::size_t>(std::stoul(value()));
      else if (args[i] == "--runners")
        service_options.runners = static_cast<std::size_t>(std::stoul(value()));
      else if (args[i] == "--quota")
        service_options.tenant_quota = static_cast<std::size_t>(std::stoul(value()));
      else if (args[i] == "--workers")
        service_options.workers = static_cast<std::size_t>(std::stoul(value()));
      else if (args[i] == "--lease-ttl") service_options.lease_ttl = std::stod(value());
      else if (args[i] == "--read-timeout")
        server_options.read_timeout = std::stod(value());
      else if (args[i] == "--write-timeout")
        server_options.write_timeout = std::stod(value());
      else if (args[i] == "--max-body-kb")
        server_options.limits.max_body_bytes = std::stoul(value()) * 1024;
      else if (args[i] == "--no-artifacts") service_options.write_artifacts = false;
      else {
        std::fprintf(stderr, "boson_serve: unknown option '%s'\n", args[i].c_str());
        return usage(stderr);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "boson_serve: bad value for '%s'\n", args[i].c_str());
      return 2;
    }
  }

  try {
    service::campaign_service service(service_options);
    net::http_server server(server_options, service.handler());
    service.start();
    server.start();

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "boson_serve: cannot write %s\n", port_file.c_str());
        return 1;
      }
    }
    std::printf("boson_serve: listening on %s (data: %s)\n",
                server.base_url().c_str(), service.data_dir().c_str());
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (g_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    log_info("boson_serve: signal ", static_cast<int>(g_signal), ", shutting down");
    service.drain(); // release /events long-polls held by HTTP workers...
    server.stop();   // ...so joining them is prompt; in-flight requests finish
    service.stop();  // cancel + requeue running campaigns, join runners
    log_info("boson_serve: metrics digest: ",
             obs::registry::global().digest());
    std::printf("boson_serve: clean shutdown\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "boson_serve: %s\n", e.what());
    return 1;
  }
}
