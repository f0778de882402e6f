/// \file handler.cpp
/// The JSON control plane: routes `http_request`s onto `campaign_service`
/// operations and renders the responses. Kept transport-agnostic — tests
/// call the handler directly, `boson_serve` mounts it on `net::http_server`
/// — and strict: unknown routes 404, wrong verbs 405, malformed inputs 400,
/// quota 429, all through the uniform error envelope (`net::error_response`
/// via `http_error`, which the transport also applies to handler throws).

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "service/service.h"

namespace boson::service {

namespace {

/// Low-cardinality endpoint label of a request path — route shapes, never
/// raw paths, so hostile URLs cannot mint unbounded metric series.
std::string endpoint_label(const std::string& path) {
  if (path == "/healthz") return "healthz";
  if (path == "/v1/metrics") return "metrics";
  if (path == "/v1/campaigns") return "campaigns";
  const std::string prefix = "/v1/campaigns/";
  if (path.rfind(prefix, 0) == 0) {
    const std::string rest = path.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos) return "campaign";
    const std::string action = rest.substr(slash + 1);
    if (action == "jobs" || action == "events" || action == "report" ||
        action == "cancel")
      return "campaign." + action;
    return "campaign.unknown";
  }
  return "unknown";
}

const char* status_class(int status) {
  if (status >= 500) return "5xx";
  if (status >= 400) return "4xx";
  if (status >= 300) return "3xx";
  return "2xx";
}

/// One request into the obs registry: a per-endpoint × status-class counter
/// and a per-endpoint latency histogram.
void record_request(const std::string& endpoint, int status, double seconds) {
  auto& reg = obs::registry::global();
  reg.get_counter("http.requests_total",
                  {{"endpoint", endpoint}, {"class", status_class(status)}})
      .inc();
  reg.get_histogram("http.request_seconds", {{"endpoint", endpoint}})
      .observe(seconds);
}

/// Constant-time string equality: the comparison cost depends only on the
/// *presented* token's length, never on how many leading bytes match a real
/// token — a timing probe learns nothing about stored secrets.
bool constant_time_equal(const std::string& a, const std::string& b) {
  unsigned char diff = static_cast<unsigned char>((a.size() ^ b.size()) != 0);
  const std::size_t bn = b.empty() ? 1 : b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    diff |= static_cast<unsigned char>(a[i] ^ (b.empty() ? 0 : b[i % bn]));
  return diff == 0;
}

void require_method(const net::http_request& req, const std::string& method) {
  if (req.method != method)
    throw net::http_error(405, req.method + " is not supported here (use " +
                                   method + ")");
}

/// Parse a non-negative decimal query parameter (cursor, wait).
double query_number(const net::http_request& req, const std::string& name,
                    double fallback) {
  const auto it = req.query.find(name);
  if (it == req.query.end()) return fallback;
  const std::string& text = it->second;
  const net::http_error malformed(400, "query parameter '" + name +
                                           "' must be a non-negative number, got '" +
                                           text + "'");
  // Strict shape first — std::stod would accept a numeric *prefix* ("1.2.3"
  // parses as 1.2), signs, and hex/inf/nan spellings.
  if (text.empty() || text.find_first_not_of("0123456789.") != std::string::npos ||
      std::count(text.begin(), text.end(), '.') > 1)
    throw malformed;
  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::invalid_argument&) {  // "." — no digits at all
    throw malformed;
  } catch (const std::out_of_range&) {
    throw net::http_error(400, "query parameter '" + name + "' is out of range");
  }
  if (consumed != text.size()) throw malformed;
  return value;
}

net::http_response json_response(int status, const io::json_value& v) {
  net::http_response res;
  res.status = status;
  res.body = v.dump(-1) + "\n";
  return res;
}

runtime::campaign_spec parse_spec(const net::http_request& req) {
  if (req.body.empty()) throw net::http_error(400, "request body must be a campaign spec");
  io::json_value v;
  try {
    v = io::json_value::parse(req.body);
  } catch (const error& e) {
    throw net::http_error(400, std::string("malformed JSON body: ") + e.what());
  }
  // from_json/expand throw bad_argument with precise messages; the transport
  // maps bad_argument to 400, which is exactly right for a bad spec.
  return runtime::campaign_spec::from_json(v);
}

io::json_value metrics_json(const service_metrics& m) {
  io::json_value v = io::json_value::object();
  io::json_value& campaigns = v["campaigns"] = io::json_value::object();
  campaigns["queued"] = m.campaigns_queued;
  campaigns["running"] = m.campaigns_running;
  campaigns["done"] = m.campaigns_done;
  campaigns["failed"] = m.campaigns_failed;
  campaigns["cancelled"] = m.campaigns_cancelled;

  io::json_value& jobs = v["jobs"] = io::json_value::object();
  jobs["live_leases"] = m.live_leases;
  jobs["completed"] = m.jobs_completed;
  jobs["run_seconds"] = m.run_seconds;
  jobs["jobs_per_second"] = m.jobs_per_second();

  v["requests"] = m.requests;
  return v;
}

}  // namespace

std::string campaign_service::authenticate(const net::http_request& req) const {
  const std::string* header = req.header("X-Boson-Tenant");
  const auto validated = [](const std::string& tenant) {
    if (!valid_tenant(tenant))
      throw net::http_error(400, "invalid tenant '" + tenant +
                                     "' (lowercase [a-z0-9_-], at most 32 chars)");
    return tenant;
  };
  if (tenant_tokens_.empty())  // legacy header auth (no tenants.json)
    return validated(header != nullptr ? *header : "default");

  const std::string* auth = req.header("Authorization");
  if (auth == nullptr)
    throw net::http_error(401, "missing Authorization header (Bearer token required)");
  std::string token;
  if (auth->size() > 7) {
    const std::string scheme = auth->substr(0, 7);
    if (scheme == "Bearer " || scheme == "bearer ") token = auth->substr(7);
  }
  while (!token.empty() && token.front() == ' ') token.erase(token.begin());
  while (!token.empty() && token.back() == ' ') token.pop_back();
  if (token.empty())
    throw net::http_error(401, "malformed Authorization header (expected 'Bearer <token>')");

  // Check every tenant's token (no early exit): the presented token's
  // identity is decided by content, and rejection cost is uniform.
  std::string resolved;
  for (const auto& [tenant, expected] : tenant_tokens_)
    if (constant_time_equal(token, expected)) resolved = tenant;
  if (resolved.empty()) throw net::http_error(401, "invalid bearer token");
  if (header != nullptr && *header != resolved)
    throw net::http_error(401,
                          "X-Boson-Tenant does not match the bearer token's tenant");
  return validated(resolved);
}

net::http_handler campaign_service::handler() {
  // The instrumented wrapper: route the request, then record its endpoint,
  // status class, and latency — also when the route throws, using the same
  // exception -> status mapping as the transport (http_server), so 4xx abuse
  // traffic is distinguishable from served load.
  return [this](const net::http_request& req) -> net::http_response {
    const auto started = std::chrono::steady_clock::now();
    const std::string endpoint = endpoint_label(req.path);
    const auto record = [&](int status) {
      record_request(endpoint, status,
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count());
    };
    try {
      net::http_response res = route(req);
      record(res.status);
      return res;
    } catch (const net::http_error& e) {
      record(e.status());
      throw;
    } catch (const bad_argument&) {
      record(400);
      throw;
    } catch (...) {
      record(500);
      throw;
    }
  };
}

net::http_response campaign_service::route(const net::http_request& req) {
  if (req.path == "/healthz") {
    require_method(req, "GET");
    io::json_value v = io::json_value::object();
    v["status"] = "ok";
    return json_response(200, v);
  }
  if (req.path == "/v1/metrics") {
    require_method(req, "GET");
    const auto format = req.query.find("format");
    if (format != req.query.end() && format->second == "prometheus") {
      // Publish the registry-external service counters as gauges at scrape
      // time, then render the whole registry — sim/runtime counters, the
      // request histograms, and these service-level series in one page.
      const service_metrics m = metrics();
      auto& reg = obs::registry::global();
      reg.get_gauge("service.campaigns_queued").set(static_cast<double>(m.campaigns_queued));
      reg.get_gauge("service.campaigns_running").set(static_cast<double>(m.campaigns_running));
      reg.get_gauge("service.campaigns_done").set(static_cast<double>(m.campaigns_done));
      reg.get_gauge("service.campaigns_failed").set(static_cast<double>(m.campaigns_failed));
      reg.get_gauge("service.campaigns_cancelled").set(static_cast<double>(m.campaigns_cancelled));
      reg.get_gauge("service.live_leases").set(static_cast<double>(m.live_leases));
      reg.get_gauge("service.jobs_completed").set(static_cast<double>(m.jobs_completed));
      reg.get_gauge("service.run_seconds").set(m.run_seconds);
      reg.get_gauge("service.jobs_per_second").set(m.jobs_per_second());

      net::http_response res;
      res.content_type = "text/plain; version=0.0.4; charset=utf-8";
      res.body = reg.to_prometheus();
      return res;
    }
    if (format != req.query.end() && format->second != "json")
      throw net::http_error(400, "unknown metrics format '" + format->second +
                                     "' (expected json or prometheus)");
    return json_response(200, metrics_json(metrics()));
  }

  if (req.path == "/v1/campaigns") {
    const std::string tenant = authenticate(req);
    if (req.method == "POST") {
      try {
        const campaign_record record = submit(tenant, parse_spec(req));
        return json_response(201, record.to_json());
      } catch (const quota_error& e) {
        throw net::http_error(429, e.what());
      }
    }
    require_method(req, "GET");
    io::json_value arr = io::json_value::array();
    for (const campaign_record& r : list(tenant)) arr.push_back(r.to_json());
    io::json_value v = io::json_value::object();
    v["campaigns"] = std::move(arr);
    return json_response(200, v);
  }

  const std::string prefix = "/v1/campaigns/";
  if (req.path.rfind(prefix, 0) == 0) {
    const std::string tenant = authenticate(req);
    const std::string rest = req.path.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    const std::string action =
        slash == std::string::npos ? "" : rest.substr(slash + 1);
    if (id.empty()) throw net::http_error(404, "missing campaign id");

    if (action.empty()) {
      if (req.method == "DELETE")
        return json_response(200, remove(tenant, id).to_json());
      if (req.method != "GET")
        throw net::http_error(405, req.method +
                                       " is not supported here (use GET or DELETE)");
      return json_response(200, status(tenant, id, false).to_json(false));
    }
    if (action == "jobs") {
      require_method(req, "GET");
      return json_response(200, status(tenant, id, true).to_json(true));
    }
    if (action == "events") {
      require_method(req, "GET");
      const std::streamoff cursor =
          static_cast<std::streamoff>(query_number(req, "cursor", 0.0));
      // Long-poll bound: clients pass wait=<s> (capped well under every
      // read timeout in the stack) and re-arm with the returned cursor.
      const double wait = std::min(query_number(req, "wait", 0.0), 30.0);
      const event_page page = events(tenant, id, cursor, wait);

      net::http_response res;
      res.content_type = "application/x-ndjson";
      res.chunked = true;  // one chunk per journal record
      for (const std::string& line : page.lines) res.body += line + "\n";
      res.headers.emplace_back("X-Boson-Cursor",
                               std::to_string(page.next_cursor));
      return res;
    }
    if (action == "report") {
      require_method(req, "GET");
      const auto format = req.query.find("format");
      if (format != req.query.end() && format->second == "text") {
        net::http_response res;
        res.content_type = "text/plain; charset=utf-8";
        res.body = report_text(tenant, id);
        return res;
      }
      if (format != req.query.end() && format->second != "json")
        throw net::http_error(400, "unknown report format '" + format->second +
                                       "' (expected json or text)");
      return json_response(200, report_json(tenant, id));
    }
    if (action == "cancel") {
      require_method(req, "POST");
      return json_response(200, cancel(tenant, id).to_json());
    }
    throw net::http_error(404, "unknown campaign action '" + action + "'");
  }

  throw net::http_error(404, "no route for '" + req.path + "'");
}

}  // namespace boson::service
