// Tests of the net module: the incremental HTTP/1.1 request/response
// parsers (fed byte-by-byte, chunked framing, percent/query decoding, every
// http_limits ceiling), the serializers, URL parsing, and the blocking
// loopback server — keep-alive pipelining, concurrent clients, a
// malformed-request corpus speaking raw bytes (a well-formed client cannot
// produce a bad request), handler exception mapping, and clean stop(). Every
// server binds port 0 (ephemeral), so the suite cannot collide with itself
// or anything else on the machine.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"

namespace boson {
namespace {

using namespace boson::net;

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

/// Parse a full request in one feed; must consume everything and complete.
http_request parse_request(const std::string& bytes, http_limits limits = {}) {
  http_request_parser parser(limits);
  const std::size_t used = parser.feed(bytes.data(), bytes.size());
  EXPECT_EQ(used, bytes.size());
  EXPECT_TRUE(parser.complete());
  return parser.request();
}

// ------------------------------------------------------- request parser ----

TEST(http_parser, parses_a_simple_get) {
  const http_request req =
      parse_request("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_TRUE(req.query.empty());
  EXPECT_TRUE(req.body.empty());
  EXPECT_EQ(req.version_minor, 1);
  ASSERT_NE(req.header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.header("HOST"), "x");
  EXPECT_TRUE(req.keep_alive());
}

TEST(http_parser, byte_by_byte_feeding_reaches_the_same_message) {
  const std::string bytes =
      "POST /v1/campaigns?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  http_request_parser parser;
  for (const char c : bytes) {
    ASSERT_FALSE(parser.complete());
    EXPECT_EQ(parser.feed(&c, 1), 1u);
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().body, "body");
  EXPECT_EQ(parser.request().query.at("x"), "1");
}

TEST(http_parser, decodes_query_and_percent_escapes) {
  const http_request req = parse_request(
      "GET /v1/x%20y?name=a%2Fb&flag&n=2 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.path, "/v1/x y");
  EXPECT_EQ(req.query.at("name"), "a/b");
  EXPECT_EQ(req.query.at("flag"), "");
  EXPECT_EQ(req.query.at("n"), "2");
  expect_throw_with<http_error>([] { percent_decode("%zz"); }, "escape");
}

TEST(http_parser, decodes_chunked_request_bodies) {
  const http_request req = parse_request(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n");
  EXPECT_EQ(req.body, "Wikipedia");
}

TEST(http_parser, chunk_extensions_are_tolerated) {
  const http_request req = parse_request(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=1\r\nWiki\r\n0\r\n\r\n");
  EXPECT_EQ(req.body, "Wiki");
}

TEST(http_parser, leftover_bytes_stay_for_the_next_message) {
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  http_request_parser parser;
  const std::size_t used = parser.feed(two.data(), two.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/a");
  parser.reset();
  EXPECT_EQ(parser.feed(two.data() + used, two.size() - used), two.size() - used);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/b");
}

TEST(http_parser, started_distinguishes_idle_from_mid_request) {
  http_request_parser parser;
  EXPECT_FALSE(parser.started());
  const char byte = 'G';
  parser.feed(&byte, 1);
  EXPECT_TRUE(parser.started());
}

TEST(http_parser, http10_defaults_to_close) {
  const http_request req = parse_request("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(req.keep_alive());
  const http_request keep = parse_request(
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(keep.keep_alive());
  const http_request close = parse_request(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(close.keep_alive());
}

// Protocol violations carry the status the server must answer with.
struct violation {
  const char* bytes;
  int status;
};

TEST(http_parser, violations_carry_their_status_code) {
  const std::vector<violation> corpus = {
      {"GARBAGE\r\n\r\n", 400},                                    // no target
      {"GET /x HTTP/2.0\r\n\r\n", 505},                            // version
      {"GET /x HTTP/1.1\r\nNoColon\r\n\r\n", 400},                 // bad header
      {"GET /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},      // bad length
      {"GET /x HTTP/1.1\r\nContent-Length: 9999999999999999999\r\n\r\n", 413},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
      {"POST /x HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n",
       400},  // ambiguous framing
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", 400},
  };
  for (const violation& v : corpus) {
    http_request_parser parser;
    const std::string bytes = v.bytes;
    try {
      parser.feed(bytes.data(), bytes.size());
      FAIL() << "expected http_error for: " << v.bytes;
    } catch (const http_error& e) {
      EXPECT_EQ(e.status(), v.status) << "for: " << v.bytes;
    }
  }
}

TEST(http_parser, limits_bound_every_dimension) {
  http_limits tight;
  tight.max_start_line = 32;
  tight.max_header_bytes = 64;
  tight.max_headers = 2;
  tight.max_body_bytes = 8;

  const auto feed = [&tight](const std::string& bytes) {
    http_request_parser parser(tight);
    parser.feed(bytes.data(), bytes.size());
  };
  try {
    feed("GET /" + std::string(64, 'x') + " HTTP/1.1\r\n\r\n");
    FAIL() << "oversized start line accepted";
  } catch (const http_error& e) {
    EXPECT_EQ(e.status(), 431);
  }
  try {
    feed("GET /x HTTP/1.1\r\nA: " + std::string(128, 'y') + "\r\n\r\n");
    FAIL() << "oversized header block accepted";
  } catch (const http_error& e) {
    EXPECT_EQ(e.status(), 431);
  }
  try {
    feed("GET /x HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n");
    FAIL() << "too many headers accepted";
  } catch (const http_error& e) {
    EXPECT_EQ(e.status(), 431);
  }
  try {
    feed("POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
    FAIL() << "oversized body accepted";
  } catch (const http_error& e) {
    EXPECT_EQ(e.status(), 413);
  }
  // Chunked bodies hit the same ceiling even though no single chunk does.
  try {
    feed("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n");
    FAIL() << "oversized chunked body accepted";
  } catch (const http_error& e) {
    EXPECT_EQ(e.status(), 413);
  }
}

// ---------------------------------------------------- response round-trip ----

TEST(http_response, serializes_and_parses_back) {
  http_response res;
  res.status = 201;
  res.body = "{\"ok\":true}";
  res.headers.emplace_back("X-Boson-Cursor", "42");
  const std::string wire = serialize(res, /*keep_alive=*/true);

  http_response_parser parser;
  EXPECT_EQ(parser.feed(wire.data(), wire.size()), wire.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().status, 201);
  EXPECT_EQ(parser.response().body, res.body);
  ASSERT_NE(parser.response().header("x-boson-cursor"), nullptr);
  EXPECT_EQ(*parser.response().header("x-boson-cursor"), "42");
  EXPECT_TRUE(parser.keep_alive());
}

TEST(http_response, chunked_framing_is_one_chunk_per_line) {
  http_response res;
  res.chunked = true;
  res.body = "{\"a\":1}\n{\"b\":2}\n";
  const std::string wire = serialize(res, false);
  EXPECT_NE(wire.find("Transfer-Encoding: chunked"), std::string::npos);
  // Each journal record is its own chunk: "8\r\n{\"a\":1}\n\r\n".
  EXPECT_NE(wire.find("8\r\n{\"a\":1}\n\r\n"), std::string::npos);
  EXPECT_NE(wire.find("8\r\n{\"b\":2}\n\r\n"), std::string::npos);

  http_response_parser parser;
  parser.feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().body, res.body);
}

TEST(http_response, chunked_downgrades_to_content_length_for_http_1_0_peers) {
  http_response res;
  res.chunked = true;
  res.body = "{\"a\":1}\n{\"b\":2}\n";
  // An HTTP/1.0 request cannot parse chunked framing: same body, but framed
  // with Content-Length.
  const std::string wire = serialize(res, false, /*version_minor=*/0);
  EXPECT_EQ(wire.find("Transfer-Encoding"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 16\r\n"), std::string::npos);

  http_response_parser parser;
  parser.feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().body, res.body);
}

TEST(http_response, eof_framed_bodies_complete_on_finish) {
  const std::string wire = "HTTP/1.0 200 OK\r\n\r\npartial";
  http_response_parser parser;
  parser.feed(wire.data(), wire.size());
  EXPECT_FALSE(parser.complete());
  parser.finish();
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().body, "partial");
}

TEST(http_response, truncated_content_length_throws_on_finish) {
  const std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
  http_response_parser parser;
  parser.feed(wire.data(), wire.size());
  expect_throw_with<http_error>([&parser] { parser.finish(); }, "mid-response");
}

TEST(http_error_envelope, is_the_uniform_json_shape) {
  const http_response res = error_response(404, "no route for '/nope'");
  EXPECT_EQ(res.status, 404);
  EXPECT_EQ(res.body,
            "{\"error\":{\"status\":404,\"message\":\"no route for '/nope'\"}}\n");
}

// ----------------------------------------------------------- url parsing ----

TEST(url_parts, parses_host_port_target) {
  const url_parts full = url_parts::parse("http://127.0.0.1:8080/v1/x");
  EXPECT_EQ(full.host, "127.0.0.1");
  EXPECT_EQ(full.port, 8080);
  EXPECT_EQ(full.target, "/v1/x");

  const url_parts defaults = url_parts::parse("http://localhost");
  EXPECT_EQ(defaults.host, "localhost");
  EXPECT_EQ(defaults.port, 80);
  EXPECT_EQ(defaults.target, "/");

  expect_throw_with<bad_argument>(
      [] { url_parts::parse("https://x"); }, "http://");
  expect_throw_with<bad_argument>(
      [] { url_parts::parse("http://x:notaport/"); }, "port");
  expect_throw_with<bad_argument>(
      [] { url_parts::parse("http://:80/"); }, "host");
}

// ------------------------------------------------------- loopback server ----

/// A server echoing method, path, and body — the loopback fixture.
class loopback : public testing::Test {
 protected:
  void SetUp() override {
    http_server_options options;  // port 0: ephemeral
    options.threads = 4;
    server_ = std::make_unique<http_server>(options, [this](const http_request& req) {
      ++handled_;
      if (req.path == "/boom") throw std::runtime_error("handler exploded");
      if (req.path == "/bad") throw bad_argument("no such thing");
      if (req.path == "/teapot") throw http_error(418, "short and stout");
      http_response res;
      res.content_type = "text/plain";
      res.body = req.method + " " + req.path + " " + req.body;
      return res;
    });
    server_->start();
  }

  std::unique_ptr<http_server> server_;
  std::atomic<std::size_t> handled_{0};
};

TEST_F(loopback, serves_get_and_post) {
  http_client client(server_->base_url());
  const http_response get = client.get("/hello");
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(get.body, "GET /hello ");
  const http_response post = client.post("/submit", "payload");
  EXPECT_EQ(post.status, 200);
  EXPECT_EQ(post.body, "POST /submit payload");
}

TEST_F(loopback, handler_exceptions_map_to_status_codes) {
  http_client client(server_->base_url());
  EXPECT_EQ(client.get("/boom").status, 500);
  EXPECT_EQ(client.get("/bad").status, 400);
  EXPECT_EQ(client.get("/teapot").status, 418);
  // The server survives all of it.
  EXPECT_EQ(client.get("/ok").status, 200);
  const http_server_stats stats = server_->stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(loopback, keep_alive_pipelining_reuses_one_connection) {
  // Two pipelined requests in one write; both answers come back in order on
  // the same connection.
  const std::string two =
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  const std::string answer = raw_exchange("127.0.0.1", server_->port(), two, 10.0);
  const std::size_t first = answer.find("GET /a ");
  const std::size_t second = answer.find("GET /b ");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(server_->stats().accepted, 1u);
  EXPECT_EQ(server_->stats().requests, 2u);
}

TEST_F(loopback, eight_concurrent_clients_all_get_their_own_answers) {
  std::vector<std::thread> clients;
  std::atomic<std::size_t> failures{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([this, t, &failures] {
      http_client client(server_->base_url());
      for (int i = 0; i < 16; ++i) {
        const std::string path = "/t" + std::to_string(t) + "/" + std::to_string(i);
        const http_response res = client.get(path);
        if (res.status != 200 || res.body != "GET " + path + " ") ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(handled_.load(), 8u * 16u);
}

TEST_F(loopback, malformed_requests_get_4xx_json_envelopes) {
  const struct {
    std::string bytes;
    std::string expect;  // fragment of the response's first line / body
  } corpus[] = {
      {"GARBAGE\r\n\r\n", "HTTP/1.1 400 "},
      {"GET /x HTTP/2.0\r\n\r\n", "HTTP/1.1 505 "},
      {"GET /x HTTP/1.1\r\nNoColon\r\n\r\n", "HTTP/1.1 400 "},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", "HTTP/1.1 501 "},
      {"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", "HTTP/1.1 413 "},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "HTTP/1.1 400 "},
  };
  std::uint64_t sent = 0;
  for (const auto& bad : corpus) {
    const std::string answer =
        raw_exchange("127.0.0.1", server_->port(), bad.bytes, 10.0);
    ++sent;
    EXPECT_EQ(answer.rfind(bad.expect, 0), 0u)
        << "request " << bad.bytes.substr(0, 40) << " answered: "
        << answer.substr(0, 60);
    // Every transport error wears the uniform JSON envelope.
    EXPECT_NE(answer.find("{\"error\":{\"status\":"), std::string::npos);
  }
  EXPECT_EQ(server_->stats().protocol_errors, sent);
  EXPECT_EQ(handled_.load(), 0u);  // none of it reached the handler
}

TEST(http_server_abuse, oversized_start_line_answers_431) {
  // Tight limit so the whole abusive request still fits one server read;
  // the 431 must come back before the connection closes.
  http_server_options options;
  options.limits.max_start_line = 64;
  http_server server(options, [](const http_request&) { return http_response{}; });
  server.start();
  const std::string answer = raw_exchange(
      "127.0.0.1", server.port(),
      "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n", 10.0);
  EXPECT_EQ(answer.rfind("HTTP/1.1 431 ", 0), 0u) << answer.substr(0, 60);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST_F(loopback, oversized_body_is_rejected_even_with_honest_length) {
  http_server_options options;
  options.limits.max_body_bytes = 64;
  http_server small(options, [](const http_request&) { return http_response{}; });
  small.start();
  http_client client(small.base_url());
  const http_response res = client.post("/x", std::string(1024, 'b'));
  EXPECT_EQ(res.status, 413);
}

TEST_F(loopback, stop_is_clean_and_idempotent) {
  http_client client(server_->base_url());
  EXPECT_EQ(client.get("/x").status, 200);
  server_->stop();
  server_->stop();  // idempotent
  EXPECT_FALSE(server_->running());
  // The port no longer answers.
  EXPECT_THROW(client.get("/x"), io_error);
}

TEST(http_server_lifecycle, ephemeral_ports_do_not_collide) {
  const auto noop = [](const http_request&) { return http_response{}; };
  http_server a({}, noop);
  http_server b({}, noop);
  a.start();
  b.start();
  EXPECT_NE(a.port(), b.port());
  EXPECT_NE(a.port(), 0);
}

TEST(http_server_lifecycle, stop_right_after_start_joins_every_thread) {
  // stop() straight after start() races workers that may not have reached
  // their wait yet and an acceptor still entering accept(); every cycle must
  // join all threads and release the listener. Odd cycles also hold an idle
  // keep-alive connection open across the stop.
  const auto noop = [](const http_request&) { return http_response{}; };
  std::uint16_t last_port = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    http_server server({}, noop);
    server.start();
    std::unique_ptr<http_client> idle;
    if (cycle % 2 == 1) {
      idle = std::make_unique<http_client>(server.base_url());
      EXPECT_EQ(idle->get("/x").status, 200);
    }
    server.stop();
    EXPECT_FALSE(server.running());
    last_port = server.port();
  }
  EXPECT_THROW(http_client("http://127.0.0.1:" + std::to_string(last_port)).get("/x"),
               io_error);
}

TEST(http_server_lifecycle, queue_overflow_answers_503) {
  // threads=1 and max_queue=1: hold the single worker hostage with a slow
  // request, fill the queue, and the next connection must be 503'd inline.
  http_server_options options;
  options.threads = 1;
  options.max_queue = 1;
  std::atomic<bool> release{false};
  http_server server(options, [&release](const http_request& req) {
    if (req.path == "/slow")
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return http_response{};
  });
  server.start();

  std::thread slow([&server] {
    raw_exchange("127.0.0.1", server.port(),
                 "GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n", 10.0);
  });
  // Wait until the worker picked up the slow request.
  while (server.stats().requests == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // One connection parks in the queue; the next one must bounce. Connections
  // race the acceptor, so allow a few tries for the 503 to materialize.
  std::string bounced;
  std::vector<std::thread> parked;
  for (int i = 0; i < 4 && bounced.empty(); ++i) {
    parked.emplace_back([&server] {
      raw_exchange("127.0.0.1", server.port(),
                   "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", 10.0);
    });
    const std::string answer = raw_exchange(
        "127.0.0.1", server.port(), "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", 2.0);
    if (answer.rfind("HTTP/1.1 503 ", 0) == 0) bounced = answer;
  }
  EXPECT_FALSE(bounced.empty()) << "queue overflow never answered 503";
  EXPECT_GE(server.stats().rejected, 1u);

  release.store(true);
  slow.join();
  for (std::thread& t : parked) t.join();
  server.stop();
}

}  // namespace
}  // namespace boson
