#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace boson::net {

namespace {

void set_socket_timeout(int fd, int option, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

}  // namespace

http_server::http_server(http_server_options options, http_handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  require(static_cast<bool>(handler_), "http_server: handler must not be empty");
  options_.threads = std::max<std::size_t>(1, options_.threads);
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  require(options_.read_timeout > 0.0, "http_server: read timeout must be positive");
  require(options_.write_timeout >= 0.0,
          "http_server: write timeout must not be negative");
}

http_server::~http_server() { stop(); }

void http_server::start() {
  require(!running_.load(), "http_server: already started");
  stopping_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw io_error("http_server: socket() failed");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io_error("http_server: '" + options_.host + "' is not an IPv4 address");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io_error("http_server: cannot listen on " + options_.host + ":" +
                   std::to_string(options_.port) + " (" + reason + ")");
  }

  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  acceptor_ = std::thread(&http_server::accept_loop, this);
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i)
    workers_.emplace_back(&http_server::worker_loop, this);
  log_info("http_server: listening on ", base_url(), " (", options_.threads,
           " workers)");
}

void http_server::stop() {
  if (!running_.exchange(false)) return;
  {
    // Under the queue lock, so a worker between its predicate check and its
    // wait cannot miss the wake-up.
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true);
  }
  queue_cv_.notify_all();

  // Shutting the listener down unblocks accept(); the fd is closed only
  // once the acceptor has joined, so accept() never sees a closed (or
  // reused) descriptor. Shutting down active fds unblocks workers sitting
  // in recv() on idle keep-alive connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (int fd : active_) ::shutdown(fd, SHUT_RD);
  }

  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();

  // Connections accepted but never served get closed, not answered: their
  // clients see a clean connection reset instead of a hung socket.
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  for (int fd : queue_) ::close(fd);
  queue_.clear();
  log_info("http_server: stopped");
}

std::string http_server::base_url() const {
  return "http://" + options_.host + ":" + std::to_string(port_);
}

http_server_stats http_server::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void http_server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener died
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.accepted;
    }
    bool reject = false;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= options_.max_queue) reject = true;
      else queue_.push_back(fd);
    }
    if (reject) {
      // Overload: answer 503 inline rather than queueing unboundedly; the
      // accept loop never blocks on a slow peer (best-effort single send).
      send_all(fd, serialize(error_response(503, "server is at capacity"), false));
      ::close(fd);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
    } else {
      queue_cv_.notify_one();
    }
  }
}

void http_server::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_.load() || !queue_.empty(); });
      if (stopping_.load()) return;
      fd = queue_.front();
      queue_.pop_front();
    }
    track(fd, true);
    try {
      serve_connection(fd);
    } catch (const std::exception& e) {
      // Transport-level surprises (send failures mid-response) end the
      // connection; the server itself must keep serving.
      log_warn("http_server: connection aborted: ", e.what());
    }
    track(fd, false);
    ::close(fd);
  }
}

void http_server::track(int fd, bool add) {
  const std::lock_guard<std::mutex> lock(active_mutex_);
  if (add) active_.insert(fd);
  else active_.erase(fd);
}

bool http_server::send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer went away mid-response
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void http_server::serve_connection(int fd) {
  set_socket_timeout(fd, SO_RCVTIMEO, options_.read_timeout);
  if (options_.write_timeout > 0.0)
    set_socket_timeout(fd, SO_SNDTIMEO, options_.write_timeout);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  char buf[8192];
  std::size_t buffered = 0;  ///< bytes of `buf` not yet consumed by the parser
  std::size_t offset = 0;
  std::size_t served = 0;

  http_request_parser parser(options_.limits);
  while (!stopping_.load()) {
    // Assemble one request: drain leftover (pipelined) bytes first, then
    // block in recv until the parser has a complete message.
    try {
      while (!parser.complete()) {
        if (offset == buffered) {
          const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n == 0) return;  // peer closed between requests
          if (n < 0) {
            if (errno == EINTR) continue;
            // Read timeout (EAGAIN/EWOULDBLOCK) or shutdown. A peer that
            // stalled mid-request gets 408 so it knows the request was
            // dropped; an idle keep-alive connection just closes.
            if (parser.started() && !stopping_.load()) {
              {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.protocol_errors;
              }
              send_all(fd, serialize(error_response(408, "request timed out"), false));
            }
            return;
          }
          buffered = static_cast<std::size_t>(n);
          offset = 0;
        }
        offset += parser.feed(buf + offset, buffered - offset);
      }
    } catch (const http_error& e) {
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      send_all(fd, serialize(error_response(e.status(), e.what()), false));
      return;  // framing is unrecoverable: close
    }

    http_request request = std::move(parser.request());
    parser.reset();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests;
    }

    http_response response;
    try {
      response = handler_(request);
    } catch (const http_error& e) {
      response = error_response(e.status(), e.what());
    } catch (const bad_argument& e) {
      response = error_response(400, e.what());
    } catch (const std::exception& e) {
      response = error_response(500, e.what());
    }

    const bool keep = request.keep_alive() && !stopping_.load() &&
                      ++served < options_.max_keepalive_requests;
    if (!send_all(fd, serialize(response, keep, request.version_minor))) return;
    if (!keep) return;
  }
}

}  // namespace boson::net
