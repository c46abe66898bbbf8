#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "service/protocol.hpp"

namespace lcn::service {

namespace {

constexpr const char* kDefaultAddress = "tcp:127.0.0.1:7733";

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  ///< unix
  std::string host;  ///< tcp
  int port = 0;      ///< tcp
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    if (out.path.empty()) {
      throw RuntimeError("serve address: empty unix socket path");
    }
    return out;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw RuntimeError(
          strfmt("serve address '%s': expected tcp:host:port",
                 address.c_str()));
    }
    out.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || value < 0 || value > 65535) {
      throw RuntimeError(
          strfmt("serve address '%s': bad port '%s'", address.c_str(),
                 port.c_str()));
    }
    out.port = static_cast<int>(value);
    return out;
  }
  throw RuntimeError(strfmt(
      "serve address '%s': expected unix:<path> or tcp:<host>:<port>",
      address.c_str()));
}

/// Minimal HTTP/1.0 response framing for the Prometheus scrape: respond,
/// then close (the NDJSON reader never parses request headers, so the
/// connection cannot be reused for protocol traffic afterwards).
std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = strfmt(
      "HTTP/1.0 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status, reason, content_type, body.size());
  out += body;
  return out;
}

}  // namespace

/// One client connection. Writes are serialized by `write_mutex` so response
/// lines and progress events from pool threads never interleave mid-line.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> closed{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void write_line(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    write_raw(framed);
  }

  /// Unframed write (the HTTP exposition path frames itself with headers).
  void write_raw(const std::string& data_str) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (closed.load(std::memory_order_relaxed)) return;
    const char* data = data_str.data();
    std::size_t remaining = data_str.size();
    while (remaining > 0) {
      // MSG_NOSIGNAL: a vanished client surfaces as EPIPE, not SIGPIPE.
      const ssize_t n =
          ::send(fd, data, remaining, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        closed.store(true, std::memory_order_relaxed);
        return;
      }
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
  }

  void shutdown_both() {
    std::lock_guard<std::mutex> lock(write_mutex);
    closed.store(true, std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

  /// Close the fd eagerly (reader-thread exit). Sinks may still hold the
  /// Connection, but their writes see `closed` and drop; without this the
  /// socket would sit in CLOSE_WAIT until the whole Server died.
  void close_now() {
    std::lock_guard<std::mutex> lock(write_mutex);
    closed.store(true, std::memory_order_relaxed);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

/// ProgressSink bridging one streaming job to its client connection. Owned
/// by the server (not the connection): a job may outlive its client, in
/// which case emits land on a closed connection and are dropped.
class Server::StreamSink : public ProgressSink {
 public:
  StreamSink(std::shared_ptr<Connection> conn, Scheduler* scheduler)
      : conn_(std::move(conn)), scheduler_(scheduler) {}

  void bind_job(std::uint64_t job_id) override {
    job_id_.store(job_id, std::memory_order_relaxed);
  }

  void emit(const char* name, const char* args) override {
    const std::uint64_t id = job_id_.load(std::memory_order_relaxed);
    conn_->write_line(event_json(name, id, args));
    if (std::strcmp(name, "job_done") == 0) {
      // The scheduler stores the final result before emitting job_done, so
      // this read observes the terminal state.
      conn_->write_line(result_json(id, scheduler_->result(id)));
      // Last action on purpose: once this store is visible the server's
      // reaper may delete the sink, so `this` must not be touched again.
      finished_.store(true, std::memory_order_release);
    }
  }

  /// True once the final result line has been delivered; the sink is then
  /// garbage-collectable.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  std::shared_ptr<Connection> conn_;
  Scheduler* scheduler_;
  std::atomic<std::uint64_t> job_id_{0};
  std::atomic<bool> finished_{false};
};

Server::Server(ServerOptions options)
    : scheduler_(Scheduler::Options{options.max_running}) {
  std::string address = options.address;
  if (address.empty()) {
    address = env_string("LCN_SERVE_ADDR", kDefaultAddress);
  }
  const ParsedAddress parsed = parse_address(address);

  if (parsed.is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (parsed.path.size() >= sizeof(addr.sun_path)) {
      throw RuntimeError(strfmt("serve address: unix path too long (%zu)",
                                parsed.path.size()));
    }
    std::strncpy(addr.sun_path, parsed.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw RuntimeError("serve: socket() failed");
    ::unlink(parsed.path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw RuntimeError(strfmt("serve: bind(%s) failed: %s",
                                parsed.path.c_str(), std::strerror(err)));
    }
    unix_path_ = parsed.path;
    address_ = address;
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(parsed.port));
    if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
      throw RuntimeError(
          strfmt("serve: bad tcp host '%s' (dotted quad required)",
                 parsed.host.c_str()));
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw RuntimeError("serve: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw RuntimeError(strfmt("serve: bind(%s:%d) failed: %s",
                                parsed.host.c_str(), parsed.port,
                                std::strerror(err)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    address_ = strfmt("tcp:%s:%d", parsed.host.c_str(),
                      static_cast<int>(ntohs(bound.sin_port)));
  }

  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw RuntimeError(strfmt("serve: listen failed: %s",
                              std::strerror(err)));
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  // Connections may still have reader threads if run() never executed or
  // was interrupted; make sure they can exit before joining.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& conn : connections_) conn->shutdown_both();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Server::run() {
  LCN_INFO() << "lcn_serve listening on " << address_;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    {
      // Piggyback housekeeping on the poll tick: join readers whose client
      // vanished and drop sinks whose job has delivered its final event, so
      // a long-lived daemon does not accumulate one fd + thread + sink per
      // connection served.
      std::lock_guard<std::mutex> lock(mutex_);
      reap_locked();
    }
    if (ready <= 0) continue;  // timeout, EINTR (signal), or spurious wake
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Bound blocking sends: a client that stops reading must not be able to
    // wedge a progress emit (and with it shutdown) forever — after the
    // timeout write_line marks the connection closed and drops output.
    timeval send_timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    metrics::gauge_add(metrics::Gauge::client_connections, 1);
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.push_back(conn);
    threads_.emplace_back([this, conn] {
      serve_connection(conn);
      conn->close_now();
      metrics::gauge_add(metrics::Gauge::client_connections, -1);
      std::lock_guard<std::mutex> cleanup_lock(mutex_);
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), conn),
          connections_.end());
      // The accept loop (or shutdown) joins us via this id; pushing it is
      // the thread's last locked action.
      finished_threads_.push_back(std::this_thread::get_id());
    });
  }

  LCN_INFO() << "lcn_serve draining";
  // Let every accepted job finish; streaming clients still receive their
  // final result lines through the sinks during the drain.
  scheduler_.drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& conn : connections_) conn->shutdown_both();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  finished_threads_.clear();
  LCN_INFO() << "lcn_serve stopped";
}

void Server::reap_locked() {
  for (const std::thread::id id : finished_threads_) {
    for (auto it = threads_.begin(); it != threads_.end(); ++it) {
      if (it->get_id() == id) {
        // The thread recorded its id as its final locked action, so this
        // join only waits for the lambda frame to unwind — no deadlock.
        it->join();
        threads_.erase(it);
        break;
      }
    }
  }
  finished_threads_.clear();
  for (auto it = sinks_.begin(); it != sinks_.end();) {
    it = it->second->finished() ? sinks_.erase(it) : std::next(it);
  }
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  while (!conn->closed.load(std::memory_order_relaxed)) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n == 0) break;  // client closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!handle_line(conn, line)) {
        conn->shutdown_both();
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > (1u << 20)) {
      conn->write_line(error_json("request line too long"));
      break;
    }
  }
}

bool Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  // Prometheus co-hosting: an HTTP GET on the NDJSON socket is answered
  // with one text-exposition page (format 0.0.4) and the connection closes
  // (HTTP/1.0 style; the reader never parses the request headers).
  if (line.rfind("GET ", 0) == 0) {
    std::string path = line.substr(4);
    const std::size_t space = path.find(' ');
    if (space != std::string::npos) path.resize(space);
    if (path == "/metrics") {
      metrics::count(metrics::Counter::metrics_scrapes);
      const std::string body = metrics::prometheus_text(
          metrics::global_shard().snapshot(), metrics::manifest_labels());
      conn->write_raw(http_response(
          200, "OK", "text/plain; version=0.0.4; charset=utf-8", body));
    } else {
      conn->write_raw(http_response(404, "Not Found", "text/plain",
                                    "only /metrics is served\n"));
    }
    return false;
  }

  Request request;
  std::string parse_error;
  if (!parse_request(line, request, parse_error)) {
    conn->write_line(error_json(parse_error));
    return true;  // malformed request, healthy connection
  }

  switch (request.op) {
    case Request::Op::kSubmit: {
      StreamSink* sink = nullptr;
      std::unique_ptr<StreamSink> owned;
      if (request.stream) {
        owned = std::make_unique<StreamSink>(conn, &scheduler_);
        sink = owned.get();
      }
      const std::uint64_t id = scheduler_.submit(request.job, sink);
      if (id == 0) {
        conn->write_line(error_json("server is draining"));
        return true;
      }
      if (owned != nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        sinks_.emplace(id, std::move(owned));
      }
      conn->write_line(submit_ack_json(id));
      return true;
    }
    case Request::Op::kStatus:
      conn->write_line(
          status_json(request.job_id, scheduler_.status(request.job_id)));
      return true;
    case Request::Op::kResult:
      conn->write_line(
          result_json(request.job_id, scheduler_.result(request.job_id)));
      return true;
    case Request::Op::kCancel: {
      const bool ok = scheduler_.cancel(request.job_id);
      if (ok) {
        conn->write_line(strfmt(
            "{\"ok\":true,\"job\":%llu,\"status\":\"cancelling\"}",
            static_cast<unsigned long long>(request.job_id)));
      } else {
        conn->write_line(error_json("unknown or already finished job"));
      }
      return true;
    }
    case Request::Op::kList:
      conn->write_line(job_list_json(scheduler_.jobs()));
      return true;
    case Request::Op::kPing:
      conn->write_line("{\"ok\":true}");
      return true;
    case Request::Op::kMetrics:
      metrics::count(metrics::Counter::metrics_scrapes);
      conn->write_line(metrics_json(metrics::global_shard().snapshot()));
      return true;
    case Request::Op::kShutdown:
      conn->write_line("{\"ok\":true,\"draining\":true}");
      request_shutdown();
      return true;
  }
  return true;
}

}  // namespace lcn::service
