#include "obs/expo_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/event_log.h"
#include "obs/gate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace rps::obs {
namespace {

/// Well-known paths get their own request-counter label; everything
/// else shares "other" so label cardinality stays bounded.
const char* PathLabel(const std::string& path) {
  if (path == "/metrics") return "/metrics";
  if (path == "/metrics.json") return "/metrics.json";
  if (path == "/healthz") return "/healthz";
  if (path == "/varz") return "/varz";
  if (path == "/debug/slow") return "/debug/slow";
  if (path == "/") return "/";
  return "other";
}

std::string StatusLine(int status) {
  switch (status) {
    case 200:
      return "HTTP/1.1 200 OK\r\n";
    case 404:
      return "HTTP/1.1 404 Not Found\r\n";
    default:
      return "HTTP/1.1 400 Bad Request\r\n";
  }
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void AppendKeyedJson(std::string& out,
                     const std::vector<std::pair<std::string, JsonSource>>&
                         sources) {
  out += '{';
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += sources[i].first;
    out += "\":";
    const std::string value = sources[i].second();
    out += value.empty() ? "null" : value;
  }
  out += '}';
}

}  // namespace

ExpoServer::ExpoServer() : ExpoServer(Options()) {}

ExpoServer::ExpoServer(Options options) : options_(std::move(options)) {}

ExpoServer::~ExpoServer() { Stop(); }

Status ExpoServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port =
      htons(static_cast<uint16_t>(options_.port < 0 ? 0 : options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address (numeric IPv4 only): " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + ") failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }

  MutexLock lock(&mutex_);
  if (listen_fd_ >= 0) {
    ::close(fd);
    return Status::FailedPrecondition("expo server already running");
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  start_nanos_ = TraceNowNanos();
  serve_thread_ = std::thread([this, fd] { ServeLoop(fd); });
  return Status::Ok();
}

void ExpoServer::Stop() {
  std::thread thread;
  int fd = -1;
  {
    MutexLock lock(&mutex_);
    if (listen_fd_ < 0) return;
    fd = listen_fd_;
    listen_fd_ = -1;
    thread = std::move(serve_thread_);
  }
  // Wake the blocked accept(), then reap the thread. Joining must
  // happen outside the mutex: the serve thread takes it per request.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  if (thread.joinable()) thread.join();
}

int ExpoServer::port() const {
  MutexLock lock(&mutex_);
  return port_;
}

void ExpoServer::AddHealthSource(const std::string& name, JsonSource source) {
  MutexLock lock(&mutex_);
  health_sources_.emplace_back(name, std::move(source));
}

void ExpoServer::AddVarzSource(const std::string& name, JsonSource source) {
  MutexLock lock(&mutex_);
  varz_sources_.emplace_back(name, std::move(source));
}

void ExpoServer::ServeLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed by Stop (or fatal error)
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void ExpoServer::HandleConnection(int fd) const {
  // One small request per connection; 8 KiB covers any scraper's GET.
  char buffer[8192];
  size_t used = 0;
  while (used < sizeof(buffer)) {
    const ssize_t n = ::recv(fd, buffer + used, sizeof(buffer) - used, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    if (std::string_view(buffer, used).find("\r\n\r\n") !=
        std::string_view::npos) {
      break;
    }
  }
  const std::string_view request(buffer, used);
  const size_t line_end = request.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? request : request.substr(0, line_end);

  Response response;
  const size_t method_end = line.find(' ');
  const size_t path_end =
      method_end == std::string_view::npos
          ? std::string_view::npos
          : line.find(' ', method_end + 1);
  const std::string_view method =
      method_end == std::string_view::npos ? "" : line.substr(0, method_end);
  if (method != "GET" && method != "HEAD") {
    response.status = 400;
    response.body = "only GET is supported\n";
  } else {
    std::string_view target = path_end == std::string_view::npos
                                  ? line.substr(method_end + 1)
                                  : line.substr(method_end + 1,
                                                path_end - method_end - 1);
    target = target.substr(0, target.find('?'));
    response = Handle(std::string(target));
  }

  std::string out = StatusLine(response.status);
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (method != "HEAD") out += response.body;
  (void)SendAll(fd, out);
}

ExpoServer::Response ExpoServer::Handle(const std::string& path) const {
  static Counter* const requests_other =
      &MetricRegistry::Global().GetCounter("rps_expo_requests_total",
                                           {{"path", "other"}});
  const Stopwatch watch;
  Response response;
  if (path == "/metrics") {
    response.body = MetricRegistry::Global().RenderText();
  } else if (path == "/metrics.json") {
    response.content_type = "application/json";
    response.body = MetricRegistry::Global().RenderJson();
  } else if (path == "/healthz") {
    response.content_type = "application/json";
    response.body = RenderHealthz();
  } else if (path == "/varz") {
    response.content_type = "application/json";
    response.body = RenderVarz();
  } else if (path == "/debug/slow") {
    response.content_type = "application/json";
    response.body = SlowQueryLog::Global().RenderJson();
  } else if (path == "/") {
    response.body =
        "rps exposition server\n"
        "  /metrics       Prometheus text\n"
        "  /metrics.json  JSON exposition\n"
        "  /healthz       health sources\n"
        "  /varz          process vitals\n"
        "  /debug/slow    recent slow queries (span trees)\n";
  } else {
    response.status = 404;
    response.body = "not found: " + path + "\n";
  }

  MetricRegistry& registry = MetricRegistry::Global();
  const char* label = PathLabel(path);
  Counter& requests =
      std::strcmp(label, "other") == 0
          ? *requests_other
          : registry.GetCounter("rps_expo_requests_total", {{"path", label}});
  requests.Increment();
  registry.GetHistogram("rps_expo_request_seconds")
      .ObserveNanos(watch.ElapsedNanos());
  return response;
}

std::string ExpoServer::RenderHealthz() const {
  MutexLock lock(&mutex_);
  std::string out = "{\"status\":\"ok\",\"uptime_seconds\":";
  const double uptime =
      static_cast<double>(TraceNowNanos() - start_nanos_) * 1e-9;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", uptime);
  out += buffer;
  out += ",\"sources\":";
  AppendKeyedJson(out, health_sources_);
  out += '}';
  return out;
}

std::string ExpoServer::RenderVarz() const {
  EventLog& events = EventLog::Global();
  SlowQueryLog& slow = SlowQueryLog::Global();
  std::string out = "{\"pid\":";
  out += std::to_string(::getpid());
  out += ",\"obs_enabled\":";
  out += Enabled() ? "true" : "false";
  out += ",\"num_metrics\":";
  out += std::to_string(MetricRegistry::Global().num_metrics());
  out += ",\"event_log\":{\"active\":";
  out += events.active() ? "true" : "false";
  out += ",\"emitted\":";
  out += std::to_string(events.emitted());
  out += ",\"dropped\":";
  out += std::to_string(events.dropped());
  out += ",\"written\":";
  out += std::to_string(events.written());
  out += "},\"slow_query\":{\"threshold_nanos\":";
  out += std::to_string(slow.threshold_nanos());
  out += ",\"recorded\":";
  out += std::to_string(slow.total_recorded());
  out += "},\"sources\":";
  {
    MutexLock lock(&mutex_);
    AppendKeyedJson(out, varz_sources_);
  }
  out += '}';
  return out;
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("numeric IPv4 host required: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect to " + host + ":" + std::to_string(port) +
                           " failed");
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd, request)) {
    ::close(fd);
    return Status::IoError("send failed");
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  if (response.rfind("HTTP/1.", 0) != 0 || response.size() < 12) {
    return Status::IoError("malformed HTTP response");
  }
  const int status = std::atoi(response.c_str() + 9);
  const size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    return Status::IoError("HTTP response without header terminator");
  }
  if (status != 200) {
    return Status::IoError("HTTP status " + std::to_string(status) + " for " +
                           path);
  }
  return response.substr(body_at + 4);
}

}  // namespace rps::obs
