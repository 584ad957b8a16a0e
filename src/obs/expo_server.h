// Dependency-free HTTP exposition server: the live window into a
// serving engine.
//
// Offline BENCH_*.json snapshots show the paper's cost trade-off
// after the fact; this server shows it while it happens, from
// standard tooling (a Prometheus scraper, curl, a load balancer's
// health prober). Endpoints:
//
//   /metrics       Prometheus text exposition of the global registry
//   /metrics.json  JSON exposition (scripts/check_metrics_schema.py
//                  validates this live in CI)
//   /healthz       aggregated health: uptime plus every registered
//                  health source (engine status, durable-storage
//                  generation, ...)
//   /varz          process-level vitals: pid, obs gate, event-log and
//                  slow-query counts, registered varz sources
//   /debug/slow    recent slow-query records with full span trees
//                  (obs/event_log.h SlowQueryLog)
//
// Deliberately small: blocking POSIX sockets, one accept-and-serve
// thread, one request per connection. A metrics scrape every few
// seconds does not need an event loop, and a dependency-free server
// can run inside every binary in the repo -- the workload driver, the
// CLI's `serve` command, a test. Handle() is exposed directly so
// tests can exercise routing without a socket.

#ifndef RPS_OBS_EXPO_SERVER_H_
#define RPS_OBS_EXPO_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rps::obs {

/// Produces one JSON value (object, string, number...) describing the
/// source's current state. Called per scrape with no lock held by the
/// caller beyond the source registry's; must be thread-safe against
/// the traffic it describes.
using JsonSource = std::function<std::string()>;

class ExpoServer {
 public:
  struct Options {
    int port = 0;  // 0 picks an ephemeral port (read it from port())
    std::string bind_address = "127.0.0.1";
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  ExpoServer();  // default Options: ephemeral port on 127.0.0.1
  explicit ExpoServer(Options options);
  ExpoServer(const ExpoServer&) = delete;
  ExpoServer& operator=(const ExpoServer&) = delete;
  ~ExpoServer();  // stops if running

  /// Binds, listens and starts the serving thread.
  Status Start() EXCLUDES(mutex_);

  /// Stops the serving thread and closes the socket. Idempotent.
  void Stop() EXCLUDES(mutex_);

  /// The bound port (after a successful Start).
  int port() const EXCLUDES(mutex_);

  /// Registers a named health source, reported under /healthz.
  /// Register before Start or between requests; names must be unique.
  void AddHealthSource(const std::string& name, JsonSource source)
      EXCLUDES(mutex_);

  /// Registers a named varz source, reported under /varz.
  void AddVarzSource(const std::string& name, JsonSource source)
      EXCLUDES(mutex_);

  /// Routes one request path (query strings ignored) to its payload.
  /// Public for in-process tests and tools.
  Response Handle(const std::string& path) const EXCLUDES(mutex_);

 private:
  void ServeLoop(int listen_fd);
  void HandleConnection(int fd) const;
  std::string RenderHealthz() const EXCLUDES(mutex_);
  std::string RenderVarz() const EXCLUDES(mutex_);

  const Options options_;
  mutable Mutex mutex_{"ExpoServer.mutex"};
  int listen_fd_ GUARDED_BY(mutex_) = -1;
  int port_ GUARDED_BY(mutex_) = 0;
  std::thread serve_thread_ GUARDED_BY(mutex_);
  int64_t start_nanos_ GUARDED_BY(mutex_) = 0;
  std::vector<std::pair<std::string, JsonSource>> health_sources_
      GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, JsonSource>> varz_sources_
      GUARDED_BY(mutex_);
};

/// Minimal blocking HTTP/1.1 GET (the scrape client for tests and
/// `rps_tool metrics --watch`). Returns the response body on HTTP
/// 200; any other status, or a transport failure, is an error.
Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path);

}  // namespace rps::obs

#endif  // RPS_OBS_EXPO_SERVER_H_
