// Tests for the exposition server: in-process routing via Handle(),
// then real HTTP over a socket under parallel scrape + query load
// (the concurrency half is the point: scraping a live engine must be
// safe and must not 500).

#include "obs/expo_server.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "olap/sharded_engine.h"
#include "olap/query.h"
#include "olap/schema.h"

namespace rps::obs {
namespace {

Schema MakeSchema() {
  return Schema("MEASURE", {Dimension::Integer("x", 0, 16),
                            Dimension::Integer("y", 0, 16)});
}

TEST(ExpoServerHandleTest, RoutesAllEndpoints) {
  ExpoServer server;
  server.AddHealthSource("unit", [] { return "{\"ok\":true}"; });
  server.AddVarzSource("unit", [] { return "7"; });

  const ExpoServer::Response metrics = server.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);

  const ExpoServer::Response json = server.Handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.content_type.find("application/json"), std::string::npos);
  EXPECT_EQ(json.body.front(), '{');
  EXPECT_NE(json.body.find("\"counters\":"), std::string::npos);

  const ExpoServer::Response healthz = server.Handle("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"unit\":{\"ok\":true}"), std::string::npos);

  const ExpoServer::Response varz = server.Handle("/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("\"pid\":"), std::string::npos);
  EXPECT_NE(varz.body.find("\"unit\":7"), std::string::npos);

  const ExpoServer::Response slow = server.Handle("/debug/slow");
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.body.front(), '[');

  const ExpoServer::Response index = server.Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  EXPECT_EQ(server.Handle("/nope").status, 404);
}

TEST(ExpoServerHandleTest, CountsRequestsByPath) {
  Counter& requests = MetricRegistry::Global().GetCounter(
      "rps_expo_requests_total", {{"path", "/healthz"}});
  const int64_t before = requests.Value();
  ExpoServer server;
  server.Handle("/healthz");
  server.Handle("/healthz");
  EXPECT_EQ(requests.Value(), before + 2);

  Counter& other = MetricRegistry::Global().GetCounter(
      "rps_expo_requests_total", {{"path", "other"}});
  const int64_t other_before = other.Value();
  server.Handle("/made/up/path");
  EXPECT_EQ(other.Value(), other_before + 1)
      << "unknown paths collapse to one label value";
}

TEST(ExpoServerHttpTest, ServesOverSocketAndStops) {
  ExpoServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0) << "ephemeral port was bound";

  const Result<std::string> healthz =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().message();
  EXPECT_NE(healthz.value().find("\"uptime_seconds\":"), std::string::npos);

  const Result<std::string> missing =
      HttpGet("127.0.0.1", server.port(), "/nope");
  EXPECT_FALSE(missing.ok()) << "404 must surface as an error";

  server.Stop();
  server.Stop();  // idempotent
  const Result<std::string> after =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  EXPECT_FALSE(after.ok()) << "stopped server must not answer";
}

TEST(ExpoServerHttpTest, StartFailsOnPortInUse) {
  ExpoServer first;
  ASSERT_TRUE(first.Start().ok());
  ExpoServer::Options options;
  options.port = first.port();
  ExpoServer second(options);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

// The acceptance scenario: scrape every endpoint from several client
// threads while an engine serves queries and updates, with the
// slow-query log armed so /debug/slow carries span trees. Everything
// must come back 200 and well-formed.
TEST(ExpoServerConcurrencyTest, ParallelScrapesDuringQueryLoad) {
  // The serving engine: scrape callbacks read engine state while the
  // workload thread mutates it, exactly as `rps_tool serve` does.
  ShardedOlapEngine engine(MakeSchema(), EngineMethod::kRelativePrefixSum, 2);
  ExpoServer server;
  server.AddHealthSource("engine", [&engine] { return engine.HealthJson(); });
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  SlowQueryLog::Global().Clear();
  SlowQueryLog::Global().set_threshold_nanos(1);  // capture everything

  std::atomic<bool> stop{false};
  std::atomic<int64_t> query_failures{0};
  std::thread workload([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t x = i % 16;
      OlapRecord record;
      record.values = {FieldValue(x), FieldValue((i * 7) % 16)};
      record.measure = 1.0;
      if (!engine.Insert(record).ok()) {
        query_failures.fetch_add(1, std::memory_order_relaxed);
      }
      RangeQuery range;
      range.WhereIntBetween("x", 0, x);
      range.WhereIntBetween("y", 0, 15);
      if (!engine.Sum(range).ok()) {
        query_failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  });

  const std::vector<std::string> paths = {"/metrics", "/metrics.json",
                                          "/healthz", "/varz", "/debug/slow"};
  constexpr int kScrapers = 3;
  constexpr int kRoundsPerScraper = 8;
  std::atomic<int64_t> scrape_failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&] {
      for (int round = 0; round < kRoundsPerScraper; ++round) {
        for (const std::string& path : paths) {
          const Result<std::string> response =
              HttpGet("127.0.0.1", port, path);
          if (!response.ok() || response.value().empty()) {
            scrape_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  workload.join();
  SlowQueryLog::Global().set_threshold_nanos(0);

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(query_failures.load(), 0);

  // The slow-query log captured span trees during the load, and the
  // endpoint serves them: an engine.sum record carries its nested
  // core range-sum span.
  const Result<std::string> slow =
      HttpGet("127.0.0.1", port, "/debug/slow");
  ASSERT_TRUE(slow.ok()) << slow.status().message();
  EXPECT_NE(slow.value().find("\"op\":\"engine."), std::string::npos);
  EXPECT_NE(slow.value().find("\"spans\":["), std::string::npos);

  // A live /metrics.json scrape carries the engine's families.
  const Result<std::string> metrics =
      HttpGet("127.0.0.1", port, "/metrics.json");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("rps_sharded_engine_query_seconds"),
            std::string::npos);

  server.Stop();
  SlowQueryLog::Global().Clear();
}

}  // namespace
}  // namespace rps::obs
