// Unit tests for the wide-event log: JSONL rendering (golden), the
// MPSC ring's FIFO/drop semantics, the drainer pipeline, the
// slow-query log, and the RequestScope decision logic.

#include "obs/event_log.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/gate.h"

namespace rps::obs {
namespace {

std::string TempPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("rps_event_log_test_") + tag + "_" +
           std::to_string(::getpid()) + ".jsonl"))
      .string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

WideEvent DemoEvent() {
  WideEvent event;
  event.kind = WideEventKind::kQuery;
  event.op = "engine.sum";
  event.set_method("relative_prefix_sum");
  event.trace_id = 42;
  event.start_nanos = 1000;
  event.duration_nanos = 2500;
  event.box_volume = 64;
  event.primary_cells = 7;
  event.aux_cells = 3;
  event.pool_hits = 5;
  event.pool_misses = 1;
  event.wal_bytes = 128;
  event.ok = true;
  return event;
}

// The JSONL record format is a stability contract: scrapers and the
// docs/OBSERVABILITY.md field table depend on exactly this shape.
TEST(WideEventTest, RenderJsonGolden) {
  const std::string expected =
      "{\"kind\":\"query\",\"op\":\"engine.sum\","
      "\"method\":\"relative_prefix_sum\",\"trace_id\":42,"
      "\"start_nanos\":1000,\"duration_nanos\":2500,\"box_volume\":64,"
      "\"primary_cells\":7,\"aux_cells\":3,\"pool_hits\":5,"
      "\"pool_misses\":1,\"wal_bytes\":128,\"ok\":true}";
  EXPECT_EQ(RenderWideEventJson(DemoEvent()), expected);
}

TEST(WideEventTest, KindNamesAndFailureFlag) {
  WideEvent event = DemoEvent();
  event.kind = WideEventKind::kCheckpoint;
  event.ok = false;
  const std::string json = RenderWideEventJson(event);
  EXPECT_NE(json.find("\"kind\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  event.kind = WideEventKind::kUpdate;
  EXPECT_NE(RenderWideEventJson(event).find("\"kind\":\"update\""),
            std::string::npos);
}

TEST(WideEventTest, SetMethodTruncatesToCapacity) {
  WideEvent event;
  const std::string longname(100, 'x');
  event.set_method(longname);
  EXPECT_EQ(std::string(event.method),
            std::string(WideEvent::kMethodCapacity - 1, 'x'));
  event.set_method("short");
  EXPECT_EQ(std::string(event.method), "short");
}

TEST(EventRingTest, FifoAndCapacity) {
  EventRing ring(4);
  EXPECT_EQ(ring.capacity(), 4);

  WideEvent event = DemoEvent();
  for (uint64_t i = 0; i < 4; ++i) {
    event.trace_id = i;
    EXPECT_TRUE(ring.TryPush(event));
  }
  event.trace_id = 99;
  EXPECT_FALSE(ring.TryPush(event)) << "full ring must drop, not block";

  WideEvent out;
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.trace_id, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));

  // Slots freed by the pops are reusable (wrap-around).
  EXPECT_TRUE(ring.TryPush(event));
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.trace_id, 99u);
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(3).capacity(), 4);
  EXPECT_EQ(EventRing(5).capacity(), 8);
  EXPECT_EQ(EventRing(1).capacity(), 2);
}

TEST(EventLogTest, DrainsEmittedEventsToFile) {
  const std::string path = TempPath("drain");
  EventLog log(/*ring_capacity=*/64);
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_TRUE(log.active());
  EXPECT_FALSE(log.Open(path).ok()) << "double Open must fail";

  WideEvent event = DemoEvent();
  for (uint64_t i = 0; i < 10; ++i) {
    event.trace_id = i;
    log.Emit(event);
  }
  log.Close();  // joins the drainer after a final drain
  EXPECT_EQ(log.emitted(), 10);
  EXPECT_EQ(log.dropped(), 0);
  EXPECT_EQ(log.written(), 10);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 10u);
  EXPECT_NE(lines[0].find("\"trace_id\":0"), std::string::npos);
  EXPECT_NE(lines[9].find("\"trace_id\":9"), std::string::npos);

  // Close is idempotent; Emit after Close is a counted no-op.
  log.Close();
  log.Emit(event);
  EXPECT_EQ(log.emitted(), 10);
  std::remove(path.c_str());
}

TEST(SlowQueryLogTest, BoundedAndRendersSpans) {
  SlowQueryLog log(/*capacity=*/2);
  EXPECT_EQ(log.threshold_nanos(), 0) << "capture disabled by default";
  log.set_threshold_nanos(1000);
  EXPECT_EQ(log.threshold_nanos(), 1000);
  log.set_threshold_nanos(-5);
  EXPECT_EQ(log.threshold_nanos(), 0);
  log.set_threshold_nanos(1000);

  for (uint64_t i = 1; i <= 3; ++i) {
    SlowQueryRecord record;
    record.trace_id = i;
    record.op = "engine.sum";
    record.method = "rps";
    record.duration_nanos = 5000;
    record.threshold_nanos = 1000;
    CollectedSpan span;
    span.op = "core.rps.range_sum";
    span.parent = -1;
    span.duration_nanos = 4000;
    record.spans.push_back(span);
    log.Record(std::move(record));
  }
  EXPECT_EQ(log.total_recorded(), 3);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u) << "capacity bounds retention";
  EXPECT_EQ(records[0].trace_id, 2u) << "oldest evicted first";
  EXPECT_EQ(records[1].trace_id, 3u);

  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"op\":\"core.rps.range_sum\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":-1"), std::string::npos);

  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.total_recorded(), 0);
}

TEST(RequestScopeTest, CapturesSlowRequestWithSpanTree) {
  SlowQueryLog& log = SlowQueryLog::Global();
  log.Clear();
  log.set_threshold_nanos(1);  // everything is slow
  {
    RequestScope request(WideEventKind::kQuery, "test.op", "rps");
    request.set_box_volume(123);
    EXPECT_NE(request.trace_id(), 0u);
    CollectorSpan outer("test.outer");
    { CollectorSpan inner("test.inner"); }
  }
  log.set_threshold_nanos(0);

  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const SlowQueryRecord& record = records[0];
  EXPECT_STREQ(record.op, "test.op");
  EXPECT_EQ(record.method, "rps");
  EXPECT_EQ(record.box_volume, 123);
  ASSERT_EQ(record.spans.size(), 2u);
  EXPECT_STREQ(record.spans[0].op, "test.outer");
  EXPECT_EQ(record.spans[0].parent, -1);
  EXPECT_STREQ(record.spans[1].op, "test.inner");
  EXPECT_EQ(record.spans[1].parent, 0) << "inner nests under outer";
  log.Clear();
}

TEST(RequestScopeTest, FastRequestLeavesNoRecord) {
  SlowQueryLog& log = SlowQueryLog::Global();
  log.Clear();
  log.set_threshold_nanos(60'000'000'000);  // one minute: nothing is slow
  {
    RequestScope request(WideEventKind::kQuery, "test.fast", "rps");
    CollectorSpan span("test.span");
  }
  log.set_threshold_nanos(0);
  EXPECT_TRUE(log.Snapshot().empty());
  log.Clear();
}

TEST(RequestScopeTest, DisabledGateCostsNothingAndEmitsNothing) {
  SlowQueryLog& log = SlowQueryLog::Global();
  log.Clear();
  log.set_threshold_nanos(1);
  SetEnabled(false);
  {
    RequestScope request(WideEventKind::kQuery, "test.gated", "rps");
    EXPECT_EQ(request.trace_id(), 0u) << "gated request is not recorded";
  }
  SetEnabled(true);
  log.set_threshold_nanos(0);
  EXPECT_TRUE(log.Snapshot().empty());
  log.Clear();
}

TEST(RequestScopeTest, EmitsWideEventWhenLogActive) {
  const std::string path = TempPath("scope");
  ASSERT_TRUE(EventLog::Global().Open(path).ok());
  {
    RequestScope request(WideEventKind::kUpdate, "test.update", "rps");
    request.set_cells(11, 22);
    request.add_wal_bytes(64);
    request.add_pool(2, 1);
  }
  EventLog::Global().Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\":\"update\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"op\":\"test.update\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"primary_cells\":11"), std::string::npos);
  EXPECT_NE(lines[0].find("\"aux_cells\":22"), std::string::npos);
  EXPECT_NE(lines[0].find("\"wal_bytes\":64"), std::string::npos);
  EXPECT_NE(lines[0].find("\"pool_hits\":2"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rps::obs
