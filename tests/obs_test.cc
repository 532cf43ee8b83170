// Observability layer: metric semantics (bucket boundaries, percentile
// interpolation edges, counter wrap), registry lifecycle (find-or-create,
// Reset-keeps-registrations), the byte-stable JSON snapshot, and the
// Chrome-trace export's structural validity (what Perfetto requires to load
// it). The end-to-end tests prove the instrumentation is actually wired:
// a Fig. 5 punch moves the punch/NAT/loop metrics, and the fleet taxonomy
// partitions every Table 1 "no" into exactly one failure bucket.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>

#include "src/core/udp_puncher.h"
#include "src/fleet/fleet.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json_export.h"
#include "src/obs/metrics.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"

namespace natpunch {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

// --- Minimal JSON syntax checker (no DOM) for the export tests ------------

struct JsonCursor {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p)) != 0) {
      ++p;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
};

bool SkipJsonValue(JsonCursor* c);

bool SkipJsonString(JsonCursor* c) {
  if (!c->Eat('"')) {
    return false;
  }
  while (c->p < c->end) {
    const char ch = *c->p++;
    if (ch == '"') {
      return true;
    }
    if (ch == '\\') {
      if (c->p >= c->end) {
        return false;
      }
      ++c->p;  // escaped char (\uXXXX hex digits pass as plain chars)
    }
  }
  return false;
}

bool SkipJsonValue(JsonCursor* c) {
  c->SkipWs();
  if (c->p >= c->end) {
    return false;
  }
  const char ch = *c->p;
  if (ch == '{') {
    ++c->p;
    if (c->Eat('}')) {
      return true;
    }
    do {
      if (!SkipJsonString(c) || !c->Eat(':') || !SkipJsonValue(c)) {
        return false;
      }
    } while (c->Eat(','));
    return c->Eat('}');
  }
  if (ch == '[') {
    ++c->p;
    if (c->Eat(']')) {
      return true;
    }
    do {
      if (!SkipJsonValue(c)) {
        return false;
      }
    } while (c->Eat(','));
    return c->Eat(']');
  }
  if (ch == '"') {
    return SkipJsonString(c);
  }
  if (ch == 't') {
    return std::string_view(c->p, c->end - c->p).substr(0, 4) == "true" && (c->p += 4) != nullptr;
  }
  if (ch == 'f') {
    return std::string_view(c->p, c->end - c->p).substr(0, 5) == "false" && (c->p += 5) != nullptr;
  }
  if (ch == 'n') {
    return std::string_view(c->p, c->end - c->p).substr(0, 4) == "null" && (c->p += 4) != nullptr;
  }
  // Number: sign, digits, dot, exponent — accept the superset loosely.
  const char* start = c->p;
  while (c->p < c->end &&
         (std::isdigit(static_cast<unsigned char>(*c->p)) != 0 || *c->p == '-' || *c->p == '+' ||
          *c->p == '.' || *c->p == 'e' || *c->p == 'E')) {
    ++c->p;
  }
  return c->p > start;
}

bool IsValidJson(const std::string& text) {
  JsonCursor c{text.data(), text.data() + text.size()};
  if (!SkipJsonValue(&c)) {
    return false;
  }
  c.SkipWs();
  return c.p == c.end;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- Metric semantics ------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10, 20});
  for (const int64_t v : {9, 10, 19, 20, 25}) {
    h->Observe(v);
  }
  // Bucket 0 = [0,10), bucket 1 = [10,20), overflow = [20, inf).
  EXPECT_EQ(h->bucket_count(0), 1u);  // 9
  EXPECT_EQ(h->bucket_count(1), 2u);  // 10, 19 — lower edge inclusive
  EXPECT_EQ(h->bucket_count(2), 2u);  // 20, 25 — upper edge exclusive
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 9 + 10 + 19 + 20 + 25);
  EXPECT_EQ(h->observed_min(), 9);
  EXPECT_EQ(h->observed_max(), 25);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10});
  h->Observe(-5);
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->observed_min(), 0);
  EXPECT_EQ(h->sum(), 0);
}

TEST(HistogramTest, PercentileEmptyIsZero) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10, 20});
  EXPECT_EQ(h->Percentile(0.0), 0.0);
  EXPECT_EQ(h->Percentile(0.5), 0.0);
  EXPECT_EQ(h->Percentile(1.0), 0.0);
  EXPECT_EQ(h->observed_min(), 0);
  EXPECT_EQ(h->observed_max(), 0);
}

TEST(HistogramTest, PercentileSingleSampleIsExact) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10, 20, 40});
  h->Observe(17);
  // Interpolation inside [10,20) would yield non-17 values; the clamp to
  // [min, max] pins every percentile to the one sample.
  EXPECT_EQ(h->Percentile(0.01), 17.0);
  EXPECT_EQ(h->Percentile(0.50), 17.0);
  EXPECT_EQ(h->Percentile(0.99), 17.0);
}

TEST(HistogramTest, PercentileAllInOverflowStaysDataBounded) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {10});
  h->Observe(100);
  h->Observe(200);
  h->Observe(300);
  // The overflow bucket's upper edge is the observed max, so interpolation
  // runs over [10, 300] and the clamp keeps results within [100, 300].
  const double p50 = h->Percentile(0.50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 300.0);
  EXPECT_EQ(h->Percentile(1.0), 300.0);
  EXPECT_EQ(h->Percentile(0.0), 100.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", {100});
  for (int i = 0; i < 10; ++i) {
    h->Observe(50);
  }
  h->Observe(0);
  h->Observe(99);
  // 12 samples in bucket [0,100): target = 6 -> 0 + (6/12)*100 = 50.
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 50.0);
}

TEST(CounterTest, WrapsModulo2To64) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Inc(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(c->value(), std::numeric_limits<uint64_t>::max());
  c->Inc(2);
  EXPECT_EQ(c->value(), 1u);
}

TEST(GaugeTest, TracksHighWaterMark) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("g");
  g->Set(5);
  g->Set(12);
  g->Set(3);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->max(), 12);
  g->Add(-3);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max(), 12);
}

TEST(NullSafeHelpersTest, NullHandlesAreNoOps) {
  obs::Inc(nullptr);
  obs::Inc(nullptr, 7);
  obs::Set(nullptr, 3);
  obs::Observe(nullptr, 9);  // must not crash — "metrics disabled" path
}

// --- Registry lifecycle ----------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x");
  Counter* c2 = reg.GetCounter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(reg.FindCounter("x"), c1);
  EXPECT_EQ(reg.FindCounter("y"), nullptr);

  Histogram* h1 = reg.GetHistogram("h", {10, 20});
  Histogram* h2 = reg.GetHistogram("h", {999});  // later bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  Histogram* h = reg.GetHistogram("h", {10});
  c->Inc(5);
  g->Set(7);
  h->Observe(3);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->bucket_count(0), 0u);
  // Same handles after Reset — components registered once keep recording.
  EXPECT_EQ(reg.GetCounter("c"), c);
  EXPECT_EQ(reg.GetGauge("g"), g);
  EXPECT_EQ(reg.GetHistogram("h", {10}), h);
  EXPECT_FALSE(reg.empty());
}

// --- JSON snapshot ---------------------------------------------------------

TEST(MetricsJsonTest, GoldenSnapshotIsByteStable) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Inc(3);
  reg.GetCounter("a.count")->Inc(1);  // name-sorted: "a.count" prints first
  Gauge* g = reg.GetGauge("depth");
  g->Set(2);
  g->Set(1);
  Histogram* h = reg.GetHistogram("lat", {10, 20});
  h->Observe(5);
  h->Observe(15);
  // p50: target 1.0 lands in [0,10) -> 10.0; p95/p99 interpolate in [10,20)
  // to 19.0/19.8, clamped to the observed max of 15.
  const std::string expected =
      "{\"counters\":{\"a.count\":1,\"b.count\":3},"
      "\"gauges\":{\"depth\":{\"value\":1,\"max\":2}},"
      "\"histograms\":{\"lat\":{\"count\":2,\"sum\":20,\"min\":5,\"max\":15,"
      "\"p50\":10.000,\"p95\":15.000,\"p99\":15.000,"
      "\"buckets\":[[10,1],[20,1]],\"overflow\":0}}}";
  EXPECT_EQ(obs::MetricsJson(reg), expected);
  EXPECT_EQ(obs::MetricsJson(reg), expected) << "snapshotting must not mutate";
  EXPECT_TRUE(IsValidJson(obs::MetricsJson(reg)));
}

TEST(MetricsJsonTest, EmptyRegistryAndEscaping) {
  MetricsRegistry reg;
  EXPECT_EQ(obs::MetricsJson(reg),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  reg.GetCounter("weird\"name\\with\ncontrol")->Inc();
  const std::string json = obs::MetricsJson(reg);
  EXPECT_TRUE(IsValidJson(json)) << json;
}

// --- Chrome trace export ---------------------------------------------------

TEST(ChromeTraceTest, ExportIsStructurallyValidForPerfetto) {
  Scenario::Options options;
  options.metrics = true;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);

  // Drive real traffic through both NATs (same no-rendezvous punch as the
  // zero-alloc test: sequential port allocation pins both publics at 62000).
  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  const Endpoint a_pub(NatAIp(), 62000);
  const Endpoint b_pub(NatBIp(), 62000);
  const uint8_t msg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*sa)->SendTo(b_pub, msg, sizeof(msg)).ok());
    ASSERT_TRUE((*sb)->SendTo(a_pub, msg, sizeof(msg)).ok());
    net.RunFor(Millis(100));
  }
  ASSERT_GT(net.trace().records().size(), 10u);

  const std::string json = obs::ChromeTraceJson(net.trace(), "obs_test");
  EXPECT_TRUE(IsValidJson(json)) << json.substr(0, 400);
  // The envelope Perfetto's JSON importer expects.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Process metadata plus one named thread row per interned node.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"process_name\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"thread_name\""), net.trace().name_count());
  EXPECT_NE(json.find("\"args\":{\"name\":\"A-nat\"}"), std::string::npos);
  // Every record became an instant event with a scope, matching counts.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), net.trace().records().size());
  EXPECT_EQ(CountOccurrences(json, "\"s\":\"t\""), net.trace().records().size());
  // Categories come from the fixed taxonomy only.
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"net\"") +
                CountOccurrences(json, "\"cat\":\"nat\"") +
                CountOccurrences(json, "\"cat\":\"drop\"") +
                CountOccurrences(json, "\"cat\":\"fault\""),
            net.trace().records().size());
}

// Every TraceEvent value, in declaration order, with the Perfetto category
// it must export under: the mangle faults are faults, not network traffic.
TEST(ChromeTraceTest, EveryTraceEventHasItsCategory) {
  struct Want {
    TraceEvent event;
    std::string_view category;
  };
  constexpr Want kWant[] = {
      {TraceEvent::kSend, "net"},
      {TraceEvent::kDeliver, "net"},
      {TraceEvent::kForward, "net"},
      {TraceEvent::kDropLoss, "drop"},
      {TraceEvent::kDropNoRoute, "drop"},
      {TraceEvent::kDropNoNextHop, "drop"},
      {TraceEvent::kDropTtl, "drop"},
      {TraceEvent::kDropPrivateLeak, "drop"},
      {TraceEvent::kNatTranslateOut, "nat"},
      {TraceEvent::kNatTranslateIn, "nat"},
      {TraceEvent::kNatHairpin, "nat"},
      {TraceEvent::kNatDropUnsolicited, "drop"},
      {TraceEvent::kNatRejectRst, "drop"},
      {TraceEvent::kNatRejectIcmp, "drop"},
      {TraceEvent::kNatDropNoMapping, "drop"},
      {TraceEvent::kNatPayloadRewrite, "nat"},
      {TraceEvent::kLinkDown, "fault"},
      {TraceEvent::kDropBurst, "drop"},
      {TraceEvent::kFault, "fault"},
      {TraceEvent::kCorrupt, "fault"},
      {TraceEvent::kDuplicate, "fault"},
      {TraceEvent::kReorder, "fault"},
      {TraceEvent::kTruncate, "fault"},
  };
  static_assert(std::size(kWant) == static_cast<size_t>(TraceEvent::kTruncate) + 1,
                "one row per TraceEvent value");
  for (size_t i = 0; i < std::size(kWant); ++i) {
    const auto event = static_cast<TraceEvent>(i);
    ASSERT_EQ(kWant[i].event, event) << "rows must follow declaration order";
    EXPECT_EQ(obs::TraceEventCategory(event), kWant[i].category) << TraceEventName(event);
  }
}

TEST(ChromeTraceTest, EmptyTraceStillValid) {
  TraceRecorder trace;
  const std::string json = obs::ChromeTraceJson(trace, "empty");
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

// --- End-to-end: the instrumentation is wired ------------------------------

TEST(ObsEndToEndTest, Fig5PunchMovesTheMetrics) {
  Scenario::Options options;
  options.seed = 7;
  options.metrics = true;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  ASSERT_NE(net.metrics(), nullptr);

  RendezvousServer server(topo.server, kServerPort);
  server.Start();
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpHolePuncher pa(&ca);
  UdpHolePuncher pb(&cb);
  net.RunFor(Seconds(2));

  bool punched = false;
  pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { punched = r.ok(); });
  net.RunFor(Seconds(15));
  ASSERT_TRUE(punched);

  const MetricsRegistry& reg = *net.metrics();
  EXPECT_GT(reg.FindCounter("loop.events_dispatched")->value(), 0u);
  EXPECT_GT(reg.FindGauge("loop.heap_depth")->max(), 0);
  // Both sides punched: initiator's attempt plus the passive-side punch-back.
  EXPECT_EQ(reg.FindCounter("punch.attempts")->value(), 2u);
  EXPECT_EQ(reg.FindCounter("punch.successes")->value(), 2u);
  EXPECT_EQ(reg.FindCounter("punch.failures")->value(), 0u);
  const Histogram* rtt = reg.FindHistogram("punch.rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count(), 2u);
  EXPECT_GT(rtt->observed_max(), 0);
  // Each NAT created at least its rendezvous mapping (cone: one mapping per
  // private endpoint, reused toward the peer).
  EXPECT_GE(reg.FindCounter("nat.A-nat.mappings_created")->value(), 1u);
  EXPECT_GE(reg.FindCounter("nat.B-nat.mappings_created")->value(), 1u);
}

TEST(ObsEndToEndTest, DisabledMetricsRecordNothingAndSimulationMatches) {
  // The same punch with metrics off: registry stays absent and the
  // simulation is bit-identical (event count) — recording never steers.
  uint64_t events_with = 0;
  uint64_t events_without = 0;
  for (const bool metrics : {true, false}) {
    Scenario::Options options;
    options.seed = 7;
    options.metrics = metrics;
    auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
    Network& net = topo.scenario->net();
    auto sa = topo.a->udp().Bind(4321);
    auto sb = topo.b->udp().Bind(4321);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    const uint8_t msg[4] = {1, 2, 3, 4};
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*sa)->SendTo(Endpoint(NatBIp(), 62000), msg, sizeof(msg)).ok());
      ASSERT_TRUE((*sb)->SendTo(Endpoint(NatAIp(), 62000), msg, sizeof(msg)).ok());
      net.RunFor(Millis(100));
    }
    (metrics ? events_with : events_without) = net.event_loop().events_processed();
    EXPECT_EQ(net.metrics() != nullptr, metrics);
  }
  EXPECT_EQ(events_with, events_without);
}

TEST(ObsEndToEndTest, FleetTaxonomyPartitionsEveryFailure) {
  auto fleet = BuildFleet(PaperTable1Vendors(), /*seed=*/2005);
  fleet.resize(60);  // a representative slice keeps the test fast
  const Table1Result result = RunFleet(fleet, /*seed=*/6);

  auto check = [](const std::string& name, const VendorTally& t) {
    SCOPED_TRACE(name);
    const FailureTaxonomy& tax = t.taxonomy;
    // Every UDP/TCP "no" lands in exactly one taxonomy bucket.
    EXPECT_EQ(tax.udp_unreachable + tax.udp_inconsistent, t.udp_n - t.udp_yes);
    EXPECT_EQ(tax.tcp_unreachable + tax.tcp_inconsistent + tax.tcp_rejected,
              t.tcp_n - t.tcp_yes);
  };
  ASSERT_FALSE(result.rows.empty());
  for (const auto& [name, tally] : result.rows) {
    check(name, tally);
  }
  check("total", result.total);

  // The taxonomy participates in the parallel runner's bit-identical
  // contract (VendorTally::operator== includes it).
  EXPECT_EQ(RunFleetParallel(fleet, /*seed=*/6, 4), result);
}

}  // namespace
}  // namespace natpunch
