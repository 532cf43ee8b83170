// Tests of the benchmark's own arithmetic and output checks. Run with
// `python3 perfbench/run.py --self-test`.

#include "perfbench/harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(10), 0), 1);
  EXPECT_EQ(Percentile(OneTo(10), 100), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyondIt) {
  Tail t = SupportedTail(OneTo(1000));
  EXPECT_EQ(t.percentile, 99);  // 10 samples above rank 990; p99.9 has 1
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.samples, 1000u);
  t = SupportedTail(OneTo(10000));
  EXPECT_EQ(t.percentile, 99.9);
  t = SupportedTail(OneTo(999));
  EXPECT_EQ(t.percentile, 95);
  t = SupportedTail(OneTo(200));
  EXPECT_EQ(t.percentile, 95);  // 10 above rank 190
  t = SupportedTail(OneTo(199));
  EXPECT_EQ(t.percentile, 90);
  t = SupportedTail(OneTo(20));
  EXPECT_EQ(t.percentile, 50);
  t = SupportedTail(OneTo(19));
  EXPECT_EQ(t.percentile, 0);
  EXPECT_EQ(t.samples, 19u);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > child [10,60) > grandchild [20,50)
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 60),
                                   MakeSpan(1, 20, 50)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[0] + self[1] + self[2], 100);
}

TEST(SelfTimeTest, SiblingsAreSummedAndOverlapCountedOnce) {
  // Disjoint siblings [10,20) and [30,50); overlapping [60,80) and [70,90);
  // one sticking out past the parent's end.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 20),
                                   MakeSpan(0, 30, 50),  MakeSpan(0, 60, 80),
                                   MakeSpan(0, 70, 90),  MakeSpan(0, 95, 120)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 10 - 20 - 30 - 5);
  const std::vector<int64_t> by_name = SelfTimeByName(spans, self, 1, 0, spans.size());
  EXPECT_EQ(by_name[0], self[0] + 10 + 20 + 20 + 20 + 25);
}

TEST(SelfTimeTest, TracerRecordsParentsAndWritesJson) {
  Tracer tracer(true);
  const uint32_t outer = tracer.Name("outer");
  const uint32_t inner = tracer.Name("inner");
  EXPECT_EQ(tracer.Name("outer"), outer);
  {
    Scope a(tracer, outer, 7);
    Scope b(tracer, inner, 7);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7u);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  EXPECT_NE(tracer.Json().find("\"names\":[\"outer\",\"inner\"]"), std::string::npos);

  Tracer off(false);
  { Scope a(off, off.Name("x"), 0); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(FailedShareTest, RefusedAndLateIntroductionsAreFailed) {
  IntroRecord ok;
  ok.due_us = 1000;
  ok.done_us = 2000;
  ok.ok = true;
  ok.direct = true;
  EXPECT_EQ(Classify(ok, 5000), Outcome::kDirect);
  IntroRecord relay = ok;
  relay.direct = false;
  EXPECT_EQ(Classify(relay, 5000), Outcome::kRelay);
  IntroRecord refused = ok;
  refused.ok = false;  // the callback carried an error
  EXPECT_EQ(Classify(refused, 5000), Outcome::kFailed);
  IntroRecord never = ok;
  never.done_us = -1;
  EXPECT_EQ(Classify(never, 5000), Outcome::kFailed);
  IntroRecord late = ok;
  late.done_us = 7000;
  EXPECT_EQ(Classify(late, 5000), Outcome::kFailed);

  EXPECT_EQ(FailedShare(4, 1), 0.25);
  EXPECT_EQ(FailedShare(4, 0), 0.0);
  EXPECT_EQ(FailedShare(0, 0), 1.0);
}

SwarmFacts GoodSwarm() {
  SwarmFacts f;
  f.sessions = f.alive = 200;
  f.sent = f.delivered = 3200;
  return f;
}

TEST(CheckTest, SwarmFiresOnEachWrongResult) {
  EXPECT_TRUE(CheckSwarm(GoodSwarm()).empty());
  SwarmFacts dead = GoodSwarm();
  dead.alive = 199;
  EXPECT_EQ(CheckSwarm(dead).size(), 1u);
  SwarmFacts lost = GoodSwarm();
  lost.delivered = 3199;
  EXPECT_EQ(CheckSwarm(lost).size(), 1u);
  SwarmFacts failover = GoodSwarm();
  failover.failovers = 1;
  EXPECT_EQ(CheckSwarm(failover).size(), 1u);
  SwarmFacts malformed = GoodSwarm();
  malformed.malformed = 1;
  EXPECT_EQ(CheckSwarm(malformed).size(), 1u);
  EXPECT_FALSE(CheckSwarm(SwarmFacts{}).empty());
}

ChurnFacts GoodChurn() {
  ChurnFacts f;
  f.deadline_us = 10'000;
  f.reboot_guard_us = 1'000;
  IntroRecord direct;
  direct.due_us = 100'000;
  direct.done_us = 101'000;
  direct.ok = true;
  direct.direct = true;
  direct.nat_a = 1;
  direct.nat_b = 2;
  direct.must_be_direct = true;
  IntroRecord relay = direct;
  relay.direct = false;
  relay.must_be_direct = false;
  relay.nat_a = 3;
  IntroRecord failed = relay;
  failed.ok = false;
  f.intros = {direct, relay, failed};
  f.direct = 1;
  f.relay = 1;
  f.failed = 1;
  f.sent = 10;
  f.delivered = 9;
  return f;
}

TEST(CheckTest, ChurnFiresOnEachWrongResult) {
  EXPECT_TRUE(CheckChurn(GoodChurn()).empty());

  ChurnFacts uncounted = GoodChurn();
  uncounted.failed = 0;  // one introduction left out of the tallies
  EXPECT_EQ(CheckChurn(uncounted).size(), 1u);

  ChurnFacts miscounted = GoodChurn();
  miscounted.direct = 2;
  miscounted.relay = 0;
  EXPECT_EQ(CheckChurn(miscounted).size(), 1u);

  ChurnFacts not_direct = GoodChurn();
  not_direct.intros[0].direct = false;  // a punchable pair ended on the relay
  not_direct.direct = 0;
  not_direct.relay = 2;
  EXPECT_EQ(CheckChurn(not_direct).size(), 1u);
  // ... which is allowed when a reboot of either NAT overlapped it,
  not_direct.reboots = {{100'500, 2}};
  EXPECT_TRUE(CheckChurn(not_direct).empty());
  // including shortly before it was due,
  not_direct.reboots = {{99'500, 1}};
  EXPECT_TRUE(CheckChurn(not_direct).empty());
  // but not a reboot of an unrelated NAT or one long before.
  not_direct.reboots = {{100'500, 9}, {90'000, 1}};
  EXPECT_EQ(CheckChurn(not_direct).size(), 1u);

  for (uint64_t ChurnFacts::*field :
       {&ChurnFacts::unknown_targets, &ChurnFacts::failovers, &ChurnFacts::malformed}) {
    ChurnFacts broken = GoodChurn();
    broken.*field = 1;
    EXPECT_EQ(CheckChurn(broken).size(), 1u);
  }

  ChurnFacts over = GoodChurn();
  over.delivered = 11;
  EXPECT_EQ(CheckChurn(over).size(), 1u);
  EXPECT_FALSE(CheckChurn(ChurnFacts{}).empty());
}

TEST(CheckTest, FleetFiresOnEachWrongResult) {
  const Table1Cells base = {{310, 80, 184, 40}, {380, 335, 286, 284}};
  Table1Cells total = {{620, 160, 368, 80}, {760, 670, 572, 568}};
  EXPECT_TRUE(CheckFleet(total, base, 2).empty());
  EXPECT_EQ(FleetDeviations(total, base, 2), 0u);
  for (int c = 0; c < 4; ++c) {
    Table1Cells wrong = total;
    wrong.yes[c] -= 1;
    EXPECT_EQ(FleetDeviations(wrong, base, 2), 1u);
    EXPECT_EQ(CheckFleet(wrong, base, 2).size(), 1u);
    wrong = total;
    wrong.n[c] += 1;
    EXPECT_EQ(CheckFleet(wrong, base, 2).size(), 1u);
  }
  EXPECT_EQ(CheckFleet(total, base, 3).size(), 1u);
}

TEST(ResultJsonTest, KeepsAllDigitsAndUnits) {
  const std::string line =
      ResultJson(true, 10, 1, {{"setup_s", 0.1, "s"}, {"ops_per_s", 12345.678, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"
            "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}, "
            "\"ops_per_s\": {\"value\": 12345.678, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace perfbench
