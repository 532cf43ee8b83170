// Timing wheel tests. The wheel is one ring of 4,096 buckets of 2^14 us, a
// ~67 s lap, staged under the heap, so pops must keep the strict (time,
// sequence) total order the golden traces depend on. Covered: exact order
// across many ring positions, timers parked laps ahead in a shared bucket,
// far-future timers thousands of laps ahead, cancellation from every
// residence state, Reset() reuse, and a randomized wheel-vs-heap
// differential oracle. The scenario-level check at the bottom replays a
// full punch scenario with the wheel on and off and requires byte-identical
// Trace::Dump() output.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/udp_puncher.h"
#include "src/netsim/event_loop.h"
#include "src/obs/metrics.h"
#include "src/rendezvous/client.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/flat_hash.h"

namespace natpunch {
namespace {

// One ring slot is 2^14 us; kWindowUs is 64 slots, one word of the ring's
// occupancy bitmap; a lap of the ring is 4,096 slots.
constexpr int64_t kSlotUs = 1 << 14;
constexpr int64_t kWindowUs = 64 * kSlotUs;
constexpr int64_t kLapUs = 4096 * kSlotUs;

struct FireLog {
  EventLoop* loop = nullptr;
  std::vector<std::string>* log = nullptr;
  int tag = 0;
  TimerHandle handle;

  void Fire() {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "t%d@%lld", tag,
                  static_cast<long long>(loop->now().micros()));
    log->push_back(buf);
  }
};

TEST(TimerWheelTest, SlotRolloverKeepsExactOrderAcrossWindows) {
  EventLoop loop;
  std::vector<std::string> log;
  // Deadlines straddling several bitmap words and one lap of the ring,
  // scheduled out of deadline order so the wheel has to do the sorting.
  const int64_t deadlines[] = {3 * kWindowUs + 5,  kSlotUs / 2,       kWindowUs - 1,
                               kWindowUs,          kWindowUs + 1,     2 * kWindowUs + kSlotUs,
                               65 * kWindowUs + 7, 5 * kWindowUs + 3, kSlotUs * 63};
  std::vector<FireLog> timers(std::size(deadlines));
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(deadlines[i]), &timers[i].handle);
  }
  loop.RunUntil(SimTime(70 * kWindowUs));
  ASSERT_EQ(log.size(), timers.size());
  // Expected: ascending deadline order.
  EXPECT_EQ(log[0], "t1@8192");
  EXPECT_EQ(log[1], "t8@1032192");
  EXPECT_EQ(log[2], "t2@1048575");
  EXPECT_EQ(log[3], "t3@1048576");
  EXPECT_EQ(log[4], "t4@1048577");
  EXPECT_EQ(log[5], "t5@2113536");
  EXPECT_EQ(log[6], "t0@3145733");
  EXPECT_EQ(log[7], "t7@5242883");
  EXPECT_EQ(log[8], "t6@68157447");
}

TEST(TimerWheelTest, SameDeadlineTieBreaksByScheduleOrderWithClosures) {
  for (const bool wheel : {true, false}) {
    EventLoop loop;
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    const int64_t when = 2 * kWindowUs + 17;
    FireLog t1{&loop, &log, 1, {}};
    FireLog t2{&loop, &log, 2, {}};
    t1.handle.Bind<&FireLog::Fire>(&t1);
    t2.handle.Bind<&FireLog::Fire>(&t2);
    loop.ScheduleAt(SimTime(when), [&] { log.push_back("c0"); });
    loop.ScheduleTimerAt(SimTime(when), &t1.handle);
    loop.ScheduleAt(SimTime(when), [&] { log.push_back("c1"); });
    loop.ScheduleTimerAt(SimTime(when), &t2.handle);
    loop.RunUntil(SimTime(3 * kWindowUs));
    ASSERT_EQ(log.size(), 4u) << "wheel=" << wheel;
    EXPECT_EQ(log[0], "c0");
    EXPECT_EQ(log[1], "t1@" + std::to_string(when));
    EXPECT_EQ(log[2], "c1");
    EXPECT_EQ(log[3], "t2@" + std::to_string(when));
  }
}

TEST(TimerWheelTest, FarFutureTimerParksInOverflowAndFiresExactly) {
  EventLoop loop;
  std::vector<std::string> log;
  FireLog farfut{&loop, &log, 9, {}};
  farfut.handle.Bind<&FireLog::Fire>(&farfut);
  // ~100 simulated hours: over 5,000 laps ahead, so the handle stays parked
  // in its bucket while the cursor passes it lap after lap.
  const int64_t when = 100ll * 3600 * 1000000 + 12345;
  loop.ScheduleTimerAt(SimTime(when), &farfut.handle);
  EXPECT_EQ(loop.wheel_pending(), 1u);
  // Keep the loop busy along the way so the cursor actually travels.
  FireLog hourly{&loop, &log, 1, {}};
  hourly.handle.Bind<&FireLog::Fire>(&hourly);
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 120) {
      loop.ScheduleAfter(Micros(3600ll * 1000000), hop);
    }
  };
  loop.ScheduleAfter(Micros(3600ll * 1000000), hop);
  loop.RunUntil(SimTime(when + 1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "t9@" + std::to_string(when));
}

TEST(TimerWheelTest, LaterLapsStayParkedInTheirBucket) {
  // Three timers share one bucket: one due this lap, one a lap later and
  // one three laps later. Flushing the bucket's slot moves only the timer
  // due in it; the other two stay parked, hold no pool slot, and are each
  // counted in loop.wheel_cascades every time a flush walks past them.
  EventLoop loop;
  obs::MetricsRegistry registry;
  obs::Counter* walked = registry.GetCounter("loop.wheel_cascades");
  loop.AttachMetrics(nullptr, nullptr, nullptr, nullptr, walked);
  std::vector<std::string> log;
  const int64_t base = 5 * kSlotUs + 123;
  const int64_t deadlines[] = {base + 3 * kLapUs, base, base + kLapUs};
  std::vector<FireLog> timers(std::size(deadlines));
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(deadlines[i]), &timers[i].handle);
  }
  EXPECT_EQ(loop.wheel_pending(), 3u);

  loop.RunUntil(SimTime(base));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "t1@" + std::to_string(base));
  EXPECT_EQ(loop.wheel_pending(), 2u) << "later laps must stay in the wheel";
  EXPECT_EQ(loop.pending_count(), 2u);
  EXPECT_EQ(walked->value(), 2u);

  loop.RunUntil(SimTime(base + 4 * kLapUs));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], "t2@" + std::to_string(base + kLapUs));
  EXPECT_EQ(log[2], "t0@" + std::to_string(base + 3 * kLapUs));
  // The three-lap timer was walked past once more in each of the next two
  // laps before its own.
  EXPECT_EQ(walked->value(), 4u);
  EXPECT_EQ(loop.wheel_pending(), 0u);
}

TEST(TimerWheelTest, CancelWorksFromEveryResidence) {
  EventLoop loop;
  std::vector<std::string> log;
  // One timer per residence: due this lap, a later bitmap word of this
  // lap, and thousands of laps ahead.
  FireLog near{&loop, &log, 0, {}};
  FireLog mid{&loop, &log, 1, {}};
  FireLog far{&loop, &log, 2, {}};
  for (FireLog* t : {&near, &mid, &far}) {
    t->handle.Bind<&FireLog::Fire>(t);
  }
  loop.ScheduleTimerAt(SimTime(kSlotUs * 3), &near.handle);
  loop.ScheduleTimerAt(SimTime(kWindowUs * 7), &mid.handle);
  loop.ScheduleTimerAt(SimTime(200ll * 3600 * 1000000), &far.handle);
  EXPECT_TRUE(near.handle.pending());
  EXPECT_TRUE(near.handle.Cancel());
  EXPECT_FALSE(near.handle.pending());
  EXPECT_FALSE(near.handle.Cancel());  // second cancel is a no-op
  EXPECT_TRUE(mid.handle.Cancel());
  EXPECT_TRUE(far.handle.Cancel());
  EXPECT_EQ(loop.wheel_pending(), 0u);
  loop.RunUntil(SimTime(kWindowUs * 10));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(TimerWheelTest, CancelDuringCascadeWindow) {
  // A timer cancelled by an earlier-firing timer in the same bitmap word of
  // the ring: the victim is still parked in its bucket when the killer
  // fires, so this cancels a wheel-resident timer from a dispatch.
  EventLoop loop;
  std::vector<std::string> log;
  FireLog victim{&loop, &log, 7, {}};
  victim.handle.Bind<&FireLog::Fire>(&victim);
  struct Killer {
    TimerHandle* target;
    TimerHandle handle;
    void Fire() { target->Cancel(); }
  } killer{&victim.handle, {}};
  killer.handle.Bind<&Killer::Fire>(&killer);
  // Same bitmap word, killer a few slots earlier.
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs + 2 * kSlotUs), &killer.handle);
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs + 9 * kSlotUs), &victim.handle);
  loop.RunUntil(SimTime(6 * kWindowUs));
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(victim.handle.pending());
}

TEST(TimerWheelTest, RearmPendingHandleMovesDeadline) {
  EventLoop loop;
  std::vector<std::string> log;
  FireLog t{&loop, &log, 3, {}};
  t.handle.Bind<&FireLog::Fire>(&t);
  loop.ScheduleTimerAt(SimTime(4 * kWindowUs), &t.handle);
  // Pull it earlier, then push it later: only the final deadline fires.
  loop.ScheduleTimerAt(SimTime(kWindowUs), &t.handle);
  loop.ScheduleTimerAt(SimTime(2 * kWindowUs + 5), &t.handle);
  loop.RunUntil(SimTime(8 * kWindowUs));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "t3@" + std::to_string(2 * kWindowUs + 5));
}

TEST(TimerWheelTest, ResetIdlesWheelTimersAndHandlesAreReusable) {
  EventLoop loop;
  std::vector<std::string> log;
  std::vector<FireLog> timers(8);
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(static_cast<int64_t>(i + 1) * kWindowUs), &timers[i].handle);
  }
  loop.RunUntil(SimTime(2 * kWindowUs + 1));  // fire the first two
  EXPECT_EQ(log.size(), 2u);
  loop.Reset();
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_EQ(loop.wheel_pending(), 0u);
  for (FireLog& t : timers) {
    EXPECT_FALSE(t.handle.pending());
  }
  // The same handles re-arm cleanly on the reset loop (time restarted at 0).
  log.clear();
  for (size_t i = 0; i < timers.size(); ++i) {
    loop.ScheduleTimerAt(SimTime(static_cast<int64_t>(i + 1) * kSlotUs), &timers[i].handle);
  }
  loop.RunUntil(SimTime(kWindowUs));
  EXPECT_EQ(log.size(), timers.size());
}

TEST(TimerWheelTest, DestructorCancelsPendingTimer) {
  EventLoop loop;
  std::vector<std::string> log;
  {
    FireLog doomed{&loop, &log, 4, {}};
    doomed.handle.Bind<&FireLog::Fire>(&doomed);
    loop.ScheduleTimerAt(SimTime(3 * kWindowUs), &doomed.handle);
  }  // handle destroyed while parked in the wheel
  loop.RunUntil(SimTime(5 * kWindowUs));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(loop.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential oracle: wheel on vs wheel off (pure heap) must
// produce identical dispatch sequences under schedule/cancel/re-arm churn.
// ---------------------------------------------------------------------------

struct DiffTimer {
  EventLoop* loop;
  std::vector<std::string>* log;
  int tag;
  TimerHandle handle;
  uint64_t rng;
  int64_t horizon;
  int64_t max_step;

  void Fire() {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "t%d@%lld", tag,
                  static_cast<long long>(loop->now().micros()));
    log->push_back(buf);
    rng = HashMix64(rng + 1);
    const int64_t step = 1 + static_cast<int64_t>(rng % static_cast<uint64_t>(max_step));
    if (loop->now().micros() + step < horizon) {
      loop->ScheduleTimerAfter(Micros(step), &handle);
    }
  }
};

std::vector<std::string> DifferentialRun(bool wheel, uint64_t seed, int n_timers,
                                         int64_t horizon, int64_t max_step) {
  EventLoop loop;
  loop.SetTimerWheelEnabled(wheel);
  std::vector<std::string> log;
  std::vector<DiffTimer> recs(n_timers);
  uint64_t rng = seed;
  for (int i = 0; i < n_timers; ++i) {
    recs[i].loop = &loop;
    recs[i].log = &log;
    recs[i].tag = i;
    recs[i].rng = HashMix64(seed * 1000 + static_cast<uint64_t>(i));
    recs[i].horizon = horizon;
    recs[i].max_step = max_step;
    recs[i].handle.Bind<&DiffTimer::Fire>(&recs[i]);
    rng = HashMix64(rng);
    loop.ScheduleTimerAfter(Micros(1 + rng % static_cast<uint64_t>(max_step)),
                            &recs[i].handle);
  }
  // Interleave closure events that cancel or re-arm random victims, so the
  // oracle also covers mixed closure/timer tie-breaking.
  for (int k = 0; k < 120; ++k) {
    rng = HashMix64(rng);
    const int64_t when = static_cast<int64_t>(rng % static_cast<uint64_t>(horizon));
    const int victim = static_cast<int>(HashMix64(rng) % static_cast<uint64_t>(n_timers));
    loop.ScheduleAt(SimTime(when), [&loop, &log, &recs, victim, when] {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "c%d@%lld", victim, static_cast<long long>(when));
      log.push_back(buf);
      if (victim % 3 == 0) {
        recs[victim].handle.Cancel();
      } else if (victim % 3 == 1) {
        loop.ScheduleTimerAfter(Micros(1 + victim * 12345), &recs[victim].handle);
      }
    });
  }
  loop.RunUntil(SimTime(horizon));
  return log;
}

TEST(TimerWheelDifferentialTest, MatchesHeapOnlyOrderAcrossAllLevels) {
  struct Config {
    int n_timers;
    int64_t horizon;
    int64_t max_step;
  };
  // Short/dense stays inside a lap of the ring (~67 s); lap-straddling
  // re-arms up to ~1.5 laps ahead, so buckets hold timers of this lap and
  // the next; medium parks timers up to ~7 laps ahead; long/sparse up to
  // ~1,300 laps.
  const Config configs[] = {
      {24, 120000000ll, 7000000ll},
      {32, 1000000000ll, 100000000ll},
      {16, 9000000000ll, 500000000ll},
      {8, 600000000000ll, 90000000000ll},
  };
  for (const Config& cfg : configs) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const auto with_wheel =
          DifferentialRun(true, seed, cfg.n_timers, cfg.horizon, cfg.max_step);
      const auto heap_only =
          DifferentialRun(false, seed, cfg.n_timers, cfg.horizon, cfg.max_step);
      ASSERT_EQ(with_wheel, heap_only)
          << "dispatch order diverged: seed=" << seed << " horizon=" << cfg.horizon;
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario-level oracle: a full punch + keepalive + expiry scenario must
// trace byte-identically whether timers stage through the wheel or go
// straight to the heap.
// ---------------------------------------------------------------------------

std::string PunchScenarioTrace(bool wheel_enabled) {
  Scenario::Options options;
  options.seed = 77;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.event_loop().SetTimerWheelEnabled(wheel_enabled);
  net.trace().set_enabled(true);

  RendezvousServer server(topo.server, 3478);
  if (!server.Start().ok()) {
    return "server start failed";
  }
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpPunchConfig punch_config;
  punch_config.keepalive_interval = Seconds(3);
  punch_config.session_expiry = Seconds(10);
  UdpHolePuncher pa(&ca, punch_config);
  UdpHolePuncher pb(&cb, punch_config);
  UdpP2pSession* incoming = nullptr;
  pb.SetIncomingSessionCallback([&](UdpP2pSession* s) { incoming = s; });
  net.RunFor(Seconds(2));
  UdpP2pSession* session = nullptr;
  pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { session = r.ok() ? *r : nullptr; });
  net.RunFor(Seconds(10));
  if (session == nullptr) {
    return "punch failed";
  }
  // Keepalive-sustained quiet period, a data burst, then silence long
  // enough for the responder's expiry watchdog to run its course.
  net.RunFor(Seconds(20));
  for (int i = 0; i < 5; ++i) {
    session->Send(Bytes{static_cast<uint8_t>(i)});
    net.RunFor(Millis(250));
  }
  session->Close();
  net.RunFor(Seconds(25));
  return net.trace().Dump();
}

TEST(TimerWheelDifferentialTest, PunchScenarioTraceByteIdentical) {
  const std::string with_wheel = PunchScenarioTrace(true);
  const std::string heap_only = PunchScenarioTrace(false);
  ASSERT_GT(with_wheel.size(), 1000u);  // the scenario really ran
  EXPECT_EQ(with_wheel, heap_only);
}

TEST(TimerWheelTest, LoopMetricsCountWheelAndHeapAdmissions) {
  Network net(1);
  obs::MetricsRegistry* reg = net.EnableMetrics();
  EventLoop& loop = net.event_loop();
  std::vector<std::string> log;
  FireLog near{&loop, &log, 0, {}};
  FireLog far{&loop, &log, 1, {}};
  near.handle.Bind<&FireLog::Fire>(&near);
  far.handle.Bind<&FireLog::Fire>(&far);
  const obs::Counter* wheel_ct = reg->FindCounter("loop.timers_wheel");
  const obs::Counter* heap_ct = reg->FindCounter("loop.timers_heap");
  const obs::Counter* cascades = reg->FindCounter("loop.wheel_cascades");
  ASSERT_NE(wheel_ct, nullptr);
  ASSERT_NE(heap_ct, nullptr);
  ASSERT_NE(cascades, nullptr);
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs), &near.handle);  // wheel path
  EXPECT_EQ(wheel_ct->value(), 1u);
  loop.SetTimerWheelEnabled(false);
  loop.ScheduleTimerAt(SimTime(6 * kWindowUs), &far.handle);  // forced heap path
  EXPECT_EQ(heap_ct->value(), 1u);
  loop.SetTimerWheelEnabled(true);
  loop.RunUntil(SimTime(7 * kWindowUs));
  EXPECT_EQ(log.size(), 2u);
}

}  // namespace
}  // namespace natpunch
