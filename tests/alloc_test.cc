// The tentpole guarantee: once a hole-punched UDP session reaches steady
// state, forwarding a packet end-to-end (socket -> host -> NAT -> internet
// -> NAT -> host -> socket) performs ZERO heap allocations, even with
// packet tracing enabled. This binary replaces global operator new/delete
// with counting hooks; it must stay its own test target so the hooks never
// interfere with the other suites. It also holds the per-peer heap budget
// (FootprintTest), read from glibc's heap statistics.

#include <gtest/gtest.h>

#include <execinfo.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/resilient_session.h"
#include "src/core/turn.h"
#include "src/core/udp_puncher.h"
#include "src/nat/nat_table.h"
#include "src/obs/metrics.h"
#include "src/rendezvous/client.h"
#include "src/rendezvous/ring.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/transport/host.h"
#include "src/util/flat_hash.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};  // bytes those allocations asked for

// Backtraces of the first few counted allocations, for actionable failure
// output. Captured with async-signal-unsafe-free machinery only (backtrace
// into a fixed buffer); symbolization happens lazily at report time.
constexpr int kMaxSamples = 4;
constexpr int kMaxFrames = 16;
void* g_sample_frames[kMaxSamples][kMaxFrames];
int g_sample_depth[kMaxSamples];
std::atomic<int> g_samples{0};

void CountAllocation(size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) {
    return;
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  int slot = g_samples.load(std::memory_order_relaxed);
  if (slot < kMaxSamples &&
      g_samples.compare_exchange_strong(slot, slot + 1, std::memory_order_relaxed)) {
    // backtrace() itself may allocate on first use; that's fine — samples
    // only exist on a failing run, and the suppression flag below keeps the
    // recursion from double-counting.
    g_counting.store(false, std::memory_order_relaxed);
    g_sample_depth[slot] = backtrace(g_sample_frames[slot], kMaxFrames);
    g_counting.store(true, std::memory_order_relaxed);
  }
}

std::string DescribeSamples() {
  std::string out = "allocation backtraces (first " +
                    std::to_string(g_samples.load()) + "):\n";
  for (int s = 0; s < g_samples.load() && s < kMaxSamples; ++s) {
    char** symbols = backtrace_symbols(g_sample_frames[s], g_sample_depth[s]);
    out += "--- alloc " + std::to_string(s) + "\n";
    if (symbols != nullptr) {
      for (int f = 0; f < g_sample_depth[s]; ++f) {
        out += "    ";
        out += symbols[f];
        out += "\n";
      }
      std::free(symbols);
    }
  }
  return out;
}

}  // namespace

void* operator new(size_t size) {
  CountAllocation(size);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](size_t size) {
  CountAllocation(size);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Out of line on purpose: inlined into a caller, `free` of a pointer from a
// new-expression reads to gcc as a mismatched pair (-Wmismatched-new-delete),
// although the replacement operator new above took it from malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace natpunch {
namespace {

TEST(ZeroAllocTest, SteadyStatePunchedExchangeAllocatesNothing) {
  // Fig. 5: A and B behind distinct default (cone, port-restricted) NATs.
  // Sequential allocation from port_base gives each client the paper's
  // 62000 public port, so the punch needs no rendezvous server.
  Scenario::Options options;
  options.metrics = true;  // the guarantee must hold WITH metrics enabled
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);  // ...and WITH tracing on

  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  size_t a_bytes = 0;
  size_t b_bytes = 0;
  (*sa)->SetReceiveCallback([&](const Endpoint&, const Payload& p) { a_bytes += p.size(); });
  (*sb)->SetReceiveCallback([&](const Endpoint&, const Payload& p) { b_bytes += p.size(); });

  const Endpoint a_pub(NatAIp(), 62000);
  const Endpoint b_pub(NatBIp(), 62000);
  uint8_t msg[32];
  for (size_t i = 0; i < sizeof(msg); ++i) {
    msg[i] = static_cast<uint8_t>(i);
  }

  // Punch + warm-up. The first unsolicited arrivals are dropped; once both
  // sides have sent, the holes stay open. The warm-up must process at least
  // as many rounds as the measured phase so every arena (closure pool,
  // trace records vector, NAT tables, the delivery pool) reaches its
  // high-water capacity before counting starts.
  constexpr int kRounds = 100;
  for (int i = 0; i < kRounds + 20; ++i) {
    ASSERT_TRUE((*sa)->SendTo(b_pub, msg, sizeof(msg)).ok());
    ASSERT_TRUE((*sb)->SendTo(a_pub, msg, sizeof(msg)).ok());
    net.RunFor(Millis(100));
  }
  ASSERT_GT(a_bytes, 0u) << "punch failed: A never heard from B";
  ASSERT_GT(b_bytes, 0u) << "punch failed: B never heard from A";
  net.trace().Clear();  // keeps capacity; steady state records into it

  const size_t a_before = a_bytes;
  const size_t b_before = b_bytes;
  const obs::Counter* dispatched = net.metrics()->FindCounter("loop.events_dispatched");
  ASSERT_NE(dispatched, nullptr);
  const uint64_t dispatched_before = dispatched->value();
  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  for (int i = 0; i < kRounds; ++i) {
    (*sa)->SendTo(b_pub, msg, sizeof(msg));
    (*sb)->SendTo(a_pub, msg, sizeof(msg));
    net.RunFor(Millis(100));
  }
  g_counting.store(false);

  // Every steady-state packet was delivered...
  EXPECT_EQ(a_bytes - a_before, static_cast<size_t>(kRounds) * sizeof(msg));
  EXPECT_EQ(b_bytes - b_before, static_cast<size_t>(kRounds) * sizeof(msg));
  // ...tracing really was recording hops...
  EXPECT_GT(net.trace().records().size(), static_cast<size_t>(kRounds));
  // ...metrics really were recording (dispatch counter moved)...
  EXPECT_GT(dispatched->value(), dispatched_before + static_cast<uint64_t>(kRounds));
  // ...and not one byte came off the heap.
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
}

TEST(ZeroAllocTest, SteadyStateMappingChurnAllocatesNothing) {
  // The NAT table's pooled-entry guarantee: once the table has reached its
  // high-water size, continuous mapping churn — expiry tearing mappings down
  // and new outbound traffic recreating them — recycles entries, hash slots,
  // and session vectors without touching the heap.
  NatTable table(NatMapping::kEndpointIndependent, NatPortAllocation::kSequential, 62000, Rng(1));

  // A bounded endpoint population (the steady-state shape: the same inside
  // hosts keep talking) cycling through a table that holds half of them live
  // at any instant.
  constexpr uint32_t kEndpoints = 512;
  constexpr int64_t kLifetime = kEndpoints / 2;  // in churn steps
  const NatTable::Timeouts timeouts{Micros(kLifetime), Micros(kLifetime), Micros(kLifetime)};
  const auto private_ep = [](uint32_t i) {
    return Endpoint(Ipv4Address(0x0a000001u + i / 128), static_cast<uint16_t>(2000 + i % 128));
  };
  const Endpoint remotes[2] = {Endpoint(Ipv4Address::FromOctets(18, 0, 0, 1), 9000),
                               Endpoint(Ipv4Address::FromOctets(18, 0, 0, 2), 9001)};

  int64_t now = 0;
  const auto churn = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      const uint32_t idx = static_cast<uint32_t>(now) % kEndpoints;
      NatTable::Entry* entry = table.MapOutbound(IpProtocol::kUdp, private_ep(idx),
                                                 remotes[now % 2], SimTime(now));
      ASSERT_NE(entry, nullptr);
      ++now;
      table.Expire(SimTime(now), timeouts);
    }
  };

  // Warm-up: several full generations so the entry pool, every flat-hash
  // index, and the per-entry session vectors reach high water.
  churn(static_cast<int>(kEndpoints) * 6);
  const size_t live_before = table.size();
  ASSERT_GT(live_before, 0u);

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  churn(static_cast<int>(kEndpoints) * 6);
  g_counting.store(false);

  EXPECT_EQ(table.size(), live_before);  // the churn really was steady-state
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
}

TEST(ZeroAllocTest, SwarmSteadyStateKeepalivesAndDataAllocateNothing) {
  // The bench_swarm configuration in miniature: dozens of punched sessions
  // multiplexed over one socket pair with keepalive jitter enabled. A warm
  // steady-state round — an empty-payload data tick on every session plus
  // whatever keepalive/expiry timers fall due, each re-arming its intrusive
  // handle through the timing wheel — must not allocate, and the session
  // slab pools must not grow (zero slab growth across 100 punched rounds,
  // with metrics AND tracing on).
  Scenario::Options options;
  options.metrics = true;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);

  RendezvousServer server(topo.server, 3478);
  ASSERT_TRUE(server.Start().ok());
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpPunchConfig punch_config;
  punch_config.keepalive_interval = Seconds(2);
  punch_config.keepalive_jitter = Millis(500);
  punch_config.session_expiry = Seconds(120);
  UdpHolePuncher pa(&ca, punch_config);
  UdpHolePuncher pb(&cb, punch_config);
  std::vector<UdpP2pSession*> initiator;
  std::vector<UdpP2pSession*> responder;
  pb.SetIncomingSessionCallback([&](UdpP2pSession* s) { responder.push_back(s); });
  net.RunFor(Seconds(2));
  constexpr int kSessions = 32;
  for (int i = 0; i < kSessions; ++i) {
    pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) {
      ASSERT_TRUE(r.ok());
      initiator.push_back(*r);
    });
    net.RunFor(Millis(700));
  }
  ASSERT_EQ(initiator.size(), static_cast<size_t>(kSessions));
  ASSERT_EQ(responder.size(), static_cast<size_t>(kSessions));

  // One steady-state round: every session sends an inline-capacity (empty)
  // datagram, then half a second of simulated time drains deliveries and
  // any keepalive/expiry timers that land in the window.
  const auto round = [&] {
    for (UdpP2pSession* s : initiator) {
      s->Send(Bytes{});
    }
    for (UdpP2pSession* s : responder) {
      s->Send(Bytes{});
    }
    net.RunFor(Millis(500));
  };

  // Warm-up past every high-water mark (closure pool, wheel slot lists, heap
  // vector, flat-hash tables, LAN delivery queues, socket buffers, trace
  // record vector) AND through several full keepalive generations, then
  // count.
  for (int i = 0; i < 60; ++i) {
    round();
  }
  net.trace().Clear();  // keeps capacity; steady state records into it

  // Snapshot the session slab pools via their mem.* gauges: a steady-state
  // population must neither grow a slab nor leak a live object.
  obs::MetricsRegistry* registry = net.metrics();
  ASSERT_NE(registry, nullptr);
  const std::string pool_a = "mem.udp_sessions." + topo.a->name();
  const std::string pool_b = "mem.udp_sessions." + topo.b->name();
  const int64_t slabs_a = registry->GetGauge(pool_a + ".slabs")->value();
  const int64_t slabs_b = registry->GetGauge(pool_b + ".slabs")->value();
  const int64_t live_a = registry->GetGauge(pool_a + ".live")->value();
  const int64_t live_b = registry->GetGauge(pool_b + ".live")->value();
  ASSERT_GT(live_a + live_b, 0) << "session pools not wired to the gauges";

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  for (int i = 0; i < 40; ++i) {
    round();
  }
  g_counting.store(false);

  for (UdpP2pSession* s : initiator) {
    EXPECT_TRUE(s->alive());
  }
  for (UdpP2pSession* s : responder) {
    EXPECT_TRUE(s->alive());
  }
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
  EXPECT_EQ(registry->GetGauge(pool_a + ".slabs")->value(), slabs_a) << "pool A grew a slab";
  EXPECT_EQ(registry->GetGauge(pool_b + ".slabs")->value(), slabs_b) << "pool B grew a slab";
  EXPECT_EQ(registry->GetGauge(pool_a + ".live")->value(), live_a) << "pool A leaked sessions";
  EXPECT_EQ(registry->GetGauge(pool_b + ".live")->value(), live_b) << "pool B leaked sessions";
}

TEST(ZeroAllocTest, TimerRearmChurnAndResetReuseAllocateNothing) {
  // The intrusive-handle guarantee in isolation: perpetual re-arming timers
  // migrating wheel -> heap -> dispatch, and handle reuse across Reset(),
  // never allocate once the loop's arenas are warm.
  struct Tick {
    EventLoop* loop = nullptr;
    uint64_t rng = 0;
    uint64_t fired = 0;
    TimerHandle handle;
    void Fire() {
      ++fired;
      rng = HashMix64(rng + 1);
      // Spread across wheel levels: anything from 1us to ~80s.
      loop->ScheduleTimerAfter(Micros(1 + static_cast<int64_t>(rng % 80000000ull)), &handle);
    }
  };
  EventLoop loop;
  std::vector<Tick> ticks(64);
  const auto arm_all = [&] {
    for (size_t i = 0; i < ticks.size(); ++i) {
      ticks[i].loop = &loop;
      ticks[i].rng = HashMix64(i * 7919 + 1);
      ticks[i].handle.Bind<&Tick::Fire>(&ticks[i]);
      loop.ScheduleTimerAfter(Micros(static_cast<int64_t>(i) + 1), &ticks[i].handle);
    }
  };
  arm_all();
  loop.RunUntil(SimTime(Seconds(600).micros()));  // warm every tier to high water

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  loop.RunUntil(SimTime(Seconds(1200).micros()));
  // Reset idles every pending handle; re-arming afterwards reuses the same
  // arenas (closure pool, wheel lists, heap vector, timer hash) without growing.
  loop.Reset();
  arm_all();
  loop.RunUntil(SimTime(Seconds(600).micros()));
  g_counting.store(false);

  uint64_t total = 0;
  for (const Tick& t : ticks) {
    total += t.fired;
  }
  EXPECT_GT(total, 2000u);  // the churn really ran
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
}

TEST(ZeroAllocTest, LongPendingClosureKeepsTimerTrafficAllocationFree) {
  // A closure that waits a long time (a punch deadline, a rendezvous
  // timeout) must not make the loop's memory grow with the sequences issued
  // while it waits. A 10 us self-re-arming timer takes ~2M sequences in
  // each counted phase below while an hour-long closure stays pending; the
  // second phase starts with a Reset() that discards the pending closure.
  struct Tick {
    EventLoop* loop = nullptr;
    uint64_t fired = 0;
    TimerHandle handle;
    void Fire() {
      ++fired;
      loop->ScheduleTimerAfter(Micros(10), &handle);
    }
  };
  EventLoop loop;
  Tick tick;
  tick.loop = &loop;
  tick.handle.Bind<&Tick::Fire>(&tick);
  bool closure_fired = false;
  const auto start = [&] {
    loop.ScheduleAfter(Seconds(3600), [&closure_fired] { closure_fired = true; });
    loop.ScheduleTimerAfter(Micros(10), &tick.handle);
  };
  start();
  loop.RunUntil(SimTime(Seconds(1).micros()));  // warm every arena

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  uint64_t fired_before = tick.fired;
  loop.RunUntil(SimTime(Seconds(20).micros()));
  g_counting.store(false);
  EXPECT_EQ(tick.fired - fired_before, 1'900'000u);
  EXPECT_FALSE(closure_fired);
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  loop.Reset();  // with the closure still pending
  start();
  loop.RunUntil(SimTime(Seconds(1).micros()));
  fired_before = tick.fired;
  loop.RunUntil(SimTime(Seconds(20).micros()));
  g_counting.store(false);
  EXPECT_EQ(tick.fired - fired_before, 1'900'000u);
  EXPECT_FALSE(closure_fired);
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
}

std::vector<Endpoint> ShardEndpoints(uint32_t n) {
  std::vector<Endpoint> eps;
  for (uint32_t i = 0; i < n; ++i) {
    eps.emplace_back(Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + i)),
                     kServerPort);
  }
  return eps;
}

TEST(ZeroAllocTest, ShardRingCopiesAndLookupsAllocateNothing) {
  // Every sharded client holds a copy of the ring, and every forward and
  // replication asks it for an owner: a copy shares the ring's state, and
  // a lookup is a binary search over it.
  const ShardRing ring(ShardEndpoints(4));
  uint32_t owners = 0;
  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  {
    const ShardRing copy = ring;
    ShardRing assigned;
    assigned = copy;
    for (uint64_t id = 1; id <= 1000; ++id) {
      for (uint32_t n = 0; n < 4; ++n) {
        owners += assigned.NthOwner(id, n);
      }
    }
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
  EXPECT_EQ(owners, 1000u * (0 + 1 + 2 + 3));  // each ladder is a permutation
}

TEST(ZeroAllocTest, SlabBytesGaugeRecordsWithoutAllocating) {
  // A pool's only allocations are its chunks: growing a metered pool to a
  // swarm puncher's 1,563 sessions allocates once per chunk, and
  // mem.<pool>.bytes then reads every byte those chunks hold. The chunk
  // size is UdpHolePuncher's.
  obs::MetricsRegistry registry;
  Slab<UdpP2pSession, 64> pool;
  pool.AttachMetrics(&registry, "udp_sessions.test");  // registration may allocate
  const obs::Gauge* bytes = registry.FindGauge("mem.udp_sessions.test.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value(), 0);
  std::vector<UdpP2pSession*> sessions;
  sessions.reserve(1563);

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1563; ++i) {
    sessions.push_back(pool.New(nullptr));
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), pool.slab_count()) << DescribeSamples();
  EXPECT_EQ(pool.slab_count(), 31u);
  EXPECT_EQ(pool.capacity(), 1600u);  // 1 + 1 + 2 + ... + 64, then 64-slot chunks
  EXPECT_EQ(bytes->value(), static_cast<int64_t>(pool.bytes()));
  EXPECT_EQ(pool.bytes(),
            pool.slab_count() * 16 + pool.capacity() * sizeof(UdpP2pSession));
  for (UdpP2pSession* session : sessions) {
    pool.Delete(session);
  }
}

// Counts what it receives and keeps nothing.
class CountingNode : public Node {
 public:
  CountingNode(Network* net, std::string name) : Node(net, std::move(name)) {}
  void HandlePacket(int, Packet&&) override { ++received; }
  size_t received = 0;
};

// Sends `n` empty packets from `from` to `to`, all at once, and runs the
// network until they have all arrived.
void SendBurst(Network& net, Node* from, Ipv4Address to, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Packet p;
    p.set_dst(Endpoint(to, 9));
    from->SendPacket(std::move(p));
  }
  net.RunUntilIdle();
}

TEST(ZeroAllocTest, BurstOnAnotherLanReusesTheDeliveryPool) {
  // Every Lan parks its in-flight packets in its Network's one delivery
  // pool, so a burst on a Lan that never carried one reuses the slots that
  // bursts on another Lan grew: no per-Lan storage warms up again.
  constexpr size_t kBurst = 1000;
  // The pool grows a 64-slot chunk at a time, so the first bursts leave 16
  // chunks: room for 1,024. The counted burst fills that room, its last 24
  // packets in slots no packet has used yet.
  constexpr size_t kCapacity = 1024;
  Network net(1);
  const obs::MetricsRegistry* reg = net.EnableMetrics();  // gauges record too
  Lan* first = net.CreateLan("first", LanConfig{.latency = Millis(1)});
  Lan* second = net.CreateLan("second", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<CountingNode>("a");
  auto* b = net.Create<CountingNode>("b");
  auto* c = net.Create<CountingNode>("c");
  auto* d = net.Create<CountingNode>("d");
  a->AttachTo(first, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(first, Ipv4Address::FromOctets(10, 0, 0, 2));
  c->AttachTo(second, Ipv4Address::FromOctets(10, 0, 1, 1));
  d->AttachTo(second, Ipv4Address::FromOctets(10, 0, 1, 2));
  SendBurst(net, a, Ipv4Address::FromOctets(10, 0, 0, 2), kBurst);
  SendBurst(net, a, Ipv4Address::FromOctets(10, 0, 0, 2), kBurst);

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  SendBurst(net, c, Ipv4Address::FromOctets(10, 0, 1, 2), kCapacity);
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
  EXPECT_EQ(b->received, 2 * kBurst);
  EXPECT_EQ(d->received, kCapacity);
  const obs::Gauge* live = reg->FindGauge("mem.deliveries.live");
  const obs::Gauge* peak = reg->FindGauge("mem.deliveries.peak");
  const obs::Gauge* bytes = reg->FindGauge("mem.deliveries.bytes");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(peak, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(live->value(), 0);
  EXPECT_EQ(peak->value(), static_cast<int64_t>(kCapacity));
  EXPECT_EQ(bytes->value(), static_cast<int64_t>(kCapacity * sizeof(PendingDelivery)));
}

TEST(ZeroAllocTest, DeliveryPoolGrowsWithoutCopying) {
  // The pool grows by adding a chunk and moves no slot, so a cold Network
  // that takes 5,000 packets in flight asks operator new for its final
  // chunks and the table that points at them, and for no outgrown copy.
  constexpr size_t kInFlight = 5000;
  const Ipv4Address to = Ipv4Address::FromOctets(10, 0, 0, 2);
  Network net(1);
  const obs::MetricsRegistry* reg = net.EnableMetrics();
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
  auto* from = net.Create<CountingNode>("from");
  auto* sink = net.Create<CountingNode>("sink");
  from->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  sink->AttachTo(lan, to);
  const obs::Gauge* peak = reg->FindGauge("mem.deliveries.peak");
  const obs::Gauge* bytes = reg->FindGauge("mem.deliveries.bytes");
  ASSERT_NE(peak, nullptr);
  ASSERT_NE(bytes, nullptr);
  ASSERT_EQ(bytes->value(), 0);

  g_allocs.store(0);
  g_alloc_bytes.store(0);
  g_samples.store(0);
  g_counting.store(true);
  SendBurst(net, from, to, kInFlight);
  g_counting.store(false);

  EXPECT_EQ(sink->received, kInFlight);
  EXPECT_EQ(peak->value(), static_cast<int64_t>(kInFlight));
  const size_t chunk_bytes = DeliveryPool::kChunkSlots * sizeof(PendingDelivery);
  const auto chunks = static_cast<size_t>(bytes->value()) / chunk_bytes;
  EXPECT_EQ(chunks, (kInFlight + DeliveryPool::kChunkSlots - 1) / DeliveryPool::kChunkSlots);
  const size_t held = chunks * chunk_bytes + chunks * sizeof(void*);
  EXPECT_GE(g_alloc_bytes.load(), held);
  EXPECT_LE(g_alloc_bytes.load(), held + held / 10)
      << g_allocs.load() << " allocations; " << DescribeSamples();
  // Besides the chunks, only the chunk table, which doubles from one
  // pointer, and the cold event loop's first event slot and heap entry:
  // the Lan's queue timer is the one event armed at a time.
  size_t table_allocs = 1;
  for (size_t capacity = 1; capacity < chunks; capacity *= 2) {
    ++table_allocs;
  }
  EXPECT_EQ(g_allocs.load(), chunks + table_allocs + 2) << DescribeSamples();
}

TEST(ZeroAllocTest, NetworkResetKeepsTheDeliveryPool) {
  // Network::Reset drops every Lan and the deliveries parked for them but
  // keeps the pool's slots, so a reused Network's first burst parks in them
  // rather than growing packet storage again, and the pool's gauges restart
  // with the run: live and peak from zero, bytes at the kept capacity.
  constexpr size_t kBurst = 1000;
  const Ipv4Address to = Ipv4Address::FromOctets(10, 0, 0, 2);
  Network net(1);
  const obs::MetricsRegistry* reg = net.EnableMetrics();  // gauges record too
  CountingNode* sink = nullptr;
  const auto build = [&] {
    Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
    auto* from = net.Create<CountingNode>("from");
    sink = net.Create<CountingNode>("sink");
    from->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
    sink->AttachTo(lan, to);
    return from;
  };
  SendBurst(net, build(), to, 2 * kBurst);
  EXPECT_EQ(sink->received, 2 * kBurst);
  net.Reset(1);
  const obs::Gauge* bytes = reg->FindGauge("mem.deliveries.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value(), static_cast<int64_t>(2048 * sizeof(PendingDelivery)));
  Node* from = build();

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  SendBurst(net, from, to, kBurst);
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u) << DescribeSamples();
  EXPECT_EQ(sink->received, kBurst);
  const obs::Gauge* live = reg->FindGauge("mem.deliveries.live");
  const obs::Gauge* peak = reg->FindGauge("mem.deliveries.peak");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(live->value(), 0);
  EXPECT_EQ(peak->value(), static_cast<int64_t>(kBurst));  // not the first run's
}

TEST(ZeroAllocTest, JumboPayloadsAllocateButStillFlow) {
  // Control: payloads beyond Payload::kInlineCapacity must spill to the
  // heap (the counting hook sees them), proving the zero above is a
  // property of the inline path rather than a dead hook.
  auto topo = MakeFig5(NatConfig{}, NatConfig{});
  Network& net = topo.scenario->net();
  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  size_t b_bytes = 0;
  (*sb)->SetReceiveCallback([&](const Endpoint&, const Payload& p) { b_bytes += p.size(); });
  const Endpoint a_pub(NatAIp(), 62000);
  const Endpoint b_pub(NatBIp(), 62000);
  uint8_t big[Payload::kInlineCapacity + 64] = {};
  for (int i = 0; i < 20; ++i) {
    (*sa)->SendTo(b_pub, big, sizeof(big));
    (*sb)->SendTo(a_pub, big, sizeof(big));
    net.RunFor(Millis(100));
  }
  ASSERT_GT(b_bytes, 0u);

  g_allocs.store(0);
  g_samples.store(0);
  g_counting.store(true);
  (*sa)->SendTo(b_pub, big, sizeof(big));
  net.RunFor(Millis(100));
  g_counting.store(false);
  EXPECT_GT(g_allocs.load(), 0u);
}

// Heap bytes in use: chunks from the main arena plus mmapped ones. glibc
// raises its mmap threshold when a large chunk is freed, so whether a large
// vector is mmapped depends on what the process freed before; counting both
// makes the figure independent of the tests that ran earlier.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(FootprintTest, IdleShardedPeerStaysUnder4KiB) {
  // The per-peer heap budget, for one host per peer. 1,024 peers, 16 behind
  // each of 64 default NATs, each registered with a 4-shard rendezvous tier
  // with keepalives on, and holding a puncher and a session manager with a
  // TURN server to fall back on: churn's stack before its first
  // introduction. The figure is all the heap the run holds after 3
  // simulated seconds (world, shards, TURN server and peers) over the peer
  // count.
  constexpr int kNats = 64;
  constexpr int kHostsPerNat = 16;
  constexpr size_t kPeers = kNats * kHostsPerNat;
  constexpr size_t kBudgetBytes = 4096;

  const size_t heap_before = HeapInUse();
  Scenario scenario;
  const std::vector<Endpoint> shard_eps = ShardEndpoints(4);
  std::vector<std::unique_ptr<RendezvousServer>> shards;
  for (uint32_t i = 0; i < shard_eps.size(); ++i) {
    Host* host = scenario.AddPublicHost("S" + std::to_string(i), shard_eps[i].ip);
    RendezvousServer::Options options;
    options.shard.shards = shard_eps;
    options.shard.index = i;
    shards.push_back(std::make_unique<RendezvousServer>(host, kServerPort, options));
    ASSERT_TRUE(shards.back()->Start().ok());
  }
  TurnServer turn(scenario.AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40)));
  ASSERT_TRUE(turn.Start().ok());
  std::vector<Host*> hosts;
  for (int i = 0; i < kNats; ++i) {
    const NattedSite site = scenario.AddNattedSite(
        "n" + std::to_string(i), NatConfig{},
        Ipv4Address::FromOctets(20, 0, static_cast<uint8_t>(i), 1),
        Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), kHostsPerNat);
    hosts.insert(hosts.end(), site.hosts.begin(), site.hosts.end());
  }

  struct Peer {
    std::unique_ptr<UdpRendezvousClient> client;
    std::unique_ptr<UdpHolePuncher> puncher;
    std::unique_ptr<ResilientSessionManager> manager;
  };
  ResilientSessionConfig resilient;
  resilient.turn_server = turn.endpoint();
  const ShardRing ring(shard_eps);
  std::vector<Peer> peers(kPeers);
  for (size_t i = 0; i < kPeers; ++i) {
    Peer& peer = peers[i];
    peer.client = std::make_unique<UdpRendezvousClient>(hosts[i], ring, i + 1);
    peer.client->Register(4321, [](Result<Endpoint>) {});
    peer.client->StartKeepAlive(Seconds(15));
    peer.puncher = std::make_unique<UdpHolePuncher>(peer.client.get(), UdpPunchConfig{});
    peer.manager = std::make_unique<ResilientSessionManager>(peer.puncher.get(), resilient);
  }
  scenario.net().RunFor(Seconds(3));
  for (const Peer& peer : peers) {
    ASSERT_TRUE(peer.client->registered()) << "peer " << peer.client->client_id();
  }

  const size_t per_peer = (HeapInUse() - heap_before) / kPeers;
  EXPECT_LE(per_peer, kBudgetBytes) << "an idle sharded peer costs " << per_peer << " B";
}

}  // namespace
}  // namespace natpunch
