// Micro-benchmarks (google-benchmark): throughput of the substrate itself —
// event loop, NAT translation, TCP bulk transfer, and end-to-end hole punch
// cost in host time. These guard the simulator's own performance, which
// bounds how large a fleet experiment is practical.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/common.h"
#include "src/nat/nat_table.h"

namespace natpunch {
namespace {

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAt(SimTime(i), [&sink] { ++sink; });
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

// The retransmit-timer pattern that dominates TCP runs: schedule a deadline,
// then cancel it before it fires (the ACK arrived). Exercises the lazy-
// cancellation path where tombstoned heap entries pile up behind live ones.
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto doomed = loop.ScheduleAt(SimTime(1000 + i), [&sink] { ++sink; });
      loop.ScheduleAt(SimTime(i), [&sink] { ++sink; });
      loop.Cancel(doomed);
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventLoopScheduleCancel);

// Steady-state churn: a bounded window of pending events with interleaved
// fire/schedule, the shape the per-packet delivery path produces.
void BM_EventLoopSteadyChurn(benchmark::State& state) {
  EventLoop loop;
  int64_t t = 0;
  for (int i = 0; i < 64; ++i) {
    loop.ScheduleAt(SimTime(++t), [] {});
  }
  for (auto _ : state) {
    loop.ScheduleAt(SimTime(++t), [] {});
    loop.RunOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopSteadyChurn);

// The in-order channel pattern (Lan::DeliverQueued, a self-re-arming
// keepalive): one TimerHandle re-arms itself 1 us ahead from its own
// callback while 1,024 closures wait far ahead in the heap, so every
// dispatch fires the timer at the heap top and pushes its next key.
struct SelfRearmingTimer {
  EventLoop* loop = nullptr;
  TimerHandle handle;
  void Fire() { loop->ScheduleTimerAfter(Micros(1), &handle); }
};

void BM_EventLoopTimerChannel(benchmark::State& state) {
  EventLoop loop;
  for (int i = 0; i < 1024; ++i) {
    loop.ScheduleAt(SimTime() + Seconds(3600) + Micros(i), [] {});
  }
  SelfRearmingTimer timer;
  timer.loop = &loop;
  timer.handle.Bind<&SelfRearmingTimer::Fire>(&timer);
  loop.ScheduleTimerAfter(Micros(1), &timer.handle);
  for (auto _ : state) {
    loop.RunOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopTimerChannel);

void BM_NatTableMapOutbound(benchmark::State& state) {
  NatTable table(NatMapping::kAddressAndPortDependent, NatPortAllocation::kSequential, 62000,
                 Rng(1));
  const Endpoint priv(Ipv4Address::FromOctets(10, 0, 0, 1), 4321);
  uint16_t port = 1;
  for (auto _ : state) {
    auto* entry = table.MapOutbound(IpProtocol::kUdp, priv,
                                    Endpoint(Ipv4Address::FromOctets(18, 0, 0, 1), port),
                                    SimTime());
    benchmark::DoNotOptimize(entry);
    port = static_cast<uint16_t>(port % 2000 + 1);  // bounded table size
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NatTableMapOutbound);

void BM_UdpPunchEndToEnd(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    auto env = bench::UdpPunchEnv::Make(NatConfig{}, NatConfig{}, seed++);
    auto outcome = env.Punch();
    if (!outcome.success) {
      state.SkipWithError("punch failed");
      return;
    }
  }
}
BENCHMARK(BM_UdpPunchEndToEnd)->Unit(benchmark::kMillisecond);

void BM_TcpPunchEndToEnd(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    auto env = bench::TcpPunchEnv::Make(NatConfig{}, NatConfig{}, seed++);
    auto outcome = env.Punch();
    if (!outcome.success) {
      state.SkipWithError("punch failed");
      return;
    }
  }
}
BENCHMARK(BM_TcpPunchEndToEnd)->Unit(benchmark::kMillisecond);

void BM_TcpBulkTransfer(benchmark::State& state) {
  const size_t kBytes = static_cast<size_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    Network net(seed++);
    Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
    Host* a = net.Create<Host>("a");
    Host* b = net.Create<Host>("b");
    a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
    b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
    TcpSocket* listener = b->tcp().CreateSocket();
    listener->Bind(7000);
    size_t received = 0;
    listener->Listen([&](TcpSocket* s) {
      s->SetDataCallback([&](const Bytes& d) { received += d.size(); });
    });
    TcpSocket* client = a->tcp().CreateSocket();
    client->Connect(Endpoint(b->primary_address(), 7000), [&](Status s) {
      if (s.ok()) {
        client->Send(Bytes(kBytes, 0x42));
      }
    });
    net.RunFor(Seconds(30));
    if (received != kBytes) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kBytes));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(64 * 1024)->Arg(1024 * 1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace natpunch

// Custom main: run the google-benchmark suite, then emit the one-line JSON
// summary (BENCH_JSON) used to record per-PR trajectories. The summary
// measures raw event-loop throughput directly so it stays comparable even
// if the google-benchmark suite changes shape.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  using namespace natpunch;
  constexpr uint64_t kEvents = 2'000'000;
  EventLoop loop;
  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t batch = 0; batch < kEvents / 1000; ++batch) {
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAfter(Micros(i), [&sink] { ++sink; });
    }
    loop.RunUntilIdle();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (sink != kEvents) {
    std::fprintf(stderr, "event count mismatch: %llu\n",
                 static_cast<unsigned long long>(sink));
    return 1;
  }
  bench::JsonSummary("micro_event_loop", wall_ms, kEvents);
  return 0;
}
