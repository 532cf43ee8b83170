// Chaos soak: Fig. 5 pairs under randomized-but-seeded fault schedules.
//
// Each trial builds a live hole-punched (or relay-fallback) session wrapped
// in ResilientSession, draws a fault plan from the trial seed — NAT reboots,
// rendezvous restarts, burst-loss windows, latency spikes, LAN partitions —
// and pumps application traffic throughout. Reported per PR trajectory:
// availability (delivered / attempted datagrams), the recovery-time
// distribution (p50/p95 of death-to-data-restored), and the relay-fallback
// rate. Because every stochastic choice is seeded, any trial here can be
// replayed bit-for-bit by seed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/common.h"
#include "src/core/resilient_session.h"
#include "src/core/turn.h"
#include "src/netsim/fault.h"
#include "src/obs/chrome_trace.h"
#include "src/util/rng.h"

using namespace natpunch;

namespace {

constexpr int kTrials = 12;
constexpr int64_t kSoakSeconds = 90;

struct TrialResult {
  uint64_t seed = 0;
  bool symmetric = false;
  size_t faults = 0;
  int attempted = 0;
  int delivered = 0;
  std::vector<double> recovery_ms;
  int64_t downtime_ms = 0;
  bool on_relay = false;
  bool failed = false;
  uint64_t events = 0;
};

const char* PathName(const TrialResult& t) {
  if (t.failed) {
    return "FAILED";
  }
  return t.on_relay ? "relay" : "direct";
}

// One soak. `symmetric` pairs are structurally unpunchable (§5), so they
// exercise the TURN fallback; cone pairs exercise re-punch recovery. When
// `metrics_json` / `trace_json` are non-null the trial runs instrumented and
// exports its registry snapshot and Chrome-trace timeline (the CI artifact).
TrialResult RunTrial(uint64_t seed, bool symmetric, std::string* metrics_json = nullptr,
                     std::string* trace_json = nullptr) {
  TrialResult out;
  out.seed = seed;
  out.symmetric = symmetric;

  NatConfig nat;
  if (symmetric) {
    nat.mapping = NatMapping::kAddressAndPortDependent;
    nat.filtering = NatFiltering::kAddressAndPortDependent;
    nat.port_allocation = NatPortAllocation::kRandom;
  }
  Scenario::Options options;
  options.seed = seed;
  options.metrics = metrics_json != nullptr;
  Fig5Topology topo = MakeFig5(nat, nat, options);
  Network& net = topo.scenario->net();
  if (trace_json != nullptr) {
    net.trace().set_enabled(true);
  }

  Host* relay_host = topo.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
  TurnServer turn(relay_host);
  turn.Start();

  RendezvousServer server(topo.server, kServerPort);
  server.Start();
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  ca.StartKeepAlive(Seconds(1));
  cb.StartKeepAlive(Seconds(1));

  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(1);
  punch.session_expiry = Seconds(5);
  punch.punch_timeout = Seconds(3);
  UdpHolePuncher pa(&ca, punch);
  UdpHolePuncher pb(&cb, punch);
  ResilientSessionConfig resilient;
  resilient.max_repunch_attempts = 4;
  resilient.turn_server = turn.endpoint();
  ResilientSessionManager ma(&pa, resilient);
  ResilientSessionManager mb(&pb, resilient);

  mb.SetIncomingSessionCallback([&out](ResilientSession* s) {
    s->SetReceiveCallback([&out](const Bytes&) { ++out.delivered; });
  });
  ResilientSession* session = nullptr;
  net.event_loop().ScheduleAfter(Seconds(2), [&] {
    ma.ConnectToPeer(2, [&](Result<ResilientSession*> r) {
      if (r.ok()) {
        session = *r;
      }
    });
  });
  // Application traffic: one datagram toward B every 500 ms. Sends during an
  // outage are attempts too — that is exactly what availability measures.
  std::function<void()> pump = [&] {
    if (session != nullptr && session->alive()) {
      ++out.attempted;
      session->Send(Bytes{0xAB});
    }
    net.event_loop().ScheduleAfter(Millis(500), pump);
  };
  net.event_loop().ScheduleAfter(Seconds(3), pump);

  // Randomized-but-seeded fault plan: one fault per ~12 s slot, with the
  // slot jittered and the fault kind drawn from the plan rng. Slots are wide
  // enough that a recovery can complete before the next injection.
  Rng plan(seed * 0x9e3779b9u + 7);
  FaultScheduler faults(&net);
  const int kSlots = 6;
  for (int slot = 0; slot < kSlots; ++slot) {
    const SimTime at =
        SimTime() + Seconds(8 + slot * 12) + Millis(plan.NextInRange(0, 3000));
    switch (plan.NextBelow(5)) {
      case 0:
        faults.At(at, "nat A reboot", [&topo] { topo.site_a.nat->Reboot(); });
        break;
      case 1:
        faults.At(at, "nat B reboot", [&topo] { topo.site_b.nat->Reboot(); });
        break;
      case 2:
        faults.At(at, "rendezvous restart", [&server] {
          server.Stop();
          server.Start();
        });
        break;
      case 3: {
        GilbertElliottConfig burst;
        burst.enabled = true;
        burst.p_good_to_bad = 0.05;
        burst.p_bad_to_good = 0.3;
        burst.loss_bad = 0.9;
        faults.BurstLoss(at, topo.scenario->internet(), burst, Seconds(3));
        break;
      }
      default:
        faults.LatencySpike(at, topo.scenario->internet(), Millis(150), Seconds(3));
        break;
    }
  }
  // Always one short partition, shorter than the session expiry: it should
  // be absorbed, not trigger a recovery.
  faults.LinkDown(SimTime() + Seconds(82), topo.site_b.lan, Seconds(2));

  net.RunFor(Seconds(kSoakSeconds));

  out.faults = faults.faults_executed();
  out.events = net.event_loop().events_processed();
  if (metrics_json != nullptr) {
    *metrics_json = obs::MetricsJson(*net.metrics());
  }
  if (trace_json != nullptr) {
    *trace_json = obs::ChromeTraceJson(net.trace(), "chaos soak");
  }
  if (session == nullptr) {
    out.failed = true;
    return out;
  }
  out.failed = !session->alive();
  out.on_relay = session->path() == ResilientSession::Path::kRelay;
  out.downtime_ms = session->total_downtime().micros() / 1000;
  for (const auto& rec : session->recoveries()) {
    out.recovery_ms.push_back(rec.downtime.micros() / 1000.0);
  }
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main() {
  bench::Title("Chaos soak: availability and recovery under seeded fault schedules");

  std::printf("%d trials x %llds sim each; faults drawn per-seed from {NAT reboot,\n"
              "rendezvous restart, burst loss, latency spike} + one short partition.\n"
              "Trials 9+ use symmetric NATs on both sides (relay-fallback territory).\n\n",
              kTrials, static_cast<long long>(kSoakSeconds));
  std::printf("%-6s %-6s %-7s %-14s %-11s %-12s %-8s\n", "seed", "nats", "faults",
              "delivered", "recoveries", "downtime ms", "path");

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<TrialResult> trials;
  std::vector<double> all_recovery_ms;
  uint64_t events = 0;
  int attempted = 0;
  int delivered = 0;
  int relay_endings = 0;
  int failures = 0;
  for (int i = 0; i < kTrials; ++i) {
    const bool symmetric = i >= kTrials - 3;
    TrialResult t = RunTrial(9000 + static_cast<uint64_t>(i), symmetric);
    std::printf("%-6llu %-6s %-7zu %-14s %-11zu %-12lld %-8s\n",
                static_cast<unsigned long long>(t.seed), t.symmetric ? "sym" : "cone", t.faults,
                bench::Pct(t.delivered, t.attempted).c_str(), t.recovery_ms.size(),
                static_cast<long long>(t.downtime_ms), PathName(t));
    events += t.events;
    attempted += t.attempted;
    delivered += t.delivered;
    relay_endings += t.on_relay ? 1 : 0;
    failures += t.failed ? 1 : 0;
    all_recovery_ms.insert(all_recovery_ms.end(), t.recovery_ms.begin(), t.recovery_ms.end());
    trials.push_back(std::move(t));
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  // Replay the final (symmetric) trial instrumented, OUTSIDE the timed
  // region: trace recording and JSON serialization roughly double a trial's
  // wall time, and the perf gate should measure the simulator, not the
  // exporters. The replay's registry snapshot rides the BENCH_JSON line and
  // its timeline becomes the Perfetto CI artifact.
  std::string metrics_json;
  std::string trace_json;
  RunTrial(9000 + static_cast<uint64_t>(kTrials - 1), /*symmetric=*/true, &metrics_json,
           &trace_json);

  const double availability =
      attempted > 0 ? 100.0 * static_cast<double>(delivered) / attempted : 0;
  const double p50 = Percentile(all_recovery_ms, 0.50);
  const double p95 = Percentile(all_recovery_ms, 0.95);
  const double fallback_rate = static_cast<double>(relay_endings) / kTrials;

  std::printf("\navailability: %.1f%% (%d/%d datagrams delivered across all trials)\n",
              availability, delivered, attempted);
  std::printf("recoveries:   %zu total; downtime p50 %.0f ms, p95 %.0f ms\n",
              all_recovery_ms.size(), p50, p95);
  std::printf("relay fallback: %d/%d trials ended on the relay path; %d failed outright\n",
              relay_endings, kTrials, failures);
  std::printf("\n * cone pairs re-punch their way through NAT reboots: downtime is one\n"
              "   backoff step plus a punch round-trip, and the trial ends direct.\n"
              " * symmetric pairs cannot punch (§5) and land on TURN. A NAT reboot\n"
              "   while relayed orphans the allocation; the adaptive relay-leg\n"
              "   watchdog (2 keepalive rounds + margin*srtt of silence, not the\n"
              "   static relay_timeout) notices and rebuilds the leg with a fresh\n"
              "   allocation, so delivery resumes instead of flatlining — these\n"
              "   detections dominate the p95.\n"
              " * the 2 s partition is absorbed: shorter than the 5 s session expiry,\n"
              "   so it costs delivery, not a recovery.\n");

  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"trials\":%d,\"availability\":%.2f,\"recoveries\":%zu,"
                "\"recovery_p50_ms\":%.1f,\"recovery_p95_ms\":%.1f,"
                "\"relay_fallback_rate\":%.3f,\"failed_trials\":%d",
                kTrials, availability, all_recovery_ms.size(), p50, p95, fallback_rate, failures);
  std::printf("\n");
  bench::JsonSummary("chaos", wall_ms, events, extra, &metrics_json);
  bench::WriteObsArtifacts("chaos", metrics_json, &trace_json);
  return 0;
}
