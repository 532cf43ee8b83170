// Swarm-scale steady state: 100k+ punched UDP sessions exchanging jittered
// keepalives and empty-payload data ticks across NATted site pairs. This is
// the macro workload the timing-wheel + intrusive-timer work exists for:
// the measured window is pure steady state — every datagram, keepalive, and
// timer re-arm runs the zero-allocation path (asserted by alloc_test's
// mini-swarm twin of this setup), and the wheel files each of its 200k+
// armed timers once, O(1), in the bucket of its deadline.
//
// Shape: 64 site pairs (a host behind its own cone NAT on each side), every
// pair multiplexing NATPUNCH_SWARM_SESSIONS/64 punched sessions over one
// socket pair — the paper's model of many application sessions riding one
// punched mapping. Sessions are punched with PunchAtEndpoints and
// deterministic nonces (no per-session rendezvous round-trip), so setup
// stays a small fraction of the run.
//
// Every leg runs in a forked child so its peak RSS (getrusage ru_maxrss,
// which is monotone per-process) measures that leg alone — previously the
// second leg's "peak RSS" included the first leg's population, which
// masqueraded as a sharded-tier memory regression.
//
// Legs (each emits a BENCH_JSON line):
//
//   swarm_steady_state          one standalone rendezvous server (unchanged
//                               baseline workload)
//   swarm_steady_state_sharded  a 4-shard rendezvous tier: clients hash to
//                               their home shard, registrations replicate to
//                               the ring successor, and rendezvous
//                               keepalives keep the failover machinery armed
//                               through the measured window
//   swarm_memory_{100k,500k,1m} memory-scaling sweep (only when
//                               NATPUNCH_SWARM_SCALING is set): unsharded
//                               legs at fixed populations with a short
//                               measured window, tracking how
//                               bytes_per_session holds as the population
//                               grows 10x
//
// The sharded leg exists to prove the tier costs nothing at steady state:
// its events/s must stay within the regression threshold of the one-shard
// baseline, and its bytes/session within bench_compare's (now blocking)
// RSS ceiling, since punched sessions never touch the servers after setup.
//
// Reported per leg: events/s over the measured window, sessions, peak RSS,
// and bytes/session (peak RSS divided by the session population — a coarse
// but machine-stable memory-per-session figure that bench_compare gates).
// With NATPUNCH_SWARM_METRICS set the scenario's metrics registry is
// enabled and — combined with NATPUNCH_OBS_DIR — each leg writes a full
// metrics snapshot artifact, including the mem.<pool>.* gauges (slabs and
// the delivery pool) that scripts/memprof.sh turns into a per-pool bytes
// breakdown.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/obs/json_export.h"

namespace natpunch {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  const uint64_t parsed = std::strtoull(value, nullptr, 10);
  return parsed > 0 ? parsed : fallback;
}

struct SwarmSide {
  Host* host = nullptr;
  uint64_t client_id = 0;
  std::unique_ptr<UdpRendezvousClient> client;
  std::unique_ptr<UdpHolePuncher> puncher;
  Endpoint public_ep;
};

struct LegSpec {
  const char* bench_name;
  const char* title;
  uint64_t shards = 1;
  uint64_t sessions = 0;  // 0 = NATPUNCH_SWARM_SESSIONS (default 100k)
  int warmup_ticks = 5;
  int measured_ticks = 10;
};

int RunLeg(const LegSpec& spec) {
  const uint64_t target_sessions =
      spec.sessions > 0 ? spec.sessions : EnvU64("NATPUNCH_SWARM_SESSIONS", 100000);
  constexpr uint64_t pairs = 64;
  const uint64_t per_pair = (target_sessions + pairs - 1) / pairs;
  const uint64_t total = pairs * per_pair;
  const uint64_t shards = spec.shards;

  Scenario::Options options;
  options.seed = 42;
  options.metrics = std::getenv("NATPUNCH_SWARM_METRICS") != nullptr;
  Scenario scenario(options);
  Network& net = scenario.net();

  // The rendezvous side: one standalone server for the baseline leg, a
  // consistent-hash shard tier for the sharded leg.
  std::vector<Endpoint> shard_eps;
  std::vector<std::unique_ptr<RendezvousServer>> servers;
  if (shards <= 1) {
    Host* server_host = scenario.AddPublicHost("S", ServerIp());
    servers.push_back(std::make_unique<RendezvousServer>(server_host, kServerPort));
    shard_eps.push_back(servers.back()->endpoint());
  } else {
    for (uint64_t i = 0; i < shards; ++i) {
      Host* host = scenario.AddPublicHost(
          "S" + std::to_string(i),
          Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + i)));
      RendezvousServer::Options so;
      for (uint64_t j = 0; j < shards; ++j) {
        so.shard.shards.emplace_back(
            Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + j)), kServerPort);
      }
      so.shard.index = static_cast<uint32_t>(i);
      shard_eps = so.shard.shards;
      servers.push_back(std::make_unique<RendezvousServer>(host, kServerPort, std::move(so)));
    }
  }
  for (auto& server : servers) {
    if (!server->Start().ok()) {
      std::fprintf(stderr, "rendezvous server failed to start\n");
      return 1;
    }
  }
  const ShardRing ring(shard_eps);

  // The swarm configuration: keepalives on a jittered cadence (the
  // thundering-herd countermeasure this bench exists to exercise), expiry
  // far beyond the run so 2x100k expiry timers park in the wheel's ring
  // laps ahead, and no private-endpoint probing (candidate realms are
  // disjoint).
  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(5);
  punch.keepalive_jitter = Seconds(1);
  punch.session_expiry = Seconds(300);
  punch.try_private_endpoint = false;

  std::vector<SwarmSide> side_a(pairs);
  std::vector<SwarmSide> side_b(pairs);
  const Ipv4Prefix private_prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24);
  for (uint64_t p = 0; p < pairs; ++p) {
    const uint8_t hi = static_cast<uint8_t>(p >> 8);
    const uint8_t lo = static_cast<uint8_t>(p & 0xff);
    NattedSite site_a = scenario.AddNattedSite("a" + std::to_string(p), NatConfig{},
                                               Ipv4Address::FromOctets(20, hi, lo, 1),
                                               private_prefix, 1);
    NattedSite site_b = scenario.AddNattedSite("b" + std::to_string(p), NatConfig{},
                                               Ipv4Address::FromOctets(21, hi, lo, 1),
                                               private_prefix, 1);
    side_a[p].host = site_a.host(0);
    side_b[p].host = site_b.host(0);
    side_a[p].client_id = 1000 + p;
    side_b[p].client_id = 1000000 + p;
    for (SwarmSide* side : {&side_a[p], &side_b[p]}) {
      side->client =
          shards <= 1
              ? std::make_unique<UdpRendezvousClient>(side->host, shard_eps[0], side->client_id)
              : std::make_unique<UdpRendezvousClient>(side->host, ring, side->client_id);
      side->client->Register(4321, [side](Result<Endpoint> r) {
        if (r.ok()) {
          side->public_ep = *r;
        }
      });
      if (shards > 1) {
        // Keep the shard tier live through the measured window: acked
        // keepalives are what arm (and would trigger) the failover ladder.
        side->client->StartKeepAlive(Seconds(5));
      }
      side->puncher = std::make_unique<UdpHolePuncher>(side->client.get(), punch);
    }
  }
  net.RunFor(Seconds(3));
  for (uint64_t p = 0; p < pairs; ++p) {
    if (side_a[p].public_ep.IsUnspecified() || side_b[p].public_ep.IsUnspecified()) {
      std::fprintf(stderr, "pair %llu failed to register\n",
                   static_cast<unsigned long long>(p));
      return 1;
    }
  }

  // Punch the whole population: both sides of a pair arm the same
  // deterministic nonce and probe each other's registered public endpoint.
  // The passive (null-cb) side delivers through the incoming-session
  // callback. Pairs are staggered far enough apart that one pair's punches
  // complete (a couple of simulated RTTs) before the next pair arms: a real
  // swarm ramps up over time, it does not arm 200k simultaneous attempts —
  // and the bench's peak-RSS figure should measure the steady-state
  // population, not an artificial all-at-once setup transient (each live
  // attempt carries a map node, candidate vector, and two armed closure
  // events until it resolves).
  std::vector<UdpP2pSession*> initiator;
  std::vector<UdpP2pSession*> responder;
  initiator.reserve(total);
  responder.reserve(total);
  for (uint64_t p = 0; p < pairs; ++p) {
    side_b[p].puncher->SetIncomingSessionCallback(
        [&responder](UdpP2pSession* s) { responder.push_back(s); });
    for (uint64_t s = 0; s < per_pair; ++s) {
      const uint64_t nonce = ((p + 1) << 32) | (s + 1);
      side_b[p].puncher->PunchAtEndpoints(side_a[p].client_id, nonce, side_a[p].public_ep,
                                          Endpoint{}, nullptr);
      side_a[p].puncher->PunchAtEndpoints(
          side_b[p].client_id, nonce, side_b[p].public_ep, Endpoint{},
          [&initiator](Result<UdpP2pSession*> r) {
            if (r.ok()) {
              initiator.push_back(*r);
            }
          });
    }
    net.RunFor(Millis(250));
  }
  net.RunFor(Seconds(3));
  if (initiator.size() != total || responder.size() != total) {
    std::fprintf(stderr, "punch shortfall: %zu initiator / %zu responder of %llu\n",
                 initiator.size(), responder.size(), static_cast<unsigned long long>(total));
    return 1;
  }

  // One steady-state tick: every session sends one inline (empty-payload,
  // 20-byte frame) datagram across a second of simulated time, plus
  // whatever jittered keepalives land in the window. Sends are spread over
  // the second in batches — independent application sessions do not
  // synchronize their sends to one sim instant, and an all-at-once burst
  // would park the whole population's packets in the LAN in-flight pools
  // simultaneously, permanently growing their high-water capacity and
  // polluting the bytes/session figure with burst artifacts.
  constexpr int kSendBatches = 8;
  const auto tick = [&] {
    const uint64_t batch = (total + kSendBatches - 1) / kSendBatches;
    for (int b = 0; b < kSendBatches; ++b) {
      const uint64_t begin = static_cast<uint64_t>(b) * batch;
      const uint64_t end = std::min<uint64_t>(total, begin + batch);
      for (uint64_t i = begin; i < end; ++i) {
        initiator[i]->Send(Bytes{});
        responder[i]->Send(Bytes{});
      }
      net.RunFor(Millis(1000 / kSendBatches));
    }
  };

  for (int i = 0; i < spec.warmup_ticks; ++i) {
    tick();
  }

  uint64_t received_before = 0;
  for (UdpP2pSession* s : initiator) {
    received_before += s->datagrams_received();
  }
  const uint64_t events_before = net.event_loop().events_processed();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < spec.measured_ticks; ++i) {
    tick();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  const uint64_t events = net.event_loop().events_processed() - events_before;

  uint64_t received_after = 0;
  uint64_t still_alive = 0;
  for (UdpP2pSession* s : initiator) {
    received_after += s->datagrams_received();
    still_alive += s->alive() ? 1 : 0;
  }
  if (still_alive != total || received_after <= received_before) {
    std::fprintf(stderr, "steady state broke: %llu alive, %llu datagrams delivered\n",
                 static_cast<unsigned long long>(still_alive),
                 static_cast<unsigned long long>(received_after - received_before));
    return 1;
  }
  // The tier must have stayed healthy: a client that failed over mid-run
  // means a shard stopped acking keepalives under load.
  uint64_t failovers = 0;
  for (const auto& sides : {&side_a, &side_b}) {
    for (const SwarmSide& side : *sides) {
      failovers += side.client->failovers();
    }
  }
  if (failovers != 0) {
    std::fprintf(stderr, "spurious shard failovers under steady load: %llu\n",
                 static_cast<unsigned long long>(failovers));
    return 1;
  }

  const double rss_mb = bench::PeakRssMb();
  const double bytes_per_session = rss_mb * 1024.0 * 1024.0 / static_cast<double>(total);
  const double delivered_per_session =
      static_cast<double>(received_after - received_before) / static_cast<double>(total);

  bench::Title(spec.title);
  std::printf("sessions            : %llu (%llu pairs x %llu)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(per_pair));
  std::printf("rendezvous shards   : %llu\n", static_cast<unsigned long long>(shards));
  std::printf("measured window     : %d ticks, %.1f ms wall\n", spec.measured_ticks, wall_ms);
  std::printf("events              : %llu (%.0f/s)\n", static_cast<unsigned long long>(events),
              wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0.0);
  std::printf("delivered/session   : %.1f datagrams\n", delivered_per_session);
  std::printf("peak RSS            : %.1f MiB (%.0f bytes/session)\n", rss_mb,
              bytes_per_session);

  char extra[224];
  std::snprintf(extra, sizeof(extra),
                "\"sessions\":%llu,\"shards\":%llu,\"bytes_per_session\":%.0f,"
                "\"delivered_per_session\":%.1f",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(shards), bytes_per_session,
                delivered_per_session);
  bench::JsonSummary(spec.bench_name, wall_ms, events, extra);
  if (net.metrics() != nullptr) {
    bench::WriteObsArtifacts(spec.bench_name, obs::MetricsJson(*net.metrics()));
  }
  return 0;
}

// Run the leg in a forked child so getrusage(RUSAGE_SELF).ru_maxrss — which
// is monotone for the life of a process — reflects this leg only, not the
// high-water mark of whichever earlier leg was hungriest.
int RunLegForked(const LegSpec& spec) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    // Can't isolate; still produce the numbers.
    return RunLeg(spec);
  }
  if (pid == 0) {
    const int rc = RunLeg(spec);
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(rc);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::fprintf(stderr, "waitpid failed for leg %s\n", spec.bench_name);
    return 1;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "leg %s failed (status %d)\n", spec.bench_name, status);
    return 1;
  }
  return 0;
}

int Run() {
  std::vector<LegSpec> legs = {
      {"swarm_steady_state", "Swarm steady state", 1},
      {"swarm_steady_state_sharded", "Swarm steady state (sharded tier)", 4},
  };
  if (std::getenv("NATPUNCH_SWARM_SCALING") != nullptr) {
    // Memory-scaling sweep: what matters is bytes/session at each
    // population, not throughput, so the measured window is short.
    legs.push_back({"swarm_memory_100k", "Swarm memory (100k sessions)", 1, 100000, 2, 3});
    legs.push_back({"swarm_memory_500k", "Swarm memory (500k sessions)", 1, 500000, 2, 3});
    legs.push_back({"swarm_memory_1m", "Swarm memory (1M sessions)", 1, 1000000, 2, 3});
  }
  for (const LegSpec& leg : legs) {
    const int rc = RunLegForked(leg);
    if (rc != 0) {
      return rc;
    }
  }
  return 0;
}

}  // namespace
}  // namespace natpunch

int main() { return natpunch::Run(); }
