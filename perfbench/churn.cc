// churn: introductions arriving as a seeded Poisson process (open loop in
// simulated time) between random unconnected pairs of ~4k peers behind 256
// NATs drawn from the paper's Table 1 mix, through a 4-shard rendezvous tier
// and ResilientSessionManager::ConnectToPeer with TURN fallback, while a
// seeded schedule reboots a different NAT every ~2 simulated seconds.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/resilient_session.h"
#include "src/core/turn.h"
#include "src/fleet/fleet.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace natpunch;

constexpr uint32_t kNats = 256;
constexpr int kHostsPerNat = 16;
constexpr uint32_t kPeers = kNats * kHostsPerNat;
constexpr uint32_t kShards = 4;
constexpr double kIntroRate = 40.0;  // introductions per simulated second
constexpr int64_t kArrivalS = 60;    // introductions arrive in [0, 60 s)
constexpr int64_t kDrainS = 20;      // then none: traffic goes on
constexpr int64_t kQuiesceS = 2;     // last stretch sends nothing, so in-flight data lands
constexpr int kSlicesPerSecond = 8;
constexpr int64_t kRebootSpacingMs = 2000;
// Every keepalive stays below the mix's shortest NAT UDP timeout (30 s).
constexpr SimDuration kRendezvousKeepAlive = Seconds(15);
// A rebooted NAT gives its hosts new public ports, which S learns at each
// host's next rendezvous keepalive. Until then S can answer a host's
// connect request at the old port, and the introduction is refused after
// two 5 s request timeouts (punch, then relay signalling). The application
// retries a refused introduction after kRetryPause, as the paper's
// applications re-run hole punching when they notice a failure. Each NAT
// reboots at most once, so an introduction's last refused attempt starts
// at most one keepalive period after a reboot that came at most one
// attempt after it was due: 11 + 15 + 11 s, plus up to 6 s for the attempt
// that succeeds (punch timeout, then relay set-up), is under the deadline.
// Reboots stop early enough for the same sum to end inside the episode.
constexpr SimDuration kRetryPause = Seconds(1);
constexpr int64_t kDeadlineUs = 45'000'000;
constexpr int64_t kRebootEndS = 44;

struct Peer {
  Host* host = nullptr;
  uint32_t nat = 0;
  std::unique_ptr<UdpRendezvousClient> client;
  std::unique_ptr<UdpHolePuncher> puncher;
  std::unique_ptr<ResilientSessionManager> manager;  // destroyed first
};

struct PlannedIntro {
  int64_t due_us = 0;  // from the start of the window
  uint32_t a = 0;      // initiator peer index
  uint32_t b = 0;
  uint32_t size = 0;   // app payload bytes
};

struct Live {
  ResilientSession* session = nullptr;
  uint32_t size = 0;
};

// Callbacks hold a Churn*; everything they touch is declared before
// `peers`, which is destroyed first.
struct Churn {
  Tracer* tracer = nullptr;
  const Names* names = nullptr;
  std::unique_ptr<Scenario> scenario;
  std::vector<std::unique_ptr<RendezvousServer>> shards;
  std::unique_ptr<TurnServer> turn;
  std::vector<NattedSite> sites;
  std::vector<NatConfig> configs;
  std::vector<Lan*> lans;
  std::vector<Host*> hosts;
  std::vector<PlannedIntro> plan;
  std::vector<Reboot> reboots;  // at_us from the start of the window
  std::vector<IntroRecord> intros;
  std::vector<Live> traffic;
  int64_t window_start_us = 0;
  uint64_t direct = 0, relay = 0, refused = 0, late = 0, probes = 0, delivered = 0;
  uint64_t retries = 0;
  std::vector<Peer> peers;
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

void Plan(Churn& w, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4u);
  // NAT configs: a seeded draw from the Table 1 fleet, stratified so every
  // seed has the fleet's cone share (310/380 -> 209 of 256 NATs). An
  // unstratified draw moves the punchable-pair share by several points
  // from seed to seed.
  std::vector<NatConfig> cone;
  std::vector<NatConfig> symmetric;
  for (const DeviceSpec& device : BuildFleet(PaperTable1Vendors(), seed)) {
    (device.config.IsCone() ? cone : symmetric).push_back(device.config);
  }
  Shuffle(cone, rng);
  Shuffle(symmetric, rng);
  const auto cone_nats = static_cast<size_t>(
      std::lround(kNats * static_cast<double>(cone.size()) / (cone.size() + symmetric.size())));
  w.configs.assign(cone.begin(), cone.begin() + cone_nats);
  w.configs.insert(w.configs.end(), symmetric.begin(), symmetric.begin() + (kNats - cone_nats));
  Shuffle(w.configs, rng);

  // A Poisson process conditioned on its count: kIntroRate * kArrivalS
  // arrival times drawn uniformly over the arrival period, in order.
  std::vector<double> arrivals(static_cast<size_t>(kIntroRate * kArrivalS));
  for (double& t : arrivals) {
    t = rng.NextDouble() * static_cast<double>(kArrivalS);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::set<uint64_t> used;
  for (double t : arrivals) {
    PlannedIntro p;
    uint64_t key = 0;
    do {
      p.a = static_cast<uint32_t>(rng.NextBelow(kPeers));
      p.b = static_cast<uint32_t>(rng.NextBelow(kPeers));
      key = (uint64_t{std::min(p.a, p.b)} << 32) | std::max(p.a, p.b);
    } while (p.a == p.b || used.count(key) > 0);
    used.insert(key);
    p.due_us = static_cast<int64_t>(t * 1e6);
    p.size = static_cast<uint32_t>(rng.NextInRange(16, 1200));
    w.plan.push_back(p);
  }
  // Victims are drawn without replacement: a NAT reboots at most once in an
  // episode (see kDeadlineUs).
  std::vector<uint32_t> victims(kNats);
  for (uint32_t i = 0; i < kNats; ++i) {
    victims[i] = i;
  }
  Shuffle(victims, rng);
  for (int64_t at = kRebootSpacingMs; at < kRebootEndS * 1000; at += kRebootSpacingMs) {
    const int64_t jittered = at + rng.NextInRange(-500, 500);
    w.reboots.push_back({jittered * 1000, victims[w.reboots.size()]});
  }
}

void Build(Churn& w, uint64_t seed, bool metrics, std::vector<std::string>* errors) {
  Tracer& tr = *w.tracer;
  const Names& n = *w.names;
  Scope setup(tr, n.setup, 0);
  Plan(w, seed);
  std::vector<Host*> shard_hosts;
  Host* turn_host = nullptr;
  {
    Scope s(tr, n.scenario_build, 0);
    Scenario::Options options;
    options.seed = seed;
    options.metrics = metrics;
    w.scenario = std::make_unique<Scenario>(options);
    w.lans.push_back(w.scenario->internet());
    for (uint32_t i = 0; i < kShards; ++i) {
      shard_hosts.push_back(w.scenario->AddPublicHost(
          "S" + std::to_string(i), Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + i))));
    }
    turn_host = w.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
    w.hosts = shard_hosts;
    w.hosts.push_back(turn_host);
    // Access-link latency per site, from the seed: connect times then vary
    // with the pair, as they do between real sites.
    Rng latency(seed + 17);
    w.peers.resize(kPeers);
    for (uint32_t i = 0; i < kNats; ++i) {
      NattedSite site = w.scenario->AddNattedSite(
          "n" + std::to_string(i), w.configs[i],
          Ipv4Address::FromOctets(20, static_cast<uint8_t>(i >> 8), static_cast<uint8_t>(i & 0xff), 1),
          Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), kHostsPerNat);
      LanConfig lan = site.lan->config();
      lan.latency = Millis(1 + static_cast<int64_t>(latency.NextBelow(15)));
      site.lan->set_config(lan);
      w.lans.push_back(site.lan);
      for (int h = 0; h < kHostsPerNat; ++h) {
        Peer& peer = w.peers[i * kHostsPerNat + static_cast<uint32_t>(h)];
        peer.host = site.host(static_cast<size_t>(h));
        peer.nat = i;
        w.hosts.push_back(peer.host);
      }
      w.sites.push_back(site);
    }
  }
  {
    Scope s(tr, n.rendezvous_setup, 0);
    std::vector<Endpoint> shard_eps;
    for (Host* host : shard_hosts) {
      shard_eps.emplace_back(host->primary_address(), kServerPort);
    }
    for (uint32_t i = 0; i < kShards; ++i) {
      RendezvousServer::Options so;
      so.shard.shards = shard_eps;
      so.shard.index = i;
      w.shards.push_back(std::make_unique<RendezvousServer>(shard_hosts[i], kServerPort, so));
      if (!w.shards.back()->Start().ok()) {
        errors->push_back("churn: rendezvous shard failed to start");
        return;
      }
    }
    const ShardRing ring(shard_eps);
    for (uint32_t i = 0; i < kPeers; ++i) {
      Peer& peer = w.peers[i];
      peer.client = std::make_unique<UdpRendezvousClient>(peer.host, ring, 1 + i);
      peer.client->Register(4321, [](Result<Endpoint>) {});
      peer.client->StartKeepAlive(kRendezvousKeepAlive);
    }
  }
  {
    Scope s(tr, n.core_setup, 0);
    w.turn = std::make_unique<TurnServer>(turn_host);
    if (!w.turn->Start().ok()) {
      errors->push_back("churn: TURN server failed to start");
      return;
    }
    UdpPunchConfig punch;
    punch.keepalive_interval = Seconds(5);
    punch.keepalive_jitter = Seconds(1);
    punch.session_expiry = Seconds(12);
    punch.punch_timeout = Seconds(5);
    ResilientSessionConfig resilient;
    resilient.turn_server = w.turn->endpoint();
    resilient.relay_keepalive_jitter = Seconds(1);
    Churn* wp = &w;
    for (Peer& peer : w.peers) {
      peer.puncher = std::make_unique<UdpHolePuncher>(peer.client.get(), punch);
      peer.manager = std::make_unique<ResilientSessionManager>(peer.puncher.get(), resilient);
      peer.manager->SetIncomingSessionCallback([wp](ResilientSession* session) {
        session->SetReceiveCallback([wp](const Bytes&) { ++wp->delivered; });
      });
    }
  }
  {
    Scope s(tr, n.netsim_run, 0);
    w.scenario->net().RunFor(Seconds(3));
  }
  for (const Peer& peer : w.peers) {
    if (!peer.client->registered()) {
      errors->push_back("churn: peer " + std::to_string(peer.client->client_id()) +
                        " failed to register");
      return;
    }
  }
}

void StartIntro(Churn& w, size_t i);

void OnConnected(Churn& w, size_t i, Result<ResilientSession*> result) {
  IntroRecord& r = w.intros[i];
  const int64_t now = w.scenario->net().now().micros();
  if (!result.ok() && now + kRetryPause.micros() - r.due_us <= kDeadlineUs) {
    ++w.retries;
    Churn* wp = &w;
    w.scenario->net().event_loop().ScheduleAfter(kRetryPause, [wp, i] { StartIntro(*wp, i); });
    return;
  }
  r.done_us = now;
  r.ok = result.ok();
  if (!r.ok) {
    ++w.refused;
    return;
  }
  ResilientSession* session = *result;
  r.direct = session->path() == ResilientSession::Path::kDirect;
  if (r.done_us - r.due_us > kDeadlineUs) {
    ++w.late;
  } else if (r.direct) {
    ++w.direct;
  } else {
    ++w.relay;
  }
  if (r.direct && session->inner() != nullptr) {
    w.probes += static_cast<uint64_t>(session->inner()->probes_sent());
  }
  w.traffic.push_back({session, w.plan[i].size});
}

void StartIntro(Churn& w, size_t i) {
  const PlannedIntro& p = w.plan[i];
  Scope s(*w.tracer, w.names->core_connect, i);
  Churn* wp = &w;
  w.peers[p.a].manager->ConnectToPeer(
      1 + p.b, [wp, i](Result<ResilientSession*> r) { OnConnected(*wp, i, std::move(r)); });
}

struct Counts {
  uint64_t events = 0, allocs = 0, connect_requests = 0, forwards = 0, unknown_targets = 0;
  uint64_t turn_relayed = 0, flow_hits = 0, flow_misses = 0, mappings_created = 0;
  uint64_t filtered = 0, punch_attempts = 0, punch_successes = 0, fallbacks = 0;
  uint64_t recoveries = 0, relay_losses = 0, sends_dropped = 0;
};

Counts Read(Churn& w) {
  Counts c;
  c.events = w.scenario->net().event_loop().events_processed();
  c.allocs = HeapAllocs();
  for (const auto& shard : w.shards) {
    c.connect_requests += shard->stats().connect_requests;
    c.forwards += shard->stats().forwards;
    c.unknown_targets += shard->stats().unknown_targets;
  }
  c.turn_relayed = w.turn->stats().relayed_to_peer + w.turn->stats().relayed_to_client;
  if (const obs::MetricsRegistry* reg = w.scenario->net().metrics()) {
    c.flow_hits = SumCounters(reg, "nat.", ".flowcache_hits");
    c.flow_misses = SumCounters(reg, "nat.", ".flowcache_misses");
    c.mappings_created = SumCounters(reg, "nat.", ".mappings_created");
    c.filtered = SumCounters(reg, "nat.", ".filtered_drops");
    c.punch_attempts = SumCounters(reg, "punch.attempts", "");
    c.punch_successes = SumCounters(reg, "punch.successes", "");
    c.fallbacks = SumCounters(reg, "resilient.relay_fallbacks", "");
    c.recoveries = SumCounters(reg, "resilient.recoveries", "");
    c.relay_losses = SumCounters(reg, "resilient.relay_losses", "");
    c.sends_dropped = SumCounters(reg, "resilient.sends_dropped", "");
  }
  return c;
}

double PerIntro(uint64_t count, size_t intros) {
  return static_cast<double>(count) / static_cast<double>(std::max<size_t>(1, intros));
}

}  // namespace

Episode RunChurn(uint64_t seed, Tracer& tr) {
  const Names n(tr);
  const bool traced = tr.enabled();
  Episode ep;
  auto w = std::make_unique<Churn>();
  w->tracer = &tr;
  w->names = &n;
  const size_t setup_first = tr.spans().size();
  const auto setup_start = Clock::now();
  Build(*w, seed, traced, &ep.errors);
  ep.setup_s = SecondsSince(setup_start);
  const size_t setup_last = tr.spans().size();
  if (!ep.errors.empty()) {
    return ep;
  }

  Network& net = w->scenario->net();
  w->window_start_us = net.now().micros();
  w->intros.resize(w->plan.size());
  Churn* wp = w.get();
  for (size_t i = 0; i < w->plan.size(); ++i) {
    const PlannedIntro& p = w->plan[i];
    IntroRecord& r = w->intros[i];
    r.due_us = w->window_start_us + p.due_us;
    r.nat_a = w->peers[p.a].nat;
    r.nat_b = w->peers[p.b].nat;
    r.must_be_direct = r.nat_a == r.nat_b || (w->configs[r.nat_a].SupportsUdpHolePunching() &&
                                              w->configs[r.nat_b].SupportsUdpHolePunching());
    net.event_loop().ScheduleAt(SimTime(r.due_us), [wp, i] { StartIntro(*wp, i); });
  }
  for (size_t k = 0; k < w->reboots.size(); ++k) {
    w->reboots[k].at_us += w->window_start_us;
    net.event_loop().ScheduleAt(SimTime(w->reboots[k].at_us), [wp, k] {
      Scope s(*wp->tracer, wp->names->nat_reboot, k);
      wp->sites[wp->reboots[k].nat].nat->Reboot();
    });
  }

  const Counts before = Read(*w);
  const size_t window_first = tr.spans().size();
  const auto window_start = Clock::now();
  const int slices = static_cast<int>((kArrivalS + kDrainS) * kSlicesPerSecond);
  const int sending = slices - static_cast<int>(kQuiesceS * kSlicesPerSecond);
  uint64_t sent = 0;
  size_t mappings_live_max = 0;
  for (int s = 0; s < slices; ++s) {
    const auto slice_start = Clock::now();
    if (s < sending) {
      Scope a(tr, n.core_app_send, static_cast<uint64_t>(s));
      for (size_t k = static_cast<size_t>(s % kSlicesPerSecond); k < w->traffic.size();
           k += kSlicesPerSecond) {
        ++sent;
        w->traffic[k].session->Send(Bytes(w->traffic[k].size, 0xAB));
      }
    }
    {
      Scope r(tr, n.netsim_run, static_cast<uint64_t>(s));
      net.RunFor(Millis(1000 / kSlicesPerSecond));
    }
    ep.piece_s.push_back(SecondsSince(slice_start));
    if (traced && s % kSlicesPerSecond == 0) {
      size_t live = 0;
      for (const NattedSite& site : w->sites) {
        live += site.nat->active_mapping_count();
      }
      mappings_live_max = std::max(mappings_live_max, live);
    }
  }
  ep.window_s = SecondsSince(window_start);
  const size_t window_last = tr.spans().size();
  const Counts after = Read(*w);

  ChurnFacts facts;
  facts.intros = w->intros;
  facts.deadline_us = kDeadlineUs;
  facts.reboot_guard_us = 2 * kRendezvousKeepAlive.micros();
  facts.reboots = w->reboots;
  uint64_t never = 0;
  for (const IntroRecord& r : w->intros) {
    never += r.done_us < 0 ? 1 : 0;
  }
  facts.direct = w->direct;
  facts.relay = w->relay;
  facts.failed = w->refused + w->late + never;
  facts.sent = sent;
  facts.delivered = w->delivered;
  facts.unknown_targets = after.unknown_targets - before.unknown_targets;
  for (const Peer& peer : w->peers) {
    facts.failovers += peer.client->failovers();
  }
  for (Host* host : w->hosts) {
    facts.malformed += host->malformed_drops();
  }
  ep.errors = CheckChurn(facts);

  std::vector<double> connect_ms;
  for (const IntroRecord& r : w->intros) {
    if (Classify(r, kDeadlineUs) != Outcome::kFailed) {
      connect_ms.push_back(static_cast<double>(r.done_us - r.due_us) / 1e3);
    }
  }
  std::vector<double> recovery_ms;
  for (const Live& live : w->traffic) {
    for (const auto& rec : live.session->recoveries()) {
      recovery_ms.push_back(static_cast<double>(rec.downtime.micros()) / 1e3);
    }
  }
  ep.ops = w->direct + w->relay;
  ep.attempted = w->intros.size();
  ep.failed = facts.failed;
  ep.direct_share = static_cast<double>(w->direct) / static_cast<double>(std::max<uint64_t>(1, ep.ops));
  const uint64_t events = after.events - before.events;
  ep.facts = {static_cast<int64_t>(w->direct), static_cast<int64_t>(w->relay),
              static_cast<int64_t>(facts.failed), static_cast<int64_t>(w->retries),
              static_cast<int64_t>(sent), static_cast<int64_t>(w->delivered),
              static_cast<int64_t>(events), static_cast<int64_t>(recovery_ms.size())};
  for (const IntroRecord& r : w->intros) {
    ep.facts.push_back(r.done_us);
  }
  for (double ms : recovery_ms) {
    ep.facts.push_back(static_cast<int64_t>(ms * 1e3));
  }
  if (!traced) {
    return ep;
  }

  const SpanTotals win = TotalSpans(tr, n, window_first, window_last, ep.window_s);
  const SpanTotals set = TotalSpans(tr, n, setup_first, setup_last, ep.setup_s);
  const obs::MetricsRegistry* reg = net.metrics();
  const size_t intros = w->intros.size();
  auto& L = ep.layers;
  L["netsim.ns_per_event"] =
      win.Self(n.netsim_run) * 1e9 / static_cast<double>(std::max<uint64_t>(1, events));
  L["netsim.events_per_introduction"] = PerIntro(events, intros);
  L["netsim.heap_depth_max"] = static_cast<double>(reg->FindGauge("loop.heap_depth")->max());
  const uint64_t hits = after.flow_hits - before.flow_hits;
  const uint64_t lookups = hits + after.flow_misses - before.flow_misses;
  L["nat.flowcache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  L["nat.mappings_created_per_introduction"] =
      PerIntro(after.mappings_created - before.mappings_created, intros);
  L["nat.filtered_drops_per_introduction"] = PerIntro(after.filtered - before.filtered, intros);
  L["nat.mappings_live_max"] = static_cast<double>(mappings_live_max);
  L["core.connect_call_ns"] = win.Self(n.core_connect) * 1e9 / static_cast<double>(intros);
  L["core.app_send_ns"] =
      win.Self(n.core_app_send) * 1e9 / static_cast<double>(std::max<uint64_t>(1, sent));
  const uint64_t attempts = after.punch_attempts - before.punch_attempts;
  L["core.punch_attempts_per_introduction"] = PerIntro(attempts, intros);
  L["core.punch_success_ratio"] =
      attempts > 0 ? static_cast<double>(after.punch_successes - before.punch_successes) /
                         static_cast<double>(attempts)
                   : 0.0;
  L["core.probes_per_punch"] = PerIntro(w->probes, w->direct);
  L["core.punch_rtt_p50_ms"] = reg->FindHistogram("punch.rtt_ms")->Percentile(0.5);
  L["core.relay_fallbacks"] = static_cast<double>(after.fallbacks - before.fallbacks);
  L["core.recoveries"] = static_cast<double>(after.recoveries - before.recoveries);
  L["core.relay_losses"] = static_cast<double>(after.relay_losses - before.relay_losses);
  L["core.sends_dropped"] = static_cast<double>(after.sends_dropped - before.sends_dropped);
  L["core.turn_relayed_per_datagram"] = PerIntro(after.turn_relayed - before.turn_relayed, sent);
  L["core.connect_p50_ms"] = Percentile(connect_ms, 50);
  L["core.connect_p99_ms"] = Percentile(connect_ms, std::min(99.0, SupportedTail(connect_ms).percentile));
  L["core.connect_samples"] = static_cast<double>(connect_ms.size());
  L["core.connect_retries"] = static_cast<double>(w->retries);
  L["core.availability"] = static_cast<double>(w->delivered) / static_cast<double>(std::max<uint64_t>(1, sent));
  L["core.recovery_p50_ms"] = Percentile(recovery_ms, 50);
  L["core.recovery_p95_ms"] =
      Percentile(recovery_ms, std::min(95.0, SupportedTail(recovery_ms).percentile));
  L["core.recovery_samples"] = static_cast<double>(recovery_ms.size());
  L["core.bytes_per_session"] =
      PeakRssMb() * 1024 * 1024 / static_cast<double>(std::max<size_t>(1, w->traffic.size()));
  L["rendezvous.connect_requests_per_introduction"] =
      PerIntro(after.connect_requests - before.connect_requests, intros);
  L["rendezvous.forwards_per_introduction"] = PerIntro(after.forwards - before.forwards, intros);
  uint64_t replications = 0;
  for (const auto& shard : w->shards) {
    replications += shard->stats().replications_sent;
  }
  L["rendezvous.replications_sent"] = static_cast<double>(replications);
  L["rendezvous.unknown_targets"] = static_cast<double>(facts.unknown_targets);
  L["rendezvous.failovers"] = static_cast<double>(facts.failovers);
  L["util.udp_session_slab_peak"] =
      static_cast<double>(SumGauges(reg, "mem.udp_sessions.", ".peak"));
  L["util.resilient_session_slab_peak"] =
      static_cast<double>(SumGauges(reg, "mem.resilient_sessions.", ".peak"));
  L["util.heap_allocs_per_introduction"] = PerIntro(after.allocs - before.allocs, intros);
  L["transport.malformed_drops"] = static_cast<double>(facts.malformed);
  L["scenario.setup_s"] = set.Self(n.scenario_build);
  L["rendezvous.setup_s"] = set.Self(n.rendezvous_setup);
  L["core.setup_s"] = set.Self(n.core_setup);
  L["netsim.setup_s"] = set.Self(n.netsim_run);
  L["obs.span_coverage"] = win.coverage;
  return ep;
}

}  // namespace perfbench
