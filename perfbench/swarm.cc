// swarm: the unsharded bench_swarm population, closed loop, fixed size.
// 100,032 punched UDP sessions multiplexed over 64 NATted site pairs; every
// session sends one empty-payload datagram per simulated second, spread over
// 8 batches, on top of jittered keepalives. The measured window holds only
// UdpP2pSession::Send batches and Network::RunFor calls.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/udp_puncher.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace natpunch;

constexpr uint64_t kPairs = 64;
constexpr uint64_t kTargetSessions = 100000;  // 64 x 1563 = 100,032
constexpr int kSendBatches = 8;
constexpr int kWarmupTicks = 3;
constexpr int kMeasuredTicks = 16;

struct Side {
  Host* host = nullptr;
  uint64_t client_id = 0;
  Endpoint public_ep;
  std::unique_ptr<UdpRendezvousClient> client;
  std::unique_ptr<UdpHolePuncher> puncher;  // after client: destroyed first
};

// Members are destroyed bottom-up: sessions and punchers before the
// rendezvous server, everything before the Scenario that owns the nodes.
struct Swarm {
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<RendezvousServer> server;
  std::vector<Lan*> lans;
  std::vector<NatDevice*> nats;
  std::vector<Host*> hosts;
  std::vector<Side> a;
  std::vector<Side> b;
  std::vector<UdpP2pSession*> initiator;
  std::vector<UdpP2pSession*> responder;
};

void Build(Swarm& w, uint64_t seed, bool metrics, Tracer& tr, const Names& n,
           std::vector<std::string>* errors) {
  Scope setup(tr, n.setup, 0);
  const uint64_t per_pair = (kTargetSessions + kPairs - 1) / kPairs;
  Scenario::Options options;
  options.seed = seed;
  options.metrics = metrics;
  Host* server_host = nullptr;
  {
    Scope s(tr, n.scenario_build, 0);
    w.scenario = std::make_unique<Scenario>(options);
    w.lans.push_back(w.scenario->internet());
    server_host = w.scenario->AddPublicHost("S", ServerIp());
    w.hosts.push_back(server_host);
    w.a.resize(kPairs);
    w.b.resize(kPairs);
    const Ipv4Prefix private_prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24);
    for (uint64_t p = 0; p < kPairs; ++p) {
      const auto hi = static_cast<uint8_t>(p >> 8);
      const auto lo = static_cast<uint8_t>(p & 0xff);
      NattedSite site_a = w.scenario->AddNattedSite("a" + std::to_string(p), NatConfig{},
                                                    Ipv4Address::FromOctets(20, hi, lo, 1),
                                                    private_prefix, 1);
      NattedSite site_b = w.scenario->AddNattedSite("b" + std::to_string(p), NatConfig{},
                                                    Ipv4Address::FromOctets(21, hi, lo, 1),
                                                    private_prefix, 1);
      for (const NattedSite* site : {&site_a, &site_b}) {
        w.lans.push_back(site->lan);
        w.nats.push_back(site->nat);
        w.hosts.push_back(site->host(0));
      }
      w.a[p].host = site_a.host(0);
      w.b[p].host = site_b.host(0);
      w.a[p].client_id = 1000 + p;
      w.b[p].client_id = 1000000 + p;
    }
  }
  {
    Scope s(tr, n.rendezvous_setup, 0);
    w.server = std::make_unique<RendezvousServer>(server_host, kServerPort);
    if (!w.server->Start().ok()) {
      errors->push_back("swarm: rendezvous server failed to start");
      return;
    }
    for (auto* sides : {&w.a, &w.b}) {
      for (Side& side : *sides) {
        side.client =
            std::make_unique<UdpRendezvousClient>(side.host, w.server->endpoint(), side.client_id);
        Side* sp = &side;
        side.client->Register(4321, [sp](Result<Endpoint> r) {
          if (r.ok()) {
            sp->public_ep = *r;
          }
        });
      }
    }
  }
  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(5);
  punch.keepalive_jitter = Seconds(1);
  punch.session_expiry = Seconds(300);
  punch.try_private_endpoint = false;
  {
    Scope s(tr, n.core_setup, 0);
    for (auto* sides : {&w.a, &w.b}) {
      for (Side& side : *sides) {
        side.puncher = std::make_unique<UdpHolePuncher>(side.client.get(), punch);
      }
    }
  }
  Network& net = w.scenario->net();
  {
    Scope s(tr, n.netsim_run, 0);
    net.RunFor(Seconds(3));
  }
  for (uint64_t p = 0; p < kPairs; ++p) {
    if (w.a[p].public_ep.IsUnspecified() || w.b[p].public_ep.IsUnspecified()) {
      errors->push_back("swarm: pair " + std::to_string(p) + " failed to register");
      return;
    }
  }

  // Punch the population pair by pair, as bench_swarm does. Nonces come
  // from the seed (salted, so they stay distinct); the keepalive jitter is
  // hashed from them, so the seed moves every session's cadence.
  const uint64_t salt = Rng(seed).NextU64() & ~uint64_t{0xffff};
  w.initiator.reserve(kPairs * per_pair);
  w.responder.reserve(kPairs * per_pair);
  for (uint64_t p = 0; p < kPairs; ++p) {
    {
      Scope s(tr, n.core_setup, p);
      w.b[p].puncher->SetIncomingSessionCallback(
          [&w](UdpP2pSession* session) { w.responder.push_back(session); });
      for (uint64_t k = 0; k < per_pair; ++k) {
        const uint64_t nonce = (((p + 1) << 32) | (k + 1)) ^ salt;
        w.b[p].puncher->PunchAtEndpoints(w.a[p].client_id, nonce, w.a[p].public_ep, Endpoint{},
                                         nullptr);
        w.a[p].puncher->PunchAtEndpoints(w.b[p].client_id, nonce, w.b[p].public_ep, Endpoint{},
                                         [&w](Result<UdpP2pSession*> r) {
                                           if (r.ok()) {
                                             w.initiator.push_back(*r);
                                           }
                                         });
      }
    }
    Scope s(tr, n.netsim_run, p);
    net.RunFor(Millis(250));
  }
  {
    Scope s(tr, n.netsim_run, 0);
    net.RunFor(Seconds(3));
  }
  if (w.initiator.size() != kPairs * per_pair || w.responder.size() != kPairs * per_pair) {
    errors->push_back("swarm: punched " + std::to_string(w.initiator.size()) + "/" +
                      std::to_string(w.responder.size()) + " of " +
                      std::to_string(kPairs * per_pair) + " sessions");
  }
}

// One simulated second: every session sends once, in kSendBatches batches.
// Returns the number of Send calls that the session accepted; appends each
// batch's wall time to `pieces` when given.
uint64_t Tick(Swarm& w, Tracer& tr, const Names& n, uint64_t tick, std::vector<double>* pieces) {
  Scope t(tr, n.tick, tick);
  const size_t total = w.initiator.size();
  const size_t batch = (total + kSendBatches - 1) / kSendBatches;
  uint64_t sent = 0;
  for (int b = 0; b < kSendBatches; ++b) {
    const auto batch_start = Clock::now();
    {
      Scope s(tr, n.core_send, tick);
      const size_t end = std::min(total, (static_cast<size_t>(b) + 1) * batch);
      for (size_t i = static_cast<size_t>(b) * batch; i < end; ++i) {
        sent += w.initiator[i]->Send(Bytes{}).ok() ? 1 : 0;
        sent += w.responder[i]->Send(Bytes{}).ok() ? 1 : 0;
      }
    }
    {
      Scope r(tr, n.netsim_run, tick);
      w.scenario->net().RunFor(Millis(1000 / kSendBatches));
    }
    if (pieces != nullptr) {
      pieces->push_back(SecondsSince(batch_start));
    }
  }
  return sent;
}

struct Counts {
  uint64_t received = 0, events = 0, lan_packets = 0, translations = 0, allocs = 0;
  uint64_t timers_wheel = 0, timers_heap = 0, cascades = 0, flow_hits = 0, flow_misses = 0;
};

Counts Read(Swarm& w) {
  Counts c;
  for (UdpP2pSession* s : w.initiator) {
    c.received += s->datagrams_received();
  }
  for (UdpP2pSession* s : w.responder) {
    c.received += s->datagrams_received();
  }
  c.events = w.scenario->net().event_loop().events_processed();
  for (Lan* lan : w.lans) {
    c.lan_packets += lan->packets_transmitted();
  }
  for (NatDevice* nat : w.nats) {
    c.translations += nat->stats().translated_out + nat->stats().translated_in;
  }
  c.allocs = HeapAllocs();
  if (const obs::MetricsRegistry* reg = w.scenario->net().metrics()) {
    c.timers_wheel = SumCounters(reg, "loop.timers_wheel", "");
    c.timers_heap = SumCounters(reg, "loop.timers_heap", "");
    c.cascades = SumCounters(reg, "loop.wheel_cascades", "");
    c.flow_hits = SumCounters(reg, "nat.", ".flowcache_hits");
    c.flow_misses = SumCounters(reg, "nat.", ".flowcache_misses");
  }
  return c;
}

}  // namespace

Episode RunSwarm(uint64_t seed, Tracer& tr) {
  const Names n(tr);
  const bool traced = tr.enabled();
  Episode ep;
  auto w = std::make_unique<Swarm>();
  const size_t setup_first = tr.spans().size();
  const auto setup_start = Clock::now();
  Build(*w, seed, traced, tr, n, &ep.errors);
  ep.setup_s = SecondsSince(setup_start);
  const size_t setup_last = tr.spans().size();
  if (!ep.errors.empty()) {
    return ep;
  }

  uint64_t tick = 0;
  for (int i = 0; i < kWarmupTicks; ++i) {
    Tick(*w, tr, n, tick++, nullptr);
  }
  const Counts before = Read(*w);
  const size_t window_first = tr.spans().size();
  const auto window_start = Clock::now();
  uint64_t sent = 0;
  for (int i = 0; i < kMeasuredTicks; ++i) {
    sent += Tick(*w, tr, n, tick++, &ep.piece_s);
  }
  ep.window_s = SecondsSince(window_start);
  const size_t window_last = tr.spans().size();
  const Counts after = Read(*w);

  SwarmFacts facts;
  facts.sessions = w->initiator.size() + w->responder.size();
  for (auto* sessions : {&w->initiator, &w->responder}) {
    for (UdpP2pSession* s : *sessions) {
      facts.alive += s->alive() ? 1 : 0;
    }
  }
  facts.sent = static_cast<uint64_t>(kMeasuredTicks) * facts.sessions;
  facts.delivered = after.received - before.received;
  for (auto* sides : {&w->a, &w->b}) {
    for (const Side& side : *sides) {
      facts.failovers += side.client->failovers();
    }
  }
  for (Host* host : w->hosts) {
    facts.malformed += host->malformed_drops();
  }
  ep.errors = CheckSwarm(facts);
  if (sent != facts.sent) {
    ep.errors.push_back("swarm: " + std::to_string(facts.sent - sent) + " sends refused");
  }
  ep.ops = facts.delivered;
  ep.attempted = facts.sent;
  ep.failed = facts.sent - std::min(facts.sent, facts.delivered);
  ep.direct_share = static_cast<double>(facts.alive) / static_cast<double>(facts.sessions);
  const uint64_t events = after.events - before.events;
  ep.facts = {static_cast<int64_t>(facts.sessions), static_cast<int64_t>(facts.alive),
              static_cast<int64_t>(facts.delivered), static_cast<int64_t>(events),
              static_cast<int64_t>(after.lan_packets - before.lan_packets),
              static_cast<int64_t>(after.translations - before.translations)};
  if (!traced) {
    return ep;
  }

  const double datagrams = static_cast<double>(std::max<uint64_t>(1, facts.delivered));
  const SpanTotals win = TotalSpans(tr, n, window_first, window_last, ep.window_s);
  const SpanTotals set = TotalSpans(tr, n, setup_first, setup_last, ep.setup_s);
  const obs::MetricsRegistry* reg = w->scenario->net().metrics();
  auto& L = ep.layers;
  L["netsim.run_ns_per_datagram"] = win.Self(n.netsim_run) * 1e9 / datagrams;
  L["netsim.events_per_datagram"] = static_cast<double>(events) / datagrams;
  L["netsim.lan_packets_per_datagram"] =
      static_cast<double>(after.lan_packets - before.lan_packets) / datagrams;
  L["netsim.timers_wheel_per_datagram"] =
      static_cast<double>(after.timers_wheel - before.timers_wheel) / datagrams;
  L["netsim.timers_heap_per_datagram"] =
      static_cast<double>(after.timers_heap - before.timers_heap) / datagrams;
  L["netsim.wheel_cascades_per_datagram"] =
      static_cast<double>(after.cascades - before.cascades) / datagrams;
  L["netsim.ns_per_event"] =
      win.Self(n.netsim_run) * 1e9 / static_cast<double>(std::max<uint64_t>(1, events));
  L["netsim.heap_depth_max"] = static_cast<double>(reg->FindGauge("loop.heap_depth")->max());
  L["nat.translations_per_datagram"] =
      static_cast<double>(after.translations - before.translations) / datagrams;
  const uint64_t hits = after.flow_hits - before.flow_hits;
  const uint64_t lookups = hits + after.flow_misses - before.flow_misses;
  L["nat.flowcache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  L["core.send_ns_per_datagram"] = win.Self(n.core_send) * 1e9 / datagrams;
  L["core.bytes_per_session"] =
      PeakRssMb() * 1024 * 1024 / static_cast<double>(w->initiator.size());
  L["util.udp_session_slab_peak"] =
      static_cast<double>(SumGauges(reg, "mem.udp_sessions.", ".peak"));
  L["util.heap_allocs_per_datagram"] = static_cast<double>(after.allocs - before.allocs) / datagrams;
  L["transport.malformed_drops"] = static_cast<double>(facts.malformed);
  L["rendezvous.failovers"] = static_cast<double>(facts.failovers);
  L["scenario.setup_s"] = set.Self(n.scenario_build);
  L["rendezvous.setup_s"] = set.Self(n.rendezvous_setup);
  L["core.setup_s"] = set.Self(n.core_setup);
  L["netsim.setup_s"] = set.Self(n.netsim_run);
  L["obs.span_coverage"] = win.coverage;
  return ep;
}

}  // namespace perfbench
