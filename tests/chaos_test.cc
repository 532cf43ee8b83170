// Chaos engineering: a scripted, seeded fault timeline (FaultScheduler)
// driven against live hole-punched sessions, and the self-healing wrapper
// (ResilientSession) that recovers them.
//
// The three pillars:
//   1. Determinism — the same seed and the same fault plan reproduce the
//      same trace bit-for-bit, so any chaos failure is replayable.
//   2. Recovery — a session killed by a NAT reboot comes back via automatic
//      re-punch with bounded downtime (§3.6 "recover on demand", automated).
//   3. Fallback — when both peers sit behind symmetric NATs and re-punching
//      is structurally impossible, the session lands on the TURN relay and
//      data still flows (§2.2's fallback hierarchy).

#include <gtest/gtest.h>

#include "src/core/attacker.h"
#include "src/core/resilient_session.h"
#include "src/core/turn.h"
#include "src/netsim/fault.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/transport/host.h"

namespace natpunch {
namespace {

SimTime At(int64_t seconds) { return SimTime() + Seconds(seconds); }

// A full chaos soak: Fig. 5 pair under burst loss, a latency spike, a LAN
// partition, a NAT reboot, and a rendezvous server restart. Returns
// everything observable so two runs can be compared field by field.
struct ChaosOutcome {
  std::string trace;
  size_t faults_executed = 0;
  int recoveries = 0;
  int repunch_attempts = 0;
  int64_t downtime_micros = 0;
  int b_received = 0;
  uint64_t server_restarts_seen = 0;
  bool direct_at_end = false;
};

ChaosOutcome RunChaosSoak(uint64_t seed) {
  Scenario::Options options;
  options.seed = seed;
  Fig5Topology topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);

  RendezvousServer server(topo.server, kServerPort);
  EXPECT_TRUE(server.Start().ok());
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  ca.StartKeepAlive(Seconds(1));
  cb.StartKeepAlive(Seconds(1));

  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(1);
  punch.session_expiry = Seconds(5);
  UdpHolePuncher pa(&ca, punch);
  UdpHolePuncher pb(&cb, punch);
  ResilientSessionConfig resilient;
  resilient.max_repunch_attempts = 4;
  ResilientSessionManager ma(&pa, resilient);
  ResilientSessionManager mb(&pb, resilient);

  ChaosOutcome out;
  mb.SetIncomingSessionCallback([&out](ResilientSession* s) {
    s->SetReceiveCallback([&out](const Bytes&) { ++out.b_received; });
  });
  ResilientSession* session = nullptr;
  net.event_loop().ScheduleAfter(Seconds(2), [&] {
    ma.ConnectToPeer(2, [&](Result<ResilientSession*> r) {
      if (r.ok()) {
        session = *r;
      }
    });
  });
  // Application traffic pump: one datagram toward B every 500 ms.
  std::function<void()> pump = [&] {
    if (session != nullptr && session->alive()) {
      session->Send(Bytes{0xAB});
    }
    net.event_loop().ScheduleAfter(Millis(500), pump);
  };
  net.event_loop().ScheduleAfter(Seconds(3), pump);

  FaultScheduler faults(&net);
  GilbertElliottConfig burst;
  burst.enabled = true;
  burst.p_good_to_bad = 0.05;
  burst.p_bad_to_good = 0.3;
  burst.loss_bad = 0.9;
  faults.BurstLoss(At(6), topo.scenario->internet(), burst, Seconds(3));
  faults.LatencySpike(At(10), topo.scenario->internet(), Millis(200), Seconds(3));
  faults.LinkDown(At(14), topo.site_b.lan, Seconds(2));
  faults.At(At(20), "nat A reboot", [&] { topo.site_a.nat->Reboot(); });
  faults.At(At(30), "rendezvous restart", [&] {
    server.Stop();
    EXPECT_TRUE(server.Start().ok());
  });

  net.RunFor(Seconds(50));

  out.faults_executed = faults.faults_executed();
  if (session != nullptr) {
    out.recoveries = static_cast<int>(session->recoveries().size());
    out.repunch_attempts = session->total_repunch_attempts();
    out.downtime_micros = session->total_downtime().micros();
    out.direct_at_end = session->path() == ResilientSession::Path::kDirect;
  }
  out.server_restarts_seen = ca.restarts_detected();
  out.trace = net.trace().Dump();
  return out;
}

TEST(ChaosDeterminismTest, SameSeedSamePlanBitIdenticalTraceAndOutcome) {
  ChaosOutcome first = RunChaosSoak(77);
  ChaosOutcome second = RunChaosSoak(77);

  // The run itself must have exercised the machinery.
  // burst start/end + spike/restore + link down/up + NAT reboot + restart.
  EXPECT_EQ(first.faults_executed, 8u);
  EXPECT_GE(first.recoveries, 1);
  EXPECT_GT(first.b_received, 0);
  EXPECT_EQ(first.server_restarts_seen, 1u);
  EXPECT_TRUE(first.direct_at_end);

  // Bit-identical replay.
  EXPECT_EQ(first.faults_executed, second.faults_executed);
  EXPECT_EQ(first.recoveries, second.recoveries);
  EXPECT_EQ(first.repunch_attempts, second.repunch_attempts);
  EXPECT_EQ(first.downtime_micros, second.downtime_micros);
  EXPECT_EQ(first.b_received, second.b_received);
  EXPECT_EQ(first.server_restarts_seen, second.server_restarts_seen);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_TRUE(first.trace == second.trace) << "same seed + same plan must replay bit-identically";

  // And a different seed genuinely perturbs the world.
  ChaosOutcome other = RunChaosSoak(78);
  EXPECT_FALSE(first.trace == other.trace);
}

// Shared harness for the recovery tests.
class ChaosRecoveryTest : public ::testing::Test {
 protected:
  void Build(const NatConfig& nat_a, const NatConfig& nat_b, Endpoint turn_server,
             SimDuration punch_timeout, int max_repunch) {
    topo_ = MakeFig5(nat_a, nat_b);
    server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
    ASSERT_TRUE(server_->Start().ok());
    ca_ = std::make_unique<UdpRendezvousClient>(topo_.a, server_->endpoint(), 1);
    cb_ = std::make_unique<UdpRendezvousClient>(topo_.b, server_->endpoint(), 2);
    ca_->Register(4321, [](Result<Endpoint>) {});
    cb_->Register(4321, [](Result<Endpoint>) {});
    ca_->StartKeepAlive(Seconds(1));
    cb_->StartKeepAlive(Seconds(1));
    UdpPunchConfig punch;
    punch.keepalive_interval = Seconds(1);
    punch.session_expiry = Seconds(5);
    punch.punch_timeout = punch_timeout;
    pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), punch);
    pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), punch);
    ResilientSessionConfig resilient;
    resilient.max_repunch_attempts = max_repunch;
    resilient.turn_server = turn_server;
    ma_ = std::make_unique<ResilientSessionManager>(pa_.get(), resilient);
    mb_ = std::make_unique<ResilientSessionManager>(pb_.get(), resilient);
    mb_->SetIncomingSessionCallback([this](ResilientSession* s) {
      incoming_ = s;
      s->SetReceiveCallback([this](const Bytes&) { ++b_received_; });
    });
    topo_.scenario->net().RunFor(Seconds(2));
  }

  ResilientSession* Connect() {
    ResilientSession* session = nullptr;
    ma_->ConnectToPeer(2, [&](Result<ResilientSession*> r) { session = r.ok() ? *r : nullptr; });
    topo_.scenario->net().RunFor(Seconds(12));
    return session;
  }

  bool SendWorks(ResilientSession* session) {
    const int before = b_received_;
    session->Send(Bytes{1});
    topo_.scenario->net().RunFor(Seconds(2));
    return b_received_ > before;
  }

  Fig5Topology topo_;
  std::unique_ptr<RendezvousServer> server_;
  std::unique_ptr<UdpRendezvousClient> ca_, cb_;
  std::unique_ptr<UdpHolePuncher> pa_, pb_;
  std::unique_ptr<ResilientSessionManager> ma_, mb_;
  ResilientSession* incoming_ = nullptr;
  int b_received_ = 0;
};

TEST_F(ChaosRecoveryTest, NatRebootRecoversViaRepunchWithBoundedDowntime) {
  Build(NatConfig{}, NatConfig{}, Endpoint{}, Seconds(10), 4);
  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->path(), ResilientSession::Path::kDirect);
  ASSERT_TRUE(SendWorks(session));

  topo_.site_a.nat->Reboot();
  EXPECT_EQ(topo_.site_a.nat->stats().reboots, 1u);
  EXPECT_EQ(topo_.site_a.nat->active_mapping_count(), 0u);

  // The wrapper notices the death and re-punches on its own: no new client
  // objects, no application involvement.
  topo_.scenario->net().RunFor(Seconds(20));
  EXPECT_EQ(session->path(), ResilientSession::Path::kDirect);
  ASSERT_EQ(session->recoveries().size(), 1u);
  const auto& rec = session->recoveries()[0];
  EXPECT_FALSE(rec.via_relay);
  EXPECT_GE(rec.repunch_attempts, 1);
  // Downtime (death detection to data path restored) is bounded by one
  // backoff step plus a punch round-trip — nowhere near the 5 s expiry.
  EXPECT_LT(rec.downtime, Seconds(8));
  EXPECT_TRUE(SendWorks(session));
  // The passive side rebound the fresh punch into its existing session
  // rather than surfacing a duplicate.
  EXPECT_EQ(mb_->session_count(), 1u);
}

TEST_F(ChaosRecoveryTest, SendBufferHoldsBetweenPathsAndRefusesOverflow) {
  // Datagrams sent before the first punch locks in wait in a bounded
  // buffer and flush in order once the direct path is up; past the cap of
  // 128 a send is refused and counted, never buffered.
  Build(NatConfig{}, NatConfig{}, Endpoint{}, Seconds(10), 4);
  Bytes received;
  mb_->SetIncomingSessionCallback([&received](ResilientSession* s) {
    s->SetReceiveCallback([&received](const Bytes& payload) {
      received.insert(received.end(), payload.begin(), payload.end());
    });
  });
  ma_->ConnectToPeer(2, [](Result<ResilientSession*>) {});
  ResilientSession* session = ma_->FindSession(2);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->path(), ResilientSession::Path::kConnecting);

  Bytes expected;
  for (int i = 0; i < 128; ++i) {
    expected.push_back(static_cast<uint8_t>(i));
    ASSERT_TRUE(session->Send(Bytes{expected.back()}).ok()) << "datagram " << i;
  }
  EXPECT_EQ(session->Send(Bytes{128}).code(), ErrorCode::kWouldBlock);
  EXPECT_EQ(session->sends_dropped(), 1u);

  topo_.scenario->net().RunFor(Seconds(12));
  EXPECT_EQ(session->path(), ResilientSession::Path::kDirect);
  EXPECT_EQ(received, expected);
}

TEST_F(ChaosRecoveryTest, SymmetricBothSidesFallsBackToRelayAndDataFlows) {
  // Address-and-port-dependent mapping on both sides: hole punching is
  // structurally impossible (§5: both NATs allocate a fresh public port per
  // destination, and each side probes the other's *predicted* endpoint).
  NatConfig symmetric;
  symmetric.mapping = NatMapping::kAddressAndPortDependent;
  symmetric.filtering = NatFiltering::kAddressAndPortDependent;
  symmetric.port_allocation = NatPortAllocation::kRandom;

  // A TURN server on the public realm is the escape hatch.
  topo_ = MakeFig5(symmetric, symmetric);
  Host* relay_host = topo_.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
  TurnServer turn(relay_host);
  ASSERT_TRUE(turn.Start().ok());

  // Re-build the endpoints on the already-made topology.
  server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
  ASSERT_TRUE(server_->Start().ok());
  ca_ = std::make_unique<UdpRendezvousClient>(topo_.a, server_->endpoint(), 1);
  cb_ = std::make_unique<UdpRendezvousClient>(topo_.b, server_->endpoint(), 2);
  ca_->Register(4321, [](Result<Endpoint>) {});
  cb_->Register(4321, [](Result<Endpoint>) {});
  UdpPunchConfig punch;
  punch.punch_timeout = Seconds(3);  // fail the hopeless punch quickly
  pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), punch);
  pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), punch);
  ResilientSessionConfig resilient;
  resilient.turn_server = turn.endpoint();
  ma_ = std::make_unique<ResilientSessionManager>(pa_.get(), resilient);
  mb_ = std::make_unique<ResilientSessionManager>(pb_.get(), resilient);
  mb_->SetIncomingSessionCallback([this](ResilientSession* s) {
    incoming_ = s;
    s->SetReceiveCallback([this](const Bytes&) { ++b_received_; });
  });
  topo_.scenario->net().RunFor(Seconds(2));

  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->path(), ResilientSession::Path::kRelay);
  ASSERT_NE(incoming_, nullptr);
  EXPECT_EQ(incoming_->path(), ResilientSession::Path::kRelay);

  // Data flows in both directions through the relay.
  ASSERT_TRUE(SendWorks(session));
  int a_received = 0;
  session->SetReceiveCallback([&](const Bytes&) { ++a_received; });
  incoming_->Send(Bytes{2});
  topo_.scenario->net().RunFor(Seconds(2));
  EXPECT_GT(a_received, 0);
  EXPECT_GT(session->relayed_sent(), 0u);
  EXPECT_GT(incoming_->relayed_received(), 0u);
  EXPECT_GT(turn.stats().relayed_to_peer, 0u);
  EXPECT_GT(turn.stats().relayed_to_client, 0u);
}

TEST_F(ChaosRecoveryTest, RelayDeathDetectedByWatchdogAndRelayReestablished) {
  // Same structurally-unpunchable world as above, but now the RELAY dies
  // mid-session. The relay-leg watchdog must notice the silence, re-enter
  // the recovery ladder (the re-punch fails again — the NATs are still
  // symmetric), and land on a fresh allocation against the restarted
  // server, whose state the restart wiped.
  NatConfig symmetric;
  symmetric.mapping = NatMapping::kAddressAndPortDependent;
  symmetric.filtering = NatFiltering::kAddressAndPortDependent;
  symmetric.port_allocation = NatPortAllocation::kRandom;

  topo_ = MakeFig5(symmetric, symmetric);
  Host* relay_host = topo_.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
  TurnServer turn(relay_host);
  ASSERT_TRUE(turn.Start().ok());

  server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
  ASSERT_TRUE(server_->Start().ok());
  ca_ = std::make_unique<UdpRendezvousClient>(topo_.a, server_->endpoint(), 1);
  cb_ = std::make_unique<UdpRendezvousClient>(topo_.b, server_->endpoint(), 2);
  ca_->Register(4321, [](Result<Endpoint>) {});
  cb_->Register(4321, [](Result<Endpoint>) {});
  ca_->StartKeepAlive(Seconds(1));
  cb_->StartKeepAlive(Seconds(1));
  UdpPunchConfig punch;
  punch.punch_timeout = Seconds(3);      // fail the hopeless punches quickly
  punch.keepalive_interval = Seconds(1);  // responder knock cadence < relay_timeout
  pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), punch);
  pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), punch);
  ResilientSessionConfig resilient;
  resilient.turn_server = turn.endpoint();
  resilient.relay_keepalive_interval = Seconds(1);
  resilient.relay_timeout = Seconds(5);
  resilient.max_repunch_attempts = 1;
  ma_ = std::make_unique<ResilientSessionManager>(pa_.get(), resilient);
  mb_ = std::make_unique<ResilientSessionManager>(pb_.get(), resilient);
  mb_->SetIncomingSessionCallback([this](ResilientSession* s) {
    incoming_ = s;
    s->SetReceiveCallback([this](const Bytes&) { ++b_received_; });
  });
  topo_.scenario->net().RunFor(Seconds(2));

  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->path(), ResilientSession::Path::kRelay);
  ASSERT_TRUE(SendWorks(session));
  EXPECT_EQ(session->relay_losses(), 0);

  // Kill the relay, then bring it back (empty) while the watchdog and the
  // re-punch ladder are still climbing toward the fresh EnterRelay.
  turn.Stop();
  topo_.scenario->net().RunFor(Seconds(3));
  ASSERT_TRUE(turn.Start().ok());
  EXPECT_EQ(turn.active_allocations(), 0u);

  topo_.scenario->net().RunFor(Seconds(30));
  EXPECT_GE(session->relay_losses(), 1);
  ASSERT_NE(incoming_, nullptr);
  EXPECT_GE(incoming_->relay_losses(), 1);
  EXPECT_EQ(session->path(), ResilientSession::Path::kRelay);
  EXPECT_EQ(incoming_->path(), ResilientSession::Path::kRelay);
  // The loss was recorded as a completed recovery over the relay, with the
  // doomed direct re-punch counted on the way.
  ASSERT_GE(session->recoveries().size(), 1u);
  EXPECT_TRUE(session->recoveries().back().via_relay);
  EXPECT_GE(session->recoveries().back().repunch_attempts, 1);
  // No duplicate session objects surfaced on either side.
  EXPECT_EQ(ma_->session_count(), 1u);
  EXPECT_EQ(mb_->session_count(), 1u);

  // The rebuilt leg carries data both ways.
  EXPECT_TRUE(SendWorks(session));
  int a_received = 0;
  session->SetReceiveCallback([&](const Bytes&) { ++a_received; });
  incoming_->Send(Bytes{2});
  topo_.scenario->net().RunFor(Seconds(2));
  EXPECT_GT(a_received, 0);
}

TEST_F(ChaosRecoveryTest, ServerRestartDetectedByEpochAndReRegisteredTransparently) {
  Build(NatConfig{}, NatConfig{}, Endpoint{}, Seconds(10), 4);
  ASSERT_TRUE(ca_->registered());
  EXPECT_EQ(ca_->server_epoch(), 1u);
  EXPECT_EQ(server_->client_count(), 2u);

  server_->Stop();
  topo_.scenario->net().RunFor(Seconds(2));
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_EQ(server_->client_count(), 0u);  // the restart lost all state

  // Keepalive acks now carry epoch 2; both clients notice and re-register
  // without new objects or application involvement.
  topo_.scenario->net().RunFor(Seconds(5));
  EXPECT_EQ(ca_->restarts_detected(), 1u);
  EXPECT_EQ(cb_->restarts_detected(), 1u);
  EXPECT_EQ(ca_->server_epoch(), 2u);
  EXPECT_TRUE(ca_->registered());
  EXPECT_TRUE(cb_->registered());
  EXPECT_EQ(server_->client_count(), 2u);

  // Introductions work again on the same stack.
  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(SendWorks(session));
}

TEST_F(ChaosRecoveryTest, LanPartitionShorterThanExpiryIsAbsorbed) {
  Build(NatConfig{}, NatConfig{}, Endpoint{}, Seconds(10), 4);
  Network& net = topo_.scenario->net();
  net.trace().set_enabled(true);
  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(SendWorks(session));

  FaultScheduler faults(&net);
  const SimTime now = net.now();
  faults.LinkDown(now + Seconds(1), topo_.site_b.lan, Seconds(2));
  net.RunFor(Seconds(6));

  // Outage (2 s) < expiry (5 s): the session never died, and traffic lost
  // during the partition shows up as kLinkDown drops in the trace.
  EXPECT_EQ(session->recoveries().size(), 0u);
  EXPECT_EQ(session->path(), ResilientSession::Path::kDirect);
  EXPECT_GT(net.trace().Count(TraceEvent::kLinkDown), 0u);
  EXPECT_EQ(net.trace().Count(TraceEvent::kFault), faults.faults_executed());
  EXPECT_TRUE(SendWorks(session));
}

TEST_F(ChaosRecoveryTest, BurstLossWindowDropsAndRestores) {
  Build(NatConfig{}, NatConfig{}, Endpoint{}, Seconds(10), 4);
  Network& net = topo_.scenario->net();
  net.trace().set_enabled(true);
  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);

  // A pathological Gilbert-Elliott window: always in the bad state, bad
  // state always drops — a deterministic blackout expressed as burst loss.
  FaultScheduler faults(&net);
  GilbertElliottConfig blackout;
  blackout.enabled = true;
  blackout.p_good_to_bad = 1.0;
  blackout.p_bad_to_good = 0.0;
  blackout.loss_bad = 1.0;
  faults.BurstLoss(net.now() + Seconds(1), topo_.scenario->internet(), blackout, Seconds(2));
  net.RunFor(Seconds(6));

  EXPECT_GT(net.trace().Count(TraceEvent::kDropBurst), 0u);
  // Window (2 s) < expiry (5 s): absorbed without a recovery.
  EXPECT_EQ(session->recoveries().size(), 0u);
  EXPECT_TRUE(SendWorks(session));
}

TEST_F(ChaosRecoveryTest, AdaptiveWatchdogDetectsRelayDeathWellUnderStaticTimeout) {
  // Default relay timings: 5 s keepalives, 30 s static timeout. The
  // adaptive watchdog samples the leg RTT from keepalive probe echoes and
  // tightens the silence window to ~2 keepalive rounds + margin*srtt —
  // about 10 s at simulated RTTs — without any config tuning.
  NatConfig symmetric;
  symmetric.mapping = NatMapping::kAddressAndPortDependent;
  symmetric.filtering = NatFiltering::kAddressAndPortDependent;
  symmetric.port_allocation = NatPortAllocation::kRandom;

  topo_ = MakeFig5(symmetric, symmetric);
  Host* relay_host = topo_.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
  TurnServer turn(relay_host);
  ASSERT_TRUE(turn.Start().ok());

  server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
  ASSERT_TRUE(server_->Start().ok());
  ca_ = std::make_unique<UdpRendezvousClient>(topo_.a, server_->endpoint(), 1);
  cb_ = std::make_unique<UdpRendezvousClient>(topo_.b, server_->endpoint(), 2);
  ca_->Register(4321, [](Result<Endpoint>) {});
  cb_->Register(4321, [](Result<Endpoint>) {});
  UdpPunchConfig punch;
  punch.punch_timeout = Seconds(3);  // fail the hopeless punch quickly
  pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), punch);
  pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), punch);
  ResilientSessionConfig resilient;  // stock adaptive settings
  resilient.turn_server = turn.endpoint();
  ma_ = std::make_unique<ResilientSessionManager>(pa_.get(), resilient);
  mb_ = std::make_unique<ResilientSessionManager>(pb_.get(), resilient);
  mb_->SetIncomingSessionCallback([this](ResilientSession* s) {
    incoming_ = s;
    s->SetReceiveCallback([this](const Bytes&) { ++b_received_; });
  });
  topo_.scenario->net().RunFor(Seconds(2));

  ResilientSession* session = Connect();
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->path(), ResilientSession::Path::kRelay);
  ASSERT_TRUE(SendWorks(session));

  // Let a few keepalive rounds pass so both sides hold an RTT estimate.
  topo_.scenario->net().RunFor(Seconds(12));
  EXPECT_GT(session->relay_srtt().micros(), 0);
  ASSERT_NE(incoming_, nullptr);
  EXPECT_GT(incoming_->relay_srtt().micros(), 0);

  // Kill the relay and clock how long until the watchdog notices.
  turn.Stop();
  const SimTime killed_at = topo_.scenario->net().now();
  SimDuration detected_after = Seconds(60);
  while (topo_.scenario->net().now() - killed_at < Seconds(40)) {
    topo_.scenario->net().RunFor(Millis(500));
    if (session->relay_losses() >= 1) {
      detected_after = topo_.scenario->net().now() - killed_at;
      break;
    }
  }
  // 2 * 5 s keepalives + margin*srtt lands near 10-11 s — a third of the
  // static 30 s window, and comfortably under half of it.
  EXPECT_GE(session->relay_losses(), 1);
  EXPECT_LT(detected_after.micros(), Seconds(15).micros());
  EXPECT_GE(detected_after.micros(), Seconds(8).micros());  // floor respected
}

// ---------------------------------------------------------------------------
// Hostile-network hardening: adversarial fault storms and attacker nodes
// ---------------------------------------------------------------------------

struct StormOutcome {
  std::string trace;
  uint64_t corrupted = 0, duplicated = 0, reordered = 0, truncated = 0;
  uint64_t malformed_drops = 0;
  int b_received = 0;
  int64_t downtime_micros = 0;
  bool alive_at_end = false;
  bool data_flows_after = false;
};

StormOutcome RunHostileStorm(uint64_t seed) {
  Scenario::Options options;
  options.seed = seed;
  Fig5Topology topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);

  RendezvousServer server(topo.server, kServerPort);
  EXPECT_TRUE(server.Start().ok());
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  ca.StartKeepAlive(Seconds(1));
  cb.StartKeepAlive(Seconds(1));
  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(1);
  punch.session_expiry = Seconds(5);
  UdpHolePuncher pa(&ca, punch);
  UdpHolePuncher pb(&cb, punch);
  ResilientSessionConfig resilient;
  resilient.max_repunch_attempts = 4;
  ResilientSessionManager ma(&pa, resilient);
  ResilientSessionManager mb(&pb, resilient);

  StormOutcome out;
  mb.SetIncomingSessionCallback([&out](ResilientSession* s) {
    s->SetReceiveCallback([&out](const Bytes&) { ++out.b_received; });
  });
  ResilientSession* session = nullptr;
  net.event_loop().ScheduleAfter(Seconds(2), [&] {
    ma.ConnectToPeer(2, [&](Result<ResilientSession*> r) {
      if (r.ok()) {
        session = *r;
      }
    });
  });
  std::function<void()> pump = [&] {
    if (session != nullptr && session->alive()) {
      session->Send(Bytes{0xAB});
    }
    net.event_loop().ScheduleAfter(Millis(500), pump);
  };
  net.event_loop().ScheduleAfter(Seconds(3), pump);

  // A combined corruption + truncation + duplication + reorder storm on the
  // internet segment, long after the punch so it hits a live session.
  FaultScheduler faults(&net);
  MangleConfig storm;
  storm.corrupt = 0.25;
  storm.truncate = 0.10;
  storm.duplicate = 0.20;
  storm.reorder = 0.30;
  storm.reorder_hold = Millis(80);
  faults.Mangle(At(6), topo.scenario->internet(), storm, Seconds(10));

  net.RunFor(Seconds(25));

  out.corrupted = net.trace().Count(TraceEvent::kCorrupt);
  out.duplicated = net.trace().Count(TraceEvent::kDuplicate);
  out.reordered = net.trace().Count(TraceEvent::kReorder);
  out.truncated = net.trace().Count(TraceEvent::kTruncate);
  out.malformed_drops = topo.a->malformed_drops() + topo.b->malformed_drops() +
                        topo.server->malformed_drops();
  if (session != nullptr) {
    out.alive_at_end = session->alive();
    out.downtime_micros = session->total_downtime().micros();
    const int before = out.b_received;
    session->Send(Bytes{0xCD});
    net.RunFor(Seconds(2));
    out.data_flows_after = out.b_received > before;
  }
  out.trace = net.trace().Dump();
  return out;
}

TEST(HostileStormTest, SessionSurvivesStormWithBoundedDowntimeAndReplaysIdentically) {
  StormOutcome first = RunHostileStorm(1234);

  // The storm actually mangled traffic, every kind, and every kind is in the
  // trace — corrupted frames were dropped by the decoders and counted, not
  // crashed on and not accepted.
  EXPECT_GT(first.corrupted, 0u);
  EXPECT_GT(first.duplicated, 0u);
  EXPECT_GT(first.reordered, 0u);
  EXPECT_GT(first.truncated, 0u);
  EXPECT_GT(first.malformed_drops, 0u);

  // Availability: the session survived the storm (keepalives at 1 s against
  // a 5 s expiry ride out 25% corruption), data flowed during it, and any
  // recovery the storm did force stayed within the backoff ladder's bound.
  EXPECT_TRUE(first.alive_at_end);
  EXPECT_GT(first.b_received, 0);
  EXPECT_TRUE(first.data_flows_after);
  EXPECT_LT(first.downtime_micros, Seconds(15).micros());

  // Chaos replays are bit-identical per seed, mangling included.
  StormOutcome second = RunHostileStorm(1234);
  EXPECT_EQ(first.corrupted, second.corrupted);
  EXPECT_EQ(first.duplicated, second.duplicated);
  EXPECT_EQ(first.reordered, second.reordered);
  EXPECT_EQ(first.truncated, second.truncated);
  EXPECT_EQ(first.malformed_drops, second.malformed_drops);
  EXPECT_EQ(first.b_received, second.b_received);
  EXPECT_EQ(first.downtime_micros, second.downtime_micros);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_TRUE(first.trace == second.trace) << "storm replay must be bit-identical";

  // A different seed mangles a different world.
  StormOutcome other = RunHostileStorm(1235);
  EXPECT_FALSE(first.trace == other.trace);
}

TEST(AttackerTest, GarbageBlasterIsQuarantinedWhilePunchSucceeds) {
  Fig5Topology topo = MakeFig5(NatConfig{}, NatConfig{});
  Network& net = topo.scenario->net();

  // Rendezvous server with the hostile-client controls on.
  RendezvousServer::Options hardened;
  hardened.max_msgs_per_window = 50;
  hardened.quarantine_threshold = 5;
  RendezvousServer server(topo.server, kServerPort, hardened);
  ASSERT_TRUE(server.Start().ok());

  // The attacker sits on the public internet, blasting the server with
  // garbage: random bytes, valid-magic random bodies, bit-flipped and
  // truncated copies of a real registration frame.
  Host* evil = topo.scenario->AddPublicHost("evil", Ipv4Address::FromOctets(66, 6, 6, 6));
  GarbageBlasterConfig blast;
  blast.target = server.endpoint();
  blast.interval = Millis(5);
  blast.seed = 99;
  GarbageBlaster blaster(evil, blast);
  RendezvousMessage tmpl;
  tmpl.type = RvMsgType::kConnectRequest;
  tmpl.client_id = 666;
  tmpl.target_id = 1;
  blaster.AddTemplate(EncodeRendezvousMessage(tmpl, false));
  ASSERT_TRUE(blaster.Start().ok());

  // Honest clients register and punch right through the noise.
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  bool a_registered = false;
  ca.Register(4321, [&](Result<Endpoint> r) { a_registered = r.ok(); });
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpHolePuncher pa(&ca);
  UdpHolePuncher pb(&cb);
  bool punched = false;
  net.event_loop().ScheduleAfter(Seconds(1), [&] {
    pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { punched = r.ok(); });
  });
  net.RunFor(Seconds(20));

  EXPECT_GT(blaster.sent(), 1000u);
  EXPECT_TRUE(a_registered);
  EXPECT_TRUE(punched);

  // The server dropped-and-counted instead of crashing or believing any of
  // it: malformed frames were charged to the attacker, who crossed the
  // quarantine threshold and was then ignored wholesale (quarantined drops
  // dwarf what the rate limiter alone would shed).
  const auto& stats = server.stats();
  EXPECT_GT(stats.malformed_frames, 0u);
  EXPECT_GE(stats.quarantined_sources, 1u);
  EXPECT_GT(stats.quarantined_drops, 100u);
  EXPECT_GT(topo.server->malformed_drops(), 0u);
  // Both honest clients are registered despite the noise.
  EXPECT_GE(server.client_count(), 2u);
}

}  // namespace
}  // namespace natpunch
