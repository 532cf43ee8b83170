// Tests for the core hole punching library: UDP punching across the
// paper's three topologies (Figs. 4, 5, 6), TCP punching under both §4.3 OS
// behaviors and §5.2 NAT misbehaviors, connection reversal, sequential
// punching, relaying, NAT probing, and port prediction.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/connector.h"
#include "src/core/nat_prober.h"
#include "src/core/prediction.h"
#include "src/core/relay.h"
#include "src/core/sequential.h"
#include "src/core/tcp_puncher.h"
#include "src/core/udp_puncher.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"

namespace natpunch {
namespace {

NatConfig Symmetric() {
  NatConfig config;
  config.mapping = NatMapping::kAddressAndPortDependent;
  return config;
}

// ---------------------------------------------------------------------------
// UDP hole punching
// ---------------------------------------------------------------------------

class UdpPunchTest : public ::testing::Test {
 protected:
  void BuildFig5(const NatConfig& nat_a, const NatConfig& nat_b,
                 Scenario::Options options = Scenario::Options{}) {
    DropPeers();
    topo5_ = MakeFig5(nat_a, nat_b, options);
    Setup(topo5_.scenario.get(), topo5_.server, topo5_.a, topo5_.b);
  }

  // Takes a test-built topology's scenario, so that it outlives the server,
  // clients and punchers below.
  void Setup(std::unique_ptr<Scenario> scenario, Host* server_host, Host* a, Host* b) {
    DropPeers();
    owned_scenario_ = std::move(scenario);
    Setup(owned_scenario_.get(), server_host, a, b);
  }

  void Setup(Scenario* scenario, Host* server_host, Host* a, Host* b) {
    scenario_ = scenario;
    server_ = std::make_unique<RendezvousServer>(server_host, kServerPort);
    ASSERT_TRUE(server_->Start().ok());
    ca_ = std::make_unique<UdpRendezvousClient>(a, server_->endpoint(), 1);
    cb_ = std::make_unique<UdpRendezvousClient>(b, server_->endpoint(), 2);
    ca_->Register(4321, [](Result<Endpoint>) {});
    cb_->Register(4321, [](Result<Endpoint>) {});
    pa_ = std::make_unique<UdpHolePuncher>(ca_.get());
    pb_ = std::make_unique<UdpHolePuncher>(cb_.get());
    pb_->SetIncomingSessionCallback([this](UdpP2pSession* s) { incoming_ = s; });
    scenario_->net().RunFor(Seconds(2));
    ASSERT_TRUE(ca_->registered());
    ASSERT_TRUE(cb_->registered());
  }

  // A previous Setup's objects die first, while the scenario they run on
  // still exists.
  void DropPeers() {
    pb_.reset();
    pa_.reset();
    cb_.reset();
    ca_.reset();
    server_.reset();
    session_ = nullptr;
    incoming_ = nullptr;
  }

  // Punch from A to B and return A's session (nullptr on failure).
  UdpP2pSession* Punch(SimDuration budget = Seconds(15)) {
    punch_result_ = Status(ErrorCode::kInProgress);
    pa_->ConnectToPeer(2, [this](Result<UdpP2pSession*> r) {
      punch_result_ = r.ok() ? Status::Ok() : r.status();
      session_ = r.ok() ? *r : nullptr;
      punched_at_ = scenario_->net().now();
    });
    scenario_->net().RunFor(budget);
    return session_;
  }

  // Session timer cases: both punchers run `config`, and the trace records
  // every hop from here on.
  void BuildFig5ForSessionTimer(const UdpPunchConfig& config) {
    BuildFig5(NatConfig{}, NatConfig{});
    pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), config);
    pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), config);
    scenario_->net().trace().set_enabled(true);
  }

  // Cut B's site off: nothing B sends from now on reaches A.
  void SilenceB() { topo5_.site_b.lan->set_up(false); }

  // When A put a packet for `to` on its LAN, after `since`.
  std::vector<SimTime> SendsFromA(const Endpoint& to, SimTime since) const {
    std::vector<SimTime> times;
    for (const TraceRecord& r : scenario_->net().trace().records()) {
      if (r.event == TraceEvent::kSend && r.node == topo5_.a->trace_id() && r.dst == to &&
          r.time > since) {
        times.push_back(r.time);
      }
    }
    return times;
  }

  // When the last packet from `from` reached A.
  SimTime LastDeliveryToA(const Endpoint& from) const {
    SimTime last;
    for (const TraceRecord& r : scenario_->net().trace().records()) {
      if (r.event == TraceEvent::kDeliver && r.node == topo5_.a->trace_id() && r.src == from) {
        last = r.time;
      }
    }
    return last;
  }

  Scenario* scenario_ = nullptr;
  Fig5Topology topo5_;
  std::unique_ptr<Scenario> owned_scenario_;
  std::unique_ptr<RendezvousServer> server_;
  std::unique_ptr<UdpRendezvousClient> ca_, cb_;
  std::unique_ptr<UdpHolePuncher> pa_, pb_;
  UdpP2pSession* session_ = nullptr;
  UdpP2pSession* incoming_ = nullptr;
  Status punch_result_;
  SimTime punched_at_;
};

TEST_F(UdpPunchTest, Fig5ConeNatsSucceedOnPublicEndpoints) {
  BuildFig5(NatConfig{}, NatConfig{});
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr) << punch_result_.ToString();
  EXPECT_FALSE(session->used_private_endpoint());
  EXPECT_EQ(session->peer_endpoint().ip, NatBIp());
  ASSERT_NE(incoming_, nullptr);

  // Data flows both ways over the punched path.
  Bytes a_got, b_got;
  session->SetReceiveCallback([&](const Bytes& p) { a_got = p; });
  incoming_->SetReceiveCallback([&](const Bytes& p) { b_got = p; });
  session->Send(Bytes{'h', 'i'});
  incoming_->Send(Bytes{'y', 'o'});
  scenario_->net().RunFor(Seconds(1));
  EXPECT_EQ(b_got, (Bytes{'h', 'i'}));
  EXPECT_EQ(a_got, (Bytes{'y', 'o'}));
  // And the rendezvous server relayed none of it.
  EXPECT_EQ(server_->stats().relayed_messages, 0u);
}

TEST_F(UdpPunchTest, Fig5RestrictedConeAlsoWorks) {
  // Filtering does not break punching — both sides' outbound probes open
  // their own filters (§3.4).
  NatConfig restricted;
  restricted.filtering = NatFiltering::kAddressAndPortDependent;
  BuildFig5(restricted, restricted);
  EXPECT_NE(Punch(), nullptr);
}

TEST_F(UdpPunchTest, Fig5SymmetricNatDefeatsBasicPunching) {
  BuildFig5(Symmetric(), NatConfig{});
  EXPECT_EQ(Punch(), nullptr);
  EXPECT_EQ(punch_result_.code(), ErrorCode::kTimedOut);
}

TEST_F(UdpPunchTest, Fig5SurvivesFirstPacketLoss) {
  // Probes retransmit every kProbeInterval, so moderate loss only delays
  // the punch.
  Scenario::Options options;
  options.internet_loss = 0.3;
  options.seed = 7;
  BuildFig5(NatConfig{}, NatConfig{}, options);
  EXPECT_NE(Punch(), nullptr);
}

TEST_F(UdpPunchTest, Fig4CommonNatPrefersPrivateEndpoints) {
  // §3.3: behind a common NAT the private-endpoint probes arrive over the
  // LAN and win (public ones need hairpin, absent here).
  auto topo = MakeFig4(NatConfig{});
  Setup(std::move(topo.scenario), topo.server, topo.a, topo.b);
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr) << punch_result_.ToString();
  EXPECT_TRUE(session->used_private_endpoint());
  EXPECT_TRUE(session->peer_endpoint().ip.IsPrivate());
}

TEST_F(UdpPunchTest, Fig4WithoutPrivateCandidatesNeedsHairpin) {
  // Disable private-endpoint probing ("assume hairpin" variant of §3.3):
  // with hairpin off the punch must fail; with hairpin on it must succeed
  // via the NAT loopback.
  for (bool hairpin : {false, true}) {
    NatConfig config;
    config.hairpin_udp = hairpin;
    auto topo = MakeFig4(config);
    Setup(std::move(topo.scenario), topo.server, topo.a, topo.b);
    UdpPunchConfig punch_config;
    punch_config.try_private_endpoint = false;
    pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), punch_config);
    pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), punch_config);
    UdpP2pSession* session = Punch();
    if (hairpin) {
      ASSERT_NE(session, nullptr);
      EXPECT_FALSE(session->used_private_endpoint());
      EXPECT_GE(topo.site.nat->stats().hairpinned, 1u);
    } else {
      EXPECT_EQ(session, nullptr);
    }
  }
}

TEST_F(UdpPunchTest, Fig6MultiLevelNeedsHairpinOnIspNat) {
  // §3.5: the clients must use their global endpoints, which only works if
  // NAT C hairpins.
  for (bool hairpin : {false, true}) {
    NatConfig isp;
    isp.hairpin_udp = hairpin;
    auto topo = MakeFig6(isp, NatConfig{}, NatConfig{});
    Setup(std::move(topo.scenario), topo.server, topo.a, topo.b);
    UdpP2pSession* session = Punch();
    if (hairpin) {
      ASSERT_NE(session, nullptr);
      EXPECT_GE(topo.isp.nat->stats().hairpinned, 1u);
    } else {
      EXPECT_EQ(session, nullptr);
    }
  }
}

TEST_F(UdpPunchTest, StrayHostCannotHijackSession) {
  // A host on B's LAN shares B's port and receives stray probes (§3.4);
  // without the nonce it must not become the session peer.
  BuildFig5(NatConfig{}, NatConfig{});
  // A's probes to B's private endpoint 10.1.1.3 leak onto A's LAN and die
  // (different subnet), so instead plant the stray on A's own subnet with
  // B's role: give A's site a second host bound to the same port that
  // replies to everything it hears.
  Host* stray = topo5_.scenario->AddHostToSite(&topo5_.site_a, "stray",
                                               Ipv4Address::FromOctets(10, 0, 0, 9));
  auto stray_sock = stray->udp().Bind(4321);
  ASSERT_TRUE(stray_sock.ok());
  (*stray_sock)->SetReceiveCallback([s = *stray_sock](const Endpoint& from, const Payload&) {
    s->SendTo(from, Bytes{'f', 'a', 'k', 'e'});  // not a valid PeerMessage
  });
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->peer_endpoint().ip, NatBIp());  // the real B
}

TEST_F(UdpPunchTest, KeepAlivesSustainSessionThroughShortTimeouts) {
  NatConfig short_timeout;
  short_timeout.udp_timeout = Seconds(20);
  BuildFig5(short_timeout, short_timeout);
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr);
  bool died = false;
  session->SetDeadCallback([&](Status) { died = true; });
  // Keep-alive interval (15s) < NAT timeout (20s): session survives.
  scenario_->net().RunFor(Seconds(90));
  EXPECT_FALSE(died);
  Bytes got;
  ASSERT_NE(incoming_, nullptr);
  incoming_->SetReceiveCallback([&](const Bytes& p) { got = p; });
  session->Send(Bytes{'o', 'k'});
  scenario_->net().RunFor(Seconds(1));
  EXPECT_EQ(got, (Bytes{'o', 'k'}));
}

TEST_F(UdpPunchTest, WithoutKeepAlivesSessionDies) {
  auto topo = MakeFig5(NatConfig{}, NatConfig{});
  NatConfig& config = topo.site_a.nat->mutable_config();
  config.udp_timeout = Seconds(20);
  topo.site_b.nat->mutable_config().udp_timeout = Seconds(20);
  Setup(std::move(topo.scenario), topo.server, topo.a, topo.b);
  // The registrations with S stay alive (clients normally keep those warm);
  // §3.6's point is that this does NOT keep the p2p session's own NAT
  // timers fresh.
  ca_->StartKeepAlive(Seconds(10));
  cb_->StartKeepAlive(Seconds(10));
  UdpPunchConfig no_keepalive;
  no_keepalive.keepalives_enabled = false;
  no_keepalive.session_expiry = Seconds(40);
  pa_ = std::make_unique<UdpHolePuncher>(ca_.get(), no_keepalive);
  pb_ = std::make_unique<UdpHolePuncher>(cb_.get(), no_keepalive);
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr);
  bool died = false;
  session->SetDeadCallback([&](Status) { died = true; });
  scenario_->net().RunFor(Seconds(60));
  EXPECT_TRUE(died);
  // Re-punching on demand (§3.6) restores connectivity.
  session_ = nullptr;
  EXPECT_NE(Punch(), nullptr);
}

TEST_F(UdpPunchTest, JitteredKeepalivesLeaveAtPunchPlusMultiplesOfTheInterval) {
  // §3.6 keepalives: a session keeps one jittered cadence, hashed from its
  // nonce, from the instant it is punched.
  UdpPunchConfig config;
  config.keepalive_interval = Seconds(15);
  config.keepalive_jitter = Seconds(1);
  BuildFig5ForSessionTimer(config);
  UdpP2pSession* session = Punch();
  ASSERT_NE(session, nullptr);
  scenario_->net().RunFor(Seconds(100));

  const int64_t jitter = config.keepalive_jitter.micros();
  const SimDuration interval =
      config.keepalive_interval +
      Micros(static_cast<int64_t>(HashMix64(session->nonce()) %
                                  static_cast<uint64_t>(2 * jitter + 1)) -
             jitter);
  std::vector<SimTime> expected;
  for (SimTime at = punched_at_ + interval; at <= scenario_->net().now(); at = at + interval) {
    expected.push_back(at);
  }
  ASSERT_GE(expected.size(), 6u);
  // Probe replies to B's last probes leave within the first second; every
  // later packet for B is a keepalive.
  EXPECT_EQ(SendsFromA(session->peer_endpoint(), punched_at_ + Seconds(1)), expected);
  EXPECT_TRUE(session->alive());
}

TEST_F(UdpPunchTest, SilencedPeerDiesExactlyOneExpiryAfterItsLastDatagram) {
  // With keepalives on, A's timer fires at its own keepalive instants until
  // the expiry deadline comes first; without them, only at the deadline.
  // Either way the dead callback runs at last inbound + session_expiry.
  for (bool keepalives : {true, false}) {
    SCOPED_TRACE(keepalives ? "keepalives on" : "keepalives off");
    UdpPunchConfig config;
    config.keepalives_enabled = keepalives;
    config.session_expiry = Seconds(40);
    BuildFig5ForSessionTimer(config);
    UdpP2pSession* session = Punch();
    ASSERT_NE(session, nullptr);
    SimTime dead_at;
    Status dead_status;
    session->SetDeadCallback([&](Status status) {
      dead_at = scenario_->net().now();
      dead_status = status;
    });
    if (keepalives) {
      scenario_->net().RunFor(Seconds(20));  // B's keepalives reach A meanwhile
    }
    SilenceB();
    scenario_->net().RunFor(Seconds(60));

    const SimTime last_inbound = LastDeliveryToA(session->peer_endpoint());
    if (keepalives) {
      ASSERT_GT(last_inbound, punched_at_ + Seconds(15));  // a keepalive from B
    }
    EXPECT_FALSE(session->alive());
    EXPECT_EQ(dead_status.code(), ErrorCode::kTimedOut);
    EXPECT_EQ(dead_at, last_inbound + config.session_expiry);
  }
}

TEST_F(UdpPunchTest, ExpiryDueWithAKeepaliveClosesWithoutSendingIt) {
  // Expiry = 3 x interval, no jitter, and B silent from the punch: the
  // deadline falls in the same microsecond as A's third keepalive. Expiry
  // is checked first, so the session closes and that keepalive never
  // leaves.
  UdpPunchConfig config;
  config.keepalive_interval = Seconds(5);
  config.session_expiry = Seconds(15);
  BuildFig5ForSessionTimer(config);
  SimTime dead_at;
  pa_->ConnectToPeer(2, [&](Result<UdpP2pSession*> r) {
    ASSERT_TRUE(r.ok());
    session_ = *r;
    punched_at_ = scenario_->net().now();
    session_->SetDeadCallback([&](Status) { dead_at = scenario_->net().now(); });
    SilenceB();
  });
  scenario_->net().RunFor(Seconds(30));
  ASSERT_NE(session_, nullptr);
  ASSERT_EQ(LastDeliveryToA(session_->peer_endpoint()), punched_at_);  // nothing after

  EXPECT_FALSE(session_->alive());
  EXPECT_EQ(dead_at, punched_at_ + Seconds(15));
  EXPECT_EQ(SendsFromA(session_->peer_endpoint(), punched_at_ + Seconds(1)),
            (std::vector<SimTime>{punched_at_ + Seconds(5), punched_at_ + Seconds(10)}));
}

// ---------------------------------------------------------------------------
// TCP hole punching
// ---------------------------------------------------------------------------

class TcpPunchTest : public ::testing::Test {
 protected:
  void Build(const NatConfig& nat_a, const NatConfig& nat_b,
             TcpAcceptPolicy policy_a = TcpAcceptPolicy::kBsd,
             TcpAcceptPolicy policy_b = TcpAcceptPolicy::kBsd) {
    Scenario::Options options;
    options.host_config.tcp.accept_policy = TcpAcceptPolicy::kBsd;  // server
    topo_ = MakeFig5(nat_a, nat_b, options);
    // Rebuild client hosts is not possible; instead create clients on
    // separate hosts with the right policies.
    HostConfig config_a;
    config_a.tcp.accept_policy = policy_a;
    config_a.tcp.initial_rto = Millis(500);
    HostConfig config_b;
    config_b.tcp.accept_policy = policy_b;
    config_b.tcp.initial_rto = Millis(500);
    a_ = topo_.scenario->net().Create<Host>("a2", config_a);
    int iface = a_->AttachTo(topo_.site_a.lan, Ipv4Address::FromOctets(10, 0, 0, 50));
    a_->AddDefaultRoute(iface, topo_.site_a.nat->iface_ip(0));
    b_ = topo_.scenario->net().Create<Host>("b2", config_b);
    iface = b_->AttachTo(topo_.site_b.lan, Ipv4Address::FromOctets(10, 1, 1, 50));
    b_->AddDefaultRoute(iface, topo_.site_b.nat->iface_ip(0));

    server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
    ASSERT_TRUE(server_->Start().ok());
    ca_ = std::make_unique<TcpRendezvousClient>(a_, server_->endpoint(), 1);
    cb_ = std::make_unique<TcpRendezvousClient>(b_, server_->endpoint(), 2);
    ca_->Connect(4321, [](Result<Endpoint>) {});
    cb_->Connect(4321, [](Result<Endpoint>) {});
    pa_ = std::make_unique<TcpHolePuncher>(ca_.get());
    pb_ = std::make_unique<TcpHolePuncher>(cb_.get());
    pb_->SetIncomingStreamCallback([this](TcpP2pStream* s) { incoming_ = s; });
    topo_.scenario->net().RunFor(Seconds(3));
    ASSERT_TRUE(ca_->registered());
    ASSERT_TRUE(cb_->registered());
  }

  TcpP2pStream* Punch(ConnectStrategy strategy = ConnectStrategy::kHolePunch,
                      SimDuration budget = Seconds(40)) {
    punch_result_ = Status(ErrorCode::kInProgress);
    pa_->ConnectToPeer(2, strategy, [this](Result<TcpP2pStream*> r) {
      punch_result_ = r.ok() ? Status::Ok() : r.status();
      stream_ = r.ok() ? *r : nullptr;
    });
    topo_.scenario->net().RunFor(budget);
    return stream_;
  }

  void ExpectDataFlows() {
    ASSERT_NE(stream_, nullptr);
    ASSERT_NE(incoming_, nullptr);
    Bytes a_got, b_got;
    stream_->SetReceiveCallback([&](const Bytes& p) { a_got = p; });
    incoming_->SetReceiveCallback([&](const Bytes& p) { b_got = p; });
    stream_->Send(Bytes{'p', 'i', 'n', 'g'});
    incoming_->Send(Bytes{'p', 'o', 'n', 'g'});
    topo_.scenario->net().RunFor(Seconds(2));
    EXPECT_EQ(b_got, (Bytes{'p', 'i', 'n', 'g'}));
    EXPECT_EQ(a_got, (Bytes{'p', 'o', 'n', 'g'}));
  }

  Fig5Topology topo_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  std::unique_ptr<RendezvousServer> server_;
  std::unique_ptr<TcpRendezvousClient> ca_, cb_;
  std::unique_ptr<TcpHolePuncher> pa_, pb_;
  TcpP2pStream* stream_ = nullptr;
  TcpP2pStream* incoming_ = nullptr;
  Status punch_result_;
};

TEST_F(TcpPunchTest, BsdStacksPunchViaConnect) {
  Build(NatConfig{}, NatConfig{}, TcpAcceptPolicy::kBsd, TcpAcceptPolicy::kBsd);
  TcpP2pStream* stream = Punch();
  ASSERT_NE(stream, nullptr) << punch_result_.ToString();
  ExpectDataFlows();
}

TEST_F(TcpPunchTest, LinuxStacksPunchViaAccept) {
  // §4.4: with behavior-2 stacks on both ends the streams arrive via
  // accept() and all connects fail with EADDRINUSE.
  Build(NatConfig{}, NatConfig{}, TcpAcceptPolicy::kLinuxWindows,
        TcpAcceptPolicy::kLinuxWindows);
  TcpP2pStream* stream = Punch();
  ASSERT_NE(stream, nullptr) << punch_result_.ToString();
  ExpectDataFlows();
}

TEST_F(TcpPunchTest, MixedStacksPunch) {
  Build(NatConfig{}, NatConfig{}, TcpAcceptPolicy::kBsd, TcpAcceptPolicy::kLinuxWindows);
  TcpP2pStream* stream = Punch();
  ASSERT_NE(stream, nullptr) << punch_result_.ToString();
  ExpectDataFlows();
}

TEST_F(TcpPunchTest, RstingNatRecoveredByRetry) {
  // §5.2: a NAT that answers unsolicited SYNs with RST is "not necessarily
  // fatal, as long as the applications re-try" — but it costs time.
  NatConfig rsting;
  rsting.unsolicited_tcp = NatUnsolicitedTcp::kRst;
  Build(rsting, rsting);
  // Slow B's LAN so A's first SYN reaches NAT B before B's own SYN has
  // opened the hole — the asymmetric timing that actually draws the RST.
  topo_.site_b.lan->set_config(LanConfig{.latency = Millis(40)});
  TcpP2pStream* stream = Punch();
  ASSERT_NE(stream, nullptr) << punch_result_.ToString();
  EXPECT_GE(pa_->last_stats().refused + pb_->last_stats().refused, 1);
  ExpectDataFlows();
}

TEST_F(TcpPunchTest, SymmetricNatDefeatsTcpPunching) {
  Build(Symmetric(), NatConfig{});
  EXPECT_EQ(Punch(ConnectStrategy::kHolePunch, Seconds(40)), nullptr);
  EXPECT_EQ(punch_result_.code(), ErrorCode::kTimedOut);
}

TEST_F(TcpPunchTest, ReversalWorksWhenRequesterIsPublic) {
  // §2.3: A public (no NAT), B NATed; B cannot accept inbound, so A asks B
  // to connect back. Here the roles: requester A is public.
  Scenario::Options options;
  topo_ = MakeFig5(NatConfig{}, NatConfig{}, options);
  // Public host A on the internet directly.
  a_ = topo_.scenario->AddPublicHost("pubA", Ipv4Address::FromOctets(99, 1, 1, 1));
  b_ = topo_.b;
  server_ = std::make_unique<RendezvousServer>(topo_.server, kServerPort);
  ASSERT_TRUE(server_->Start().ok());
  ca_ = std::make_unique<TcpRendezvousClient>(a_, server_->endpoint(), 1);
  cb_ = std::make_unique<TcpRendezvousClient>(b_, server_->endpoint(), 2);
  ca_->Connect(4321, [](Result<Endpoint>) {});
  cb_->Connect(4321, [](Result<Endpoint>) {});
  pa_ = std::make_unique<TcpHolePuncher>(ca_.get());
  pb_ = std::make_unique<TcpHolePuncher>(cb_.get());
  pb_->SetIncomingStreamCallback([this](TcpP2pStream* s) { incoming_ = s; });
  topo_.scenario->net().RunFor(Seconds(3));

  TcpP2pStream* stream = Punch(ConnectStrategy::kReversal);
  ASSERT_NE(stream, nullptr) << punch_result_.ToString();
  EXPECT_TRUE(stream->via_accept());  // requester's stream arrived inbound
  ExpectDataFlows();
}

TEST_F(TcpPunchTest, SequentialPunchingWorksOnConeNats) {
  Build(NatConfig{}, NatConfig{});
  SequentialPuncher sa(ca_.get());
  SequentialPuncher sb(cb_.get());
  TcpP2pStream* incoming = nullptr;
  sb.SetIncomingStreamCallback([&](TcpP2pStream* s) { incoming = s; });
  Result<TcpP2pStream*> result = Status(ErrorCode::kInProgress);
  sa.ConnectToPeer(2, [&](Result<TcpP2pStream*> r) { result = std::move(r); });
  topo_.scenario->net().RunFor(Seconds(30));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(incoming, nullptr);
  // §4.5: the procedure consumed both sides' connections to S.
  EXPECT_EQ(sa.server_connections_consumed(), 1);
  EXPECT_EQ(sb.server_connections_consumed(), 1);

  Bytes got;
  incoming->SetReceiveCallback([&](const Bytes& p) { got = p; });
  (*result)->Send(Bytes{'s', 'e', 'q'});
  topo_.scenario->net().RunFor(Seconds(2));
  EXPECT_EQ(got, (Bytes{'s', 'e', 'q'}));
}

// ---------------------------------------------------------------------------
// Relay, prober, prediction, connector
// ---------------------------------------------------------------------------

TEST(RelayTest, ChannelsCarryDataThroughServer) {
  auto topo = MakeFig5(Symmetric(), Symmetric());  // punching would fail
  RendezvousServer server(topo.server, kServerPort);
  ASSERT_TRUE(server.Start().ok());
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  RelayHub hub_a(&ca);
  RelayHub hub_b(&cb);
  topo.scenario->net().RunFor(Seconds(2));

  RelayChannel* incoming = nullptr;
  hub_b.SetIncomingChannelCallback([&](RelayChannel* c) { incoming = c; });
  RelayChannel* to_b = hub_a.OpenChannel(2);
  Bytes got;
  to_b->Send(Bytes{'v', 'i', 'a', 'S'});
  topo.scenario->net().RunFor(Seconds(2));
  ASSERT_NE(incoming, nullptr);
  incoming->SetReceiveCallback([&](const Bytes& p) { got = p; });
  to_b->Send(Bytes{'m', 'o', 'r', 'e'});
  topo.scenario->net().RunFor(Seconds(2));
  EXPECT_EQ(got, (Bytes{'m', 'o', 'r', 'e'}));
  EXPECT_EQ(server.stats().relayed_messages, 2u);
  EXPECT_EQ(incoming->messages_received(), 2u);
}

class ProberTest : public ::testing::Test {
 protected:
  void Build(const NatConfig& nat) {
    topo_ = MakeFig5(nat, NatConfig{});
    s1_host_ = topo_.server;
    s2_host_ = topo_.scenario->AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
    s1_ = std::make_unique<StunLikeServer>(s1_host_, 3478);
    s2_ = std::make_unique<StunLikeServer>(s2_host_, 3478);
    s1_->SetPartner(s2_->endpoint());
    s2_->SetPartner(s1_->endpoint());
    ASSERT_TRUE(s1_->Start().ok());
    ASSERT_TRUE(s2_->Start().ok());
  }

  NatProbeReport Probe() {
    NatProber prober(topo_.a, s1_->endpoint(), s2_->endpoint());
    Result<NatProbeReport> result = Status(ErrorCode::kInProgress);
    prober.Probe(4321, [&](Result<NatProbeReport> r) { result = std::move(r); });
    topo_.scenario->net().RunFor(Seconds(15));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : NatProbeReport{};
  }

  Fig5Topology topo_;
  Host* s1_host_ = nullptr;
  Host* s2_host_ = nullptr;
  std::unique_ptr<StunLikeServer> s1_, s2_;
};

TEST_F(ProberTest, ClassifiesPortRestrictedCone) {
  Build(NatConfig{});  // EI mapping, APD filtering (default)
  NatProbeReport report = Probe();
  EXPECT_TRUE(report.behind_nat);
  EXPECT_EQ(report.mapping, NatMapping::kEndpointIndependent);
  EXPECT_EQ(report.filtering, NatFiltering::kAddressAndPortDependent);
  EXPECT_EQ(report.port_delta, 0);
  EXPECT_EQ(report.public_endpoint.ip, NatAIp());
}

TEST_F(ProberTest, ClassifiesFullCone) {
  NatConfig full;
  full.filtering = NatFiltering::kEndpointIndependent;
  Build(full);
  NatProbeReport report = Probe();
  EXPECT_EQ(report.mapping, NatMapping::kEndpointIndependent);
  EXPECT_EQ(report.filtering, NatFiltering::kEndpointIndependent);
}

TEST_F(ProberTest, ClassifiesRestrictedCone) {
  NatConfig restricted;
  restricted.filtering = NatFiltering::kAddressDependent;
  Build(restricted);
  NatProbeReport report = Probe();
  EXPECT_EQ(report.mapping, NatMapping::kEndpointIndependent);
  EXPECT_EQ(report.filtering, NatFiltering::kAddressDependent);
}

TEST_F(ProberTest, ClassifiesSymmetricWithStride) {
  Build(Symmetric());  // sequential allocation
  NatProbeReport report = Probe();
  EXPECT_EQ(report.mapping, NatMapping::kAddressAndPortDependent);
  EXPECT_EQ(report.port_delta, 1);  // sequential allocator stride
}

TEST_F(ProberTest, DetectsNoNat) {
  Build(NatConfig{});
  NatProber prober(s2_host_, s1_->endpoint(), s2_->endpoint());
  Result<NatProbeReport> result = Status(ErrorCode::kInProgress);
  prober.Probe(5555, [&](Result<NatProbeReport> r) { result = std::move(r); });
  topo_.scenario->net().RunFor(Seconds(15));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->behind_nat);
  EXPECT_EQ(result->mapping, NatMapping::kEndpointIndependent);
}

TEST(PredictionTest, PunchesThroughSequentialSymmetricNats) {
  // §5.1: prediction works "much of the time" against predictable
  // symmetric NATs in quiet conditions.
  auto topo = MakeFig5(Symmetric(), Symmetric());
  RendezvousServer server(topo.server, kServerPort);
  ASSERT_TRUE(server.Start().ok());
  Host* s2_host = topo.scenario->AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
  StunLikeServer stun1(topo.server, 3478);
  StunLikeServer stun2(s2_host, 3478);
  ASSERT_TRUE(stun1.Start().ok());
  ASSERT_TRUE(stun2.Start().ok());

  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpHolePuncher pa(&ca);
  UdpHolePuncher pb(&cb);
  PredictivePuncher predict_a(&pa, stun1.endpoint(), stun2.endpoint());
  PredictivePuncher predict_b(&pb, stun1.endpoint(), stun2.endpoint());
  UdpP2pSession* incoming = nullptr;
  pb.SetIncomingSessionCallback([&](UdpP2pSession* s) { incoming = s; });
  topo.scenario->net().RunFor(Seconds(2));

  Result<UdpP2pSession*> result = Status(ErrorCode::kInProgress);
  predict_a.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { result = std::move(r); });
  topo.scenario->net().RunFor(Seconds(20));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(incoming, nullptr);

  Bytes got;
  incoming->SetReceiveCallback([&](const Bytes& p) { got = p; });
  (*result)->Send(Bytes{'s', 'y', 'm'});
  topo.scenario->net().RunFor(Seconds(1));
  EXPECT_EQ(got, (Bytes{'s', 'y', 'm'}));
}

TEST(ConnectorTest, TcpPunchesWhenPossible) {
  auto topo = MakeFig5(NatConfig{}, NatConfig{});
  RendezvousServer server(topo.server, kServerPort);
  ASSERT_TRUE(server.Start().ok());
  TcpRendezvousClient ca(topo.a, server.endpoint(), 1);
  TcpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Connect(4321, [](Result<Endpoint>) {});
  cb.Connect(4321, [](Result<Endpoint>) {});
  TcpConnector conn_a(&ca);
  TcpConnector conn_b(&cb);
  TcpChannel* incoming = nullptr;
  conn_b.SetIncomingChannelCallback([&](TcpChannel* c) { incoming = c; });
  topo.scenario->net().RunFor(Seconds(3));

  Result<TcpChannel*> result = Status(ErrorCode::kInProgress);
  conn_a.Connect(2, [&](Result<TcpChannel*> r) { result = std::move(r); });
  topo.scenario->net().RunFor(Seconds(35));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->kind(), TcpChannel::Kind::kStream);
  ASSERT_NE(incoming, nullptr);
  Bytes got;
  incoming->SetReceiveCallback([&](const Bytes& p) { got = p; });
  (*result)->Send(Bytes{'t', 'c', 'p'});
  topo.scenario->net().RunFor(Seconds(2));
  EXPECT_EQ(got, (Bytes{'t', 'c', 'p'}));
}

TEST(ConnectorTest, TcpFallsBackToRelayOnSymmetricNats) {
  auto topo = MakeFig5(Symmetric(), Symmetric());
  RendezvousServer server(topo.server, kServerPort);
  ASSERT_TRUE(server.Start().ok());
  TcpRendezvousClient ca(topo.a, server.endpoint(), 1);
  TcpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Connect(4321, [](Result<Endpoint>) {});
  cb.Connect(4321, [](Result<Endpoint>) {});
  TcpPunchConfig punch;
  punch.punch_timeout = Seconds(8);
  TcpConnector conn_a(&ca, punch);
  TcpConnector conn_b(&cb, punch);
  TcpChannel* incoming = nullptr;
  conn_b.SetIncomingChannelCallback([&](TcpChannel* c) { incoming = c; });
  topo.scenario->net().RunFor(Seconds(3));

  Result<TcpChannel*> result = Status(ErrorCode::kInProgress);
  conn_a.Connect(2, [&](Result<TcpChannel*> r) { result = std::move(r); });
  topo.scenario->net().RunFor(Seconds(15));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->kind(), TcpChannel::Kind::kRelayed);
  Bytes got;
  (*result)->Send(Bytes{'v'});  // creates B's channel
  topo.scenario->net().RunFor(Seconds(2));
  ASSERT_NE(incoming, nullptr);
  incoming->SetReceiveCallback([&](const Bytes& p) { got = p; });
  (*result)->Send(Bytes{'i', 'a', 'S'});
  topo.scenario->net().RunFor(Seconds(2));
  EXPECT_EQ(got, (Bytes{'i', 'a', 'S'}));
}

}  // namespace
}  // namespace natpunch
