// Tests for the extension features beyond the paper's core evaluation:
// Basic NAT (§2.1 — "the principles and techniques apply equally well, if
// sometimes trivially, to Basic NAT"), the §6.3 port-contention misbehavior,
// and the multi-client NAT Check the paper planned as future work.

#include <gtest/gtest.h>

#include "src/core/udp_puncher.h"
#include "src/natcheck/client.h"
#include "src/natcheck/multi_client.h"
#include "src/natcheck/servers.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"

namespace natpunch {
namespace {

NatConfig BasicNat() {
  NatConfig config;
  config.basic_nat = true;
  return config;
}

// ---------------------------------------------------------------------------
// Basic NAT
// ---------------------------------------------------------------------------

class BasicNatTest : public ::testing::Test {
 protected:
  void Build(const NatConfig& nat) {
    topo_ = MakeFig5(nat, NatConfig{});
    observer_sock_ = *topo_.server->udp().Bind(kServerPort);
    observer_sock_->SetReceiveCallback([this](const Endpoint& from, const Payload&) {
      observed_ = from;
      observer_sock_->SendTo(from, Bytes{'a'});
    });
  }

  Fig5Topology topo_;
  UdpSocket* observer_sock_ = nullptr;
  Endpoint observed_;
};

TEST_F(BasicNatTest, TranslatesAddressOnlyPreservingPort) {
  Build(BasicNat());
  auto sock = topo_.a->udp().Bind(4321);
  Bytes reply;
  (*sock)->SetReceiveCallback([&](const Endpoint&, const Payload& p) { reply = p.ToBytes(); });
  (*sock)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{1});
  topo_.scenario->net().RunFor(Seconds(1));
  // Port preserved, address from the pool (public_ip + 1..N).
  EXPECT_EQ(observed_.port, 4321);
  EXPECT_NE(observed_.ip, topo_.a->primary_address());
  EXPECT_NE(observed_.ip, NatAIp());
  EXPECT_EQ(observed_.ip, Ipv4Address(NatAIp().bits() + 1));
  EXPECT_EQ(reply, (Bytes{'a'}));  // inbound de-translation works
}

TEST_F(BasicNatTest, DistinctHostsGetDistinctAddresses) {
  Build(BasicNat());
  Host* second = topo_.scenario->AddHostToSite(&topo_.site_a, "second",
                                               Ipv4Address::FromOctets(10, 0, 0, 9));
  auto s1 = topo_.a->udp().Bind(4321);
  auto s2 = second->udp().Bind(4321);  // same private port: fine for Basic NAT
  (*s1)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{1});
  topo_.scenario->net().RunFor(Seconds(1));
  const Endpoint first_public = observed_;
  (*s2)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{2});
  topo_.scenario->net().RunFor(Seconds(1));
  EXPECT_NE(observed_.ip, first_public.ip);
  EXPECT_EQ(observed_.port, 4321);  // both ports preserved
}

TEST_F(BasicNatTest, ConsistentTranslationAcrossDestinations) {
  Build(BasicNat());
  auto sock = topo_.a->udp().Bind(4321);
  (*sock)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{1});
  topo_.scenario->net().RunFor(Seconds(1));
  const Endpoint first = observed_;
  auto other = topo_.server->udp().Bind(5678);
  (*other)->SetReceiveCallback([this, s = *other](const Endpoint& from, const Payload&) {
    observed_ = from;
  });
  (*sock)->SendTo(Endpoint(ServerIp(), 5678), Bytes{2});
  topo_.scenario->net().RunFor(Seconds(1));
  EXPECT_EQ(observed_, first);  // trivially endpoint-independent
}

TEST_F(BasicNatTest, FilteringStillApplies) {
  Build(BasicNat());  // APD filtering default
  auto sock = topo_.a->udp().Bind(4321);
  bool received = false;
  (*sock)->SetReceiveCallback([&](const Endpoint&, const Payload&) { received = true; });
  (*sock)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{1});
  topo_.scenario->net().RunFor(Seconds(1));
  received = false;
  // A third party fires at the assigned public address: filtered.
  auto stray = topo_.b->udp().Bind(4321);
  (*stray)->SendTo(Endpoint(Ipv4Address(NatAIp().bits() + 1), 4321), Bytes{9});
  topo_.scenario->net().RunFor(Seconds(1));
  EXPECT_FALSE(received);
  EXPECT_GE(topo_.site_a.nat->stats().dropped_unsolicited, 1u);
}

TEST_F(BasicNatTest, PoolExhaustionDropsNewHosts) {
  NatConfig tiny = BasicNat();
  tiny.basic_pool_size = 1;
  Build(tiny);
  Host* second = topo_.scenario->AddHostToSite(&topo_.site_a, "second",
                                               Ipv4Address::FromOctets(10, 0, 0, 9));
  auto s1 = topo_.a->udp().Bind(4321);
  (*s1)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{1});
  topo_.scenario->net().RunFor(Seconds(1));
  const Endpoint first = observed_;
  observed_ = Endpoint();
  auto s2 = second->udp().Bind(4321);
  (*s2)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{2});
  topo_.scenario->net().RunFor(Seconds(1));
  EXPECT_TRUE(observed_.IsUnspecified());  // second host got nothing
  EXPECT_EQ(first.ip, Ipv4Address(NatAIp().bits() + 1));
}

TEST_F(BasicNatTest, HolePunchingWorksTrivially) {
  // §2.1: "the principles and techniques ... apply equally well (if
  // sometimes trivially) to Basic NAT."
  auto topo = MakeFig5(BasicNat(), NatConfig{});
  RendezvousServer server(topo.server, kServerPort);
  ASSERT_TRUE(server.Start().ok());
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpHolePuncher pa(&ca);
  UdpHolePuncher pb(&cb);
  topo.scenario->net().RunFor(Seconds(2));
  EXPECT_EQ(ca.public_endpoint().port, 4321);  // port preserved by Basic NAT
  UdpP2pSession* session = nullptr;
  pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { session = r.ok() ? *r : nullptr; });
  topo.scenario->net().RunFor(Seconds(10));
  ASSERT_NE(session, nullptr);
}

TEST_F(BasicNatTest, NatCheckClassifiesBasicNatCompatible) {
  Scenario scenario{Scenario::Options{}};
  Host* s1 = scenario.AddPublicHost("S1", Ipv4Address::FromOctets(18, 181, 0, 31));
  Host* s2 = scenario.AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
  Host* s3 = scenario.AddPublicHost("S3", Ipv4Address::FromOctets(18, 181, 0, 33));
  NattedSite site = scenario.AddNattedSite(
      "dev", BasicNat(), Ipv4Address::FromOctets(155, 99, 25, 11),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
  NatCheckServers servers(s1, s2, s3);
  ASSERT_TRUE(servers.Start().ok());
  NatCheckServerAddrs addrs{servers.udp_endpoint(1), servers.udp_endpoint(2),
                            servers.tcp_endpoint(1), servers.tcp_endpoint(2),
                            servers.tcp_endpoint(3)};
  NatCheckClient client(site.host(0), addrs);
  NatCheckReport report;
  client.Run(4321, [&](Result<NatCheckReport> r) {
    if (r.ok()) {
      report = *r;
    }
  });
  scenario.net().RunFor(Seconds(90));
  EXPECT_TRUE(report.UdpHolePunchCompatible());
  EXPECT_TRUE(report.TcpHolePunchCompatible());
  // Observed at a pool address with the private port preserved.
  EXPECT_EQ(report.udp_public_1.ip, Ipv4Address(NatAIp().bits() + 1));
  EXPECT_EQ(report.udp_public_1.port, 4321);
}

// ---------------------------------------------------------------------------
// Port-contention switching (§6.3) and the multi-client check
// ---------------------------------------------------------------------------

class ContentionTest : public ::testing::Test {
 protected:
  void Build(bool switches) {
    NatConfig nat;
    nat.symmetric_on_port_contention = switches;
    topo_ = MakeFig5(nat, NatConfig{});
    // A second host behind NAT A sharing the private port.
    second_ = topo_.scenario->AddHostToSite(&topo_.site_a, "second",
                                            Ipv4Address::FromOctets(10, 0, 0, 9));
    s1_host_ = topo_.server;
    s2_host_ = topo_.scenario->AddPublicHost("S2b", Ipv4Address::FromOctets(18, 181, 0, 32));
    servers_ = std::make_unique<NatCheckServers>(
        s1_host_, s2_host_,
        topo_.scenario->AddPublicHost("S3b", Ipv4Address::FromOctets(18, 181, 0, 33)));
    ASSERT_TRUE(servers_->Start().ok());
  }

  MultiClientReport RunCheck() {
    MultiClientNatCheck check(topo_.a, second_, servers_->udp_endpoint(1),
                              servers_->udp_endpoint(2));
    MultiClientReport report;
    bool done = false;
    check.Run([&](Result<MultiClientReport> r) {
      done = true;
      if (r.ok()) {
        report = *r;
      }
    });
    topo_.scenario->net().RunFor(Seconds(30));
    EXPECT_TRUE(done);
    return report;
  }

  Fig5Topology topo_;
  Host* second_ = nullptr;
  Host* s1_host_ = nullptr;
  Host* s2_host_ = nullptr;
  std::unique_ptr<NatCheckServers> servers_;
};

TEST_F(ContentionTest, WellBehavedNatStaysConsistent) {
  Build(/*switches=*/false);
  MultiClientReport report = RunCheck();
  EXPECT_TRUE(report.solo_consistent);
  EXPECT_TRUE(report.client2_consistent);
  EXPECT_TRUE(report.contended_consistent);
  EXPECT_FALSE(report.SwitchesUnderContention());
}

TEST_F(ContentionTest, SwitchingNatDetectedOnlyByMultiClientCheck) {
  Build(/*switches=*/true);
  MultiClientReport report = RunCheck();
  // Solo it looked perfectly cone — the single-client NAT Check (and hence
  // Table 1) would classify it as hole-punching compatible.
  EXPECT_TRUE(report.solo_consistent);
  // Under contention the mapping went symmetric.
  EXPECT_FALSE(report.contended_consistent);
  EXPECT_TRUE(report.SwitchesUnderContention());
}

TEST_F(ContentionTest, DistinctPortsAvoidTheSwitch) {
  Build(/*switches=*/true);
  // Clients on different private ports never contend.
  MultiClientNatCheck check(topo_.a, second_, servers_->udp_endpoint(1),
                            servers_->udp_endpoint(2));
  // Pre-bind the second client elsewhere so its later bind on 4321 fails —
  // instead just verify directly: first client alone stays consistent even
  // after the second client uses a DIFFERENT port.
  auto other = second_->udp().Bind(9999);
  (*other)->SendTo(servers_->udp_endpoint(1), EncodeNcMessage(NcMessage{}));
  MultiClientReport report;
  bool done = false;
  check.Run([&](Result<MultiClientReport> r) {
    done = true;
    if (r.ok()) {
      report = *r;
    }
  });
  topo_.scenario->net().RunFor(Seconds(30));
  ASSERT_TRUE(done);
  // The shared-port phases still contend (4321 on both), so the switch is
  // detected; the 9999 flow changed nothing.
  EXPECT_TRUE(report.SwitchesUnderContention());
}

}  // namespace
}  // namespace natpunch
