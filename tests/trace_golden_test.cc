// Golden-trace oracle for the NAT datapath rewrite: fixed-seed scenarios
// spanning every translation path (outbound mapping churn, inbound
// filtering, expiry + re-map, hairpin, Basic NAT, ICMP quotation
// translation in both directions, unsolicited-TCP rejection, the full NAT
// Check instrument) must produce byte-identical Trace::Dump() output across
// substrate rewrites. The hashes below were recorded from the ordered-map
// NatTable implementation; the flat-hash fast path must reproduce them
// exactly, proving the optimization changed no observable behavior.
//
// On mismatch, set NATPUNCH_TRACE_GOLDEN_DIR=<dir> to write each scenario's
// dump to <dir>/<name>.txt and diff against a known-good build.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/fleet/fleet.h"
#include "src/natcheck/client.h"
#include "src/natcheck/servers.h"
#include "src/scenario/scenario.h"

namespace natpunch {
namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void CheckGolden(const char* name, const std::string& dump, uint64_t want_hash,
                 size_t want_size) {
  if (const char* dir = std::getenv("NATPUNCH_TRACE_GOLDEN_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::ofstream out(std::string(dir) + "/" + name + ".txt");
    out << dump;
  }
  EXPECT_EQ(Fnv1a64(dump), want_hash) << name << ": trace dump diverged (size "
                                      << dump.size() << ", want " << want_size << ")";
  EXPECT_EQ(dump.size(), want_size) << name;
}

// A steady UDP exchange across two cone NATs, then idle past udp_timeout
// (sweep expiry), then a fresh exchange (re-map through the recycled port
// space). Covers MapOutbound create/refresh, inbound filter drops of the
// first unsolicited arrivals, expiry, and re-creation.
TEST(TraceGoldenTest, UdpPunchExpiryRepunch) {
  Scenario::Options options;
  options.seed = 1234;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);

  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  const Endpoint a_pub(NatAIp(), 62000);
  const Endpoint b_pub(NatBIp(), 62000);
  const uint8_t msg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE((*sa)->SendTo(b_pub, msg, sizeof(msg)).ok());
    ASSERT_TRUE((*sb)->SendTo(a_pub, msg, sizeof(msg)).ok());
    net.RunFor(Millis(100));
  }
  net.RunFor(Seconds(130));  // both mappings idle out (udp_timeout = 120s)
  EXPECT_EQ(topo.site_a.nat->active_mapping_count(), 0u);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE((*sa)->SendTo(b_pub, msg, sizeof(msg)).ok());
    ASSERT_TRUE((*sb)->SendTo(a_pub, msg, sizeof(msg)).ok());
    net.RunFor(Millis(100));
  }
  CheckGolden("udp_punch_expiry_repunch", net.trace().Dump(),
              13801782157402598702ULL, 13929u);
}

// NAT Check instrument runs (the Table 1 measurement protocol) with trace
// on, against three behaviorally distant devices.
std::string NatCheckTraceFor(const NatConfig& config, bool hairpins, uint64_t seed) {
  Scenario::Options options;
  options.seed = seed;
  Scenario scenario(options);
  scenario.net().trace().set_enabled(true);
  Host* s1 = scenario.AddPublicHost("S1", Ipv4Address::FromOctets(18, 181, 0, 31));
  Host* s2 = scenario.AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
  Host* s3 = scenario.AddPublicHost("S3", Ipv4Address::FromOctets(18, 181, 0, 33));
  NattedSite site = scenario.AddNattedSite(
      "dev", config, Ipv4Address::FromOctets(155, 99, 25, 11),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
  NatCheckServers servers(s1, s2, s3);
  EXPECT_TRUE(servers.Start().ok());
  NatCheckServerAddrs addrs;
  addrs.udp1 = servers.udp_endpoint(1);
  addrs.udp2 = servers.udp_endpoint(2);
  addrs.tcp1 = servers.tcp_endpoint(1);
  addrs.tcp2 = servers.tcp_endpoint(2);
  addrs.tcp3 = servers.tcp_endpoint(3);
  NatCheckClientConfig client_config;
  client_config.test_udp_hairpin = hairpins;
  client_config.test_tcp = true;
  client_config.test_tcp_hairpin = hairpins;
  NatCheckClient client(site.host(0), addrs, client_config);
  client.Run(4321, [](Result<NatCheckReport>) {});
  scenario.net().RunFor(Seconds(90));
  return scenario.net().trace().Dump();
}

TEST(TraceGoldenTest, NatCheckConeWithHairpin) {
  NatConfig config;  // default cone, drop policy
  config.hairpin_udp = true;
  config.hairpin_tcp = true;
  CheckGolden("natcheck_cone_hairpin", NatCheckTraceFor(config, true, 7),
              4272833863604345419ULL, 12658u);
}

TEST(TraceGoldenTest, NatCheckSymmetricRandomRst) {
  NatConfig config;
  config.mapping = NatMapping::kAddressAndPortDependent;
  config.filtering = NatFiltering::kAddressDependent;
  config.port_allocation = NatPortAllocation::kRandom;
  config.unsolicited_tcp = NatUnsolicitedTcp::kRst;
  CheckGolden("natcheck_symmetric_rst", NatCheckTraceFor(config, false, 8),
              15513539874321387816ULL, 8597u);
}

TEST(TraceGoldenTest, NatCheckIcmpRejectPayloadRewrite) {
  NatConfig config;
  config.unsolicited_tcp = NatUnsolicitedTcp::kIcmp;
  config.port_allocation = NatPortAllocation::kPortPreserving;
  config.rewrite_payload_addresses = true;
  config.symmetric_on_port_contention = true;
  CheckGolden("natcheck_icmp_rewrite", NatCheckTraceFor(config, true, 9),
              17184364465002780355ULL, 10171u);
}

// Hairpin translation behind one common NAT (Fig. 4 shape), NAPT flavor.
TEST(TraceGoldenTest, HairpinNapt) {
  NatConfig config;
  config.hairpin_udp = true;
  Scenario::Options options;
  options.seed = 21;
  auto topo = MakeFig4(config, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);
  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  // A talks to the server first so its mapping is the predictable 62000.
  ASSERT_TRUE((*sa)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{'h', 'i'}).ok());
  net.RunFor(Seconds(1));
  // B loops a datagram back in through A's public mapping; A replies the
  // same way once it has seen B's translated source.
  Endpoint b_seen;
  (*sa)->SetReceiveCallback([&](const Endpoint& from, const Payload&) { b_seen = from; });
  ASSERT_TRUE((*sb)->SendTo(Endpoint(topo.site.nat->public_ip(), 62000), Bytes{'p', 'i', 'n', 'g'}).ok());
  net.RunFor(Seconds(1));
  if (!b_seen.IsUnspecified()) {
    ASSERT_TRUE((*sa)->SendTo(b_seen, Bytes{'p', 'o', 'n', 'g'}).ok());
    net.RunFor(Seconds(1));
  }
  CheckGolden("hairpin_napt", net.trace().Dump(), 2952339002846794721ULL, 1290u);
}

// Basic NAT (address-only translation) with hairpin and session expiry.
TEST(TraceGoldenTest, BasicNatHairpinExpiry) {
  NatConfig config;
  config.basic_nat = true;
  config.hairpin_udp = true;
  Scenario::Options options;
  options.seed = 22;
  auto topo = MakeFig4(config, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);
  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4322);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE((*sa)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{'a'}).ok());
  ASSERT_TRUE((*sb)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{'b'}).ok());
  net.RunFor(Seconds(1));
  // Hairpin: B to A's pool address (first assignment = public_ip + 1).
  const Ipv4Address a_pool(topo.site.nat->public_ip().bits() + 1);
  ASSERT_TRUE((*sb)->SendTo(Endpoint(a_pool, 4321), Bytes{'h', 'p'}).ok());
  net.RunFor(Seconds(1));
  net.RunFor(Seconds(130));  // sessions idle out, pool addresses reclaimed
  ASSERT_TRUE((*sa)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{'z'}).ok());
  net.RunFor(Seconds(1));
  CheckGolden("basic_nat_hairpin_expiry", net.trace().Dump(),
              7569573999315818204ULL, 2001u);
}

// Outbound ICMP quotation translation (FindByPrivateEndpoint): an inside
// host reports an error about a punched-in datagram after its socket
// closed; the NAT rewrites the quoted private endpoint to its public
// mapping on the way out.
TEST(TraceGoldenTest, OutboundIcmpQuotation) {
  Scenario::Options options;
  options.seed = 23;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);
  auto server_sock = topo.server->udp().Bind(kServerPort);
  ASSERT_TRUE(server_sock.ok());
  Endpoint a_public;
  (*server_sock)->SetReceiveCallback([&](const Endpoint& from, const Payload&) {
    a_public = from;
  });
  auto sa = topo.a->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE((*sa)->SendTo(Endpoint(ServerIp(), kServerPort), Bytes{'s', 'y', 'n'}).ok());
  net.RunFor(Seconds(1));
  ASSERT_EQ(a_public, Endpoint(NatAIp(), 62000));
  // Close A's socket; the next inbound datagram hits a closed port and the
  // host emits ICMP port-unreachable back out through the NAT.
  (*sa)->Close();
  net.RunFor(Millis(10));
  ASSERT_TRUE((*server_sock)->SendTo(a_public, Bytes{'l', 'a', 't', 'e'}).ok());
  net.RunFor(Seconds(1));
  CheckGolden("outbound_icmp_quotation", net.trace().Dump(),
              1653137463881705718ULL, 897u);
}

// A Fig. 5 exchange over uneven links: jitter on both private LANs, a
// bandwidth cap on B's LAN, and duplicate + reorder mangling on the
// internet. Each link then delivers some packets out of transmit order and
// several at the same microsecond (a duplicate lands with its original), so
// this pins the (time, insertion-sequence) dispatch order where in-order and
// out-of-order deliveries mix on one link.
TEST(TraceGoldenTest, JitterMangleBandwidthExchange) {
  Scenario::Options options;
  options.seed = 31;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.trace().set_enabled(true);
  LanConfig lan_a = topo.site_a.lan->config();
  lan_a.jitter = Micros(3);
  topo.site_a.lan->set_config(lan_a);
  LanConfig lan_b = topo.site_b.lan->config();
  lan_b.jitter = Micros(2);
  lan_b.bandwidth_bps = 2e6;
  topo.site_b.lan->set_config(lan_b);
  LanConfig wan = topo.scenario->internet()->config();
  wan.mangle.duplicate = 0.2;
  wan.mangle.reorder = 0.3;
  wan.mangle.reorder_hold = Micros(400);
  topo.scenario->internet()->set_config(wan);

  auto sa = topo.a->udp().Bind(4321);
  auto sb = topo.b->udp().Bind(4321);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  const Endpoint a_pub(NatAIp(), 62000);
  const Endpoint b_pub(NatBIp(), 62000);
  for (int round = 0; round < 12; ++round) {
    for (const size_t size : {8, 40, 200}) {
      const Bytes msg(size, static_cast<uint8_t>(round));
      ASSERT_TRUE((*sa)->SendTo(b_pub, msg).ok());
      ASSERT_TRUE((*sb)->SendTo(a_pub, msg).ok());
    }
    net.RunFor(Millis(3));
  }
  net.RunFor(Seconds(1));
  CheckGolden("jitter_mangle_bandwidth_exchange", net.trace().Dump(),
              5078587557033303129ULL, 45744u);
}

// The full Table 1 instrument: 380 devices measured by the NAT Check
// reproduction. Not a trace, but the strongest end-to-end behavioral hash —
// every mapping/filtering/rejection/hairpin decision in the fleet feeds it.
TEST(TraceGoldenTest, FleetTable1Report) {
  const auto vendors = PaperTable1Vendors();
  const Table1Result result = RunFleet(BuildFleet(vendors, /*seed=*/2005), /*seed=*/6);
  const std::string table = FormatTable1(result, &vendors);
  if (const char* dir = std::getenv("NATPUNCH_TRACE_GOLDEN_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::ofstream out(std::string(dir) + "/fleet_table1.txt");
    out << table;
  }
  EXPECT_EQ(Fnv1a64(table), 252540557503584141ULL) << "Table 1 output diverged:\n" << table;
  EXPECT_EQ(result.events, 29316u);
}

}  // namespace
}  // namespace natpunch
