// gaming_lobby: six players with a realistic mix of NAT situations join one
// lobby (rendezvous server) and mesh-connect pairwise over UDP — hole
// punching where the NATs allow it, relaying through a TURN server where
// they don't (ResilientSessionManager runs that ladder). Prints the
// resulting connection matrix, like the network diagnostics screen of an
// online game (one of the paper's motivating applications).

#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/resilient_session.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"

using namespace natpunch;

namespace {

struct Player {
  std::string name;
  Host* host = nullptr;
  std::unique_ptr<UdpRendezvousClient> rendezvous;
  std::unique_ptr<UdpHolePuncher> puncher;
  std::unique_ptr<ResilientSessionManager> sessions;
};

}  // namespace

int main() {
  std::printf("six-player lobby: punch where possible, relay where not\n\n");

  Scenario scenario{Scenario::Options{}};
  Host* server_host = scenario.AddPublicHost("lobby", ServerIp());
  RendezvousServer lobby(server_host, kServerPort);
  lobby.Start();
  TurnServer relay(scenario.AddPublicHost("relay", Ipv4Address::FromOctets(18, 181, 0, 40)));
  relay.Start();

  // NAT situations: cone, cone (same flat as p1: common NAT), full cone,
  // symmetric, RST-happy cone, and one player with a public address.
  NatConfig cone;
  NatConfig full_cone;
  full_cone.filtering = NatFiltering::kEndpointIndependent;
  NatConfig symmetric;
  symmetric.mapping = NatMapping::kAddressAndPortDependent;
  NatConfig rsting;
  rsting.unsolicited_tcp = NatUnsolicitedTcp::kRst;  // UDP unaffected

  std::vector<Player> players(6);
  NattedSite flat = scenario.AddNattedSite(
      "flat", cone, Ipv4Address::FromOctets(155, 99, 25, 11),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 2);
  players[0] = {"ana (cone)", flat.host(0), nullptr, nullptr, nullptr};
  players[1] = {"bo (same NAT)", flat.host(1), nullptr, nullptr, nullptr};
  NattedSite site2 = scenario.AddNattedSite(
      "p2", full_cone, Ipv4Address::FromOctets(138, 76, 29, 7),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 1, 1, 0), 24), 1);
  players[2] = {"cy (full cone)", site2.host(0), nullptr, nullptr, nullptr};
  NattedSite site3 = scenario.AddNattedSite(
      "p3", symmetric, Ipv4Address::FromOctets(66, 10, 0, 1),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 2, 2, 0), 24), 1);
  players[3] = {"di (symmetric)", site3.host(0), nullptr, nullptr, nullptr};
  NattedSite site4 = scenario.AddNattedSite(
      "p4", rsting, Ipv4Address::FromOctets(77, 20, 0, 1),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 3, 3, 0), 24), 1);
  players[4] = {"ed (rsting NAT)", site4.host(0), nullptr, nullptr, nullptr};
  players[5] = {"fi (public)",
                scenario.AddPublicHost("fi", Ipv4Address::FromOctets(99, 5, 5, 5)), nullptr,
                nullptr, nullptr};

  Network& net = scenario.net();
  UdpPunchConfig punch;
  punch.punch_timeout = Seconds(6);
  ResilientSessionConfig config;
  config.turn_server = relay.endpoint();
  for (size_t i = 0; i < players.size(); ++i) {
    players[i].rendezvous = std::make_unique<UdpRendezvousClient>(
        players[i].host, lobby.endpoint(), static_cast<uint64_t>(i + 1));
    players[i].rendezvous->Register(4321, [](Result<Endpoint>) {});
    players[i].puncher = std::make_unique<UdpHolePuncher>(players[i].rendezvous.get(), punch);
    players[i].sessions =
        std::make_unique<ResilientSessionManager>(players[i].puncher.get(), config);
  }
  net.RunFor(Seconds(2));

  // Mesh-connect: every player dials every higher-numbered player.
  std::vector<std::vector<std::string>> matrix(players.size(),
                                               std::vector<std::string>(players.size(), "-"));
  for (size_t i = 0; i < players.size(); ++i) {
    for (size_t j = i + 1; j < players.size(); ++j) {
      players[i].sessions->ConnectToPeer(static_cast<uint64_t>(j + 1),
                                         [&, i, j](Result<ResilientSession*> r) {
        if (!r.ok()) {
          matrix[i][j] = "fail";
          return;
        }
        ResilientSession* session = *r;
        session->Send(Bytes{'h', 'i'});
        matrix[i][j] = session->path() == ResilientSession::Path::kRelay ? "relay"
                       : session->inner()->used_private_endpoint()         ? "LAN"
                                                                           : "punch";
      });
    }
  }
  net.RunFor(Seconds(30));

  std::printf("%-18s", "");
  for (const Player& p : players) {
    std::printf("%-9.7s", p.name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < players.size(); ++i) {
    std::printf("%-18s", players[i].name.c_str());
    for (size_t j = 0; j < players.size(); ++j) {
      std::printf("%-9s", i == j ? "." : (i < j ? matrix[i][j].c_str() : matrix[j][i].c_str()));
    }
    std::printf("\n");
  }

  int punched = 0, lan = 0, relayed = 0;
  for (size_t i = 0; i < players.size(); ++i) {
    for (size_t j = i + 1; j < players.size(); ++j) {
      punched += matrix[i][j] == "punch" ? 1 : 0;
      lan += matrix[i][j] == "LAN" ? 1 : 0;
      relayed += matrix[i][j] == "relay" ? 1 : 0;
    }
  }
  std::printf(
      "\n%d pairs direct (punched), %d via shared LAN (private endpoints, §3.3),\n"
      "%d relayed (symmetric NAT involved). TURN server relayed %llu datagrams.\n",
      punched, lan, relayed,
      static_cast<unsigned long long>(relay.stats().relayed_to_peer +
                                      relay.stats().relayed_to_client));
  return 0;
}
