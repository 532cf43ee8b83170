// Sharded rendezvous tier: consistent-hash ownership, the v3 inter-shard
// wire protocol, cross-shard lookups, replication, and replica failover.
//
// The chaos-facing tests state the downtime bound explicitly: a client that
// loses its home shard must be re-registered on the ring successor within
// (kFailoverMissedKeepalives + 1) keepalive intervals plus one
// registration round-trip, and every such failover must be visible in the
// replica shard's replica_promotions counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rendezvous/client.h"
#include "src/rendezvous/ring.h"
#include "src/rendezvous/server.h"
#include "src/rendezvous/shard_messages.h"
#include "src/scenario/scenario.h"

namespace natpunch {
namespace {

// ---------------------------------------------------------------------------
// ShardRing: ownership properties and the modulo differential
// ---------------------------------------------------------------------------

std::vector<Endpoint> MakeShardEndpoints(int n) {
  std::vector<Endpoint> eps;
  eps.reserve(n);
  for (int i = 0; i < n; ++i) {
    eps.emplace_back(Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + i)),
                     kServerPort);
  }
  return eps;
}

TEST(ShardRingTest, IndependentlyBuiltRingsAgree) {
  // Clients and servers each build their own ring from the shard list;
  // ownership must be a pure function of that list.
  const auto eps = MakeShardEndpoints(5);
  ShardRing a(eps);
  ShardRing b(eps);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t id = rng();
    ASSERT_EQ(a.HomeShard(id), b.HomeShard(id));
    ASSERT_EQ(a.ReplicaShard(id), b.ReplicaShard(id));
  }
}

TEST(ShardRingTest, OwnerLadderIsAPermutationOfAllShards) {
  const int n = 5;
  ShardRing ring(MakeShardEndpoints(n));
  std::mt19937_64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = rng();
    std::set<uint32_t> owners;
    for (uint32_t k = 0; k < n; ++k) {
      owners.insert(ring.NthOwner(id, k));
    }
    ASSERT_EQ(owners.size(), static_cast<size_t>(n)) << "ladder repeats a shard";
    // Home and replica are always distinct shards (the replica is useful).
    ASSERT_NE(ring.HomeShard(id), ring.ReplicaShard(id));
    // The ladder wraps modulo the shard count.
    ASSERT_EQ(ring.NthOwner(id, 0), ring.NthOwner(id, n));
  }
}

TEST(ShardRingTest, OwnershipIsTolerablyBalanced) {
  const int n = 5;
  ShardRing ring(MakeShardEndpoints(n));
  std::vector<int> counts(n, 0);
  std::mt19937_64 rng(13);
  const int kIds = 20000;
  for (int i = 0; i < kIds; ++i) {
    ++counts[ring.HomeShard(rng())];
  }
  for (int s = 0; s < n; ++s) {
    // Perfect balance is 20%; 64 vnodes keeps every shard within [10%, 32%].
    EXPECT_GT(counts[s], kIds / 10) << "shard " << s << " starved";
    EXPECT_LT(counts[s], kIds * 32 / 100) << "shard " << s << " overloaded";
  }
}

TEST(ShardRingTest, RemapDifferentialAgainstNaiveModuloOracle) {
  // The reason the ring exists: adding a shard must move only the arcs the
  // new shard claims (~1/(n+1) of keys), where the naive modulo oracle
  // (home = id % n) reshuffles most of the space.
  const auto eps4 = MakeShardEndpoints(4);
  const auto eps5 = MakeShardEndpoints(5);
  ShardRing ring4(eps4);
  ShardRing ring5(eps5);
  std::mt19937_64 rng(17);
  const int kIds = 20000;
  int ring_moved = 0;
  int modulo_moved = 0;
  for (int i = 0; i < kIds; ++i) {
    const uint64_t id = rng();
    if (ring4.HomeShard(id) != ring5.HomeShard(id)) {
      ++ring_moved;
    }
    if (id % 4 != id % 5) {
      ++modulo_moved;
    }
  }
  const double ring_frac = static_cast<double>(ring_moved) / kIds;
  const double modulo_frac = static_cast<double>(modulo_moved) / kIds;
  EXPECT_GT(ring_frac, 0.05);  // the new shard did claim keys
  EXPECT_LT(ring_frac, 0.35);  // ...but only about its fair 1/5 share
  EXPECT_GT(modulo_frac, 0.70);
  EXPECT_LT(ring_frac, modulo_frac / 2.0)
      << "consistent hashing lost its remap advantage over modulo";
}

// FNV-1a over NthOwner(id, n) for ids 1..10,000 and n 0..7 (n wraps modulo
// the shard count) on a ring of `shards` shards with default vnodes.
uint64_t OwnerLadderDigest(int shards) {
  const ShardRing ring(MakeShardEndpoints(shards));
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (uint64_t id = 1; id <= 10000; ++id) {
    for (uint32_t n = 0; n < 8; ++n) {
      digest = (digest ^ ring.NthOwner(id, n)) * 0x100000001b3ULL;
    }
  }
  return digest;
}

TEST(ShardRingTest, NthOwnerMatchesGoldenDigest) {
  // Pins every answer of the owner ladder. The digests are those of a
  // clockwise walk over the points from each id's hash, which is what the
  // ladder table precomputes; a change to the hash, the salt, the tie
  // break or the ladder order moves them, and so moves clients' homes.
  EXPECT_EQ(OwnerLadderDigest(1), 0x9b85a68c78294d25ULL);
  EXPECT_EQ(OwnerLadderDigest(2), 0x86ed57efaf72a925ULL);
  EXPECT_EQ(OwnerLadderDigest(4), 0x5a3fdcf3a2a4d561ULL);
  EXPECT_EQ(OwnerLadderDigest(8), 0x842f3fd3c377e791ULL);
}

TEST(ShardRingTest, CopiesOutliveTheirSourceAndAnswerAlike) {
  // Clients hold copies of the ring they were built with, and the ring a
  // caller built may die first (churn's local ring does). Copies share one
  // state, so they must keep answering exactly as a ring built afresh.
  const auto eps = MakeShardEndpoints(4);
  std::vector<ShardRing> copies;
  {
    const ShardRing source(eps);
    copies.assign(2, source);
    ShardRing assigned;
    assigned = source;
    copies.push_back(assigned);
    copies.push_back(std::move(assigned));
  }
  const ShardRing fresh(eps);
  const Endpoint stranger(Ipv4Address::FromOctets(18, 181, 0, 99), kServerPort);
  std::mt19937_64 rng(19);
  for (const ShardRing& copy : copies) {
    ASSERT_EQ(copy.size(), fresh.size());
    for (uint32_t s = 0; s < fresh.size(); ++s) {
      EXPECT_EQ(copy.endpoint(s), fresh.endpoint(s));
      EXPECT_EQ(copy.IndexOf(fresh.endpoint(s)), static_cast<int>(s));
    }
    EXPECT_EQ(copy.IndexOf(stranger), -1);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t id = rng();
      ASSERT_EQ(copy.HomeShard(id), fresh.HomeShard(id));
      for (uint32_t n = 1; n < 6; ++n) {
        ASSERT_EQ(copy.NthOwner(id, n), fresh.NthOwner(id, n)) << "id " << id << " n " << n;
      }
    }
  }
  const ShardRing none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.IndexOf(stranger), -1);
  EXPECT_EQ(none.HomeShard(42), 0u);
}

// ---------------------------------------------------------------------------
// v3 inter-shard codec: round trip + wire armor
// ---------------------------------------------------------------------------

ShardMessage SampleShardMessage(ShardMsgType type) {
  ShardMessage msg;
  msg.type = type;
  msg.src_shard = 3;
  msg.found = type == ShardMsgType::kForwardReply ? 1 : 0;
  msg.client_id = 0x1111222233334444ULL;
  msg.target_id = 0x5555666677778888ULL;
  msg.nonce = 0xDEADBEEFCAFEF00DULL;
  msg.strategy = ConnectStrategy::kPredicted;
  msg.public_ep = Endpoint(Ipv4Address::FromOctets(155, 99, 25, 11), 62000);
  msg.private_ep = Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 4321);
  msg.payload = {1, 2, 3, 4, 5};
  return msg;
}

TEST(ShardMessageTest, RoundTripsEveryTypeCanonically) {
  for (const ShardMsgType type :
       {ShardMsgType::kForwardConnect, ShardMsgType::kForwardReply, ShardMsgType::kReplicate,
        ShardMsgType::kForwardRelay}) {
    const ShardMessage msg = SampleShardMessage(type);
    const Bytes wire = EncodeShardMessage(msg);
    auto decoded = DecodeShardMessage(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, msg.type);
    EXPECT_EQ(decoded->src_shard, msg.src_shard);
    EXPECT_EQ(decoded->found, msg.found);
    EXPECT_EQ(decoded->client_id, msg.client_id);
    EXPECT_EQ(decoded->target_id, msg.target_id);
    EXPECT_EQ(decoded->nonce, msg.nonce);
    EXPECT_EQ(decoded->strategy, msg.strategy);
    EXPECT_EQ(decoded->public_ep, msg.public_ep);
    EXPECT_EQ(decoded->private_ep, msg.private_ep);
    EXPECT_EQ(decoded->payload, msg.payload);
    // Canonical re-encode: the accepted frame is the only spelling.
    EXPECT_EQ(EncodeShardMessage(*decoded), wire);
  }
}

TEST(ShardMessageTest, ArmorRejectsHostileShapes) {
  const Bytes wire = EncodeShardMessage(SampleShardMessage(ShardMsgType::kForwardConnect));

  EXPECT_FALSE(DecodeShardMessage(Bytes{}).has_value());

  Bytes bad_magic = wire;
  bad_magic[0] = 0x52;  // the client protocol's magic is not ours
  EXPECT_FALSE(DecodeShardMessage(bad_magic).has_value());

  Bytes bad_version = wire;
  bad_version[1] = 2;
  EXPECT_FALSE(DecodeShardMessage(bad_version).has_value());

  for (const uint8_t type : {0, 5, 0xFF}) {
    Bytes bad_type = wire;
    bad_type[2] = type;
    EXPECT_FALSE(DecodeShardMessage(bad_type).has_value()) << "type " << int(type);
  }
  for (const uint8_t strategy : {0, 6, 0xFF}) {
    Bytes bad_strategy = wire;
    bad_strategy[3] = strategy;
    EXPECT_FALSE(DecodeShardMessage(bad_strategy).has_value()) << "strategy " << int(strategy);
  }
  for (const uint8_t found : {2, 0xFF}) {
    Bytes bad_found = wire;
    bad_found[4] = found;
    EXPECT_FALSE(DecodeShardMessage(bad_found).has_value()) << "found " << int(found);
  }

  // Every truncation (exact-length decode).
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(DecodeShardMessage(ConstByteSpan(wire.data(), n)).has_value()) << "len " << n;
  }
  // Trailing garbage (AtEnd armor).
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeShardMessage(trailing).has_value());
}

// ---------------------------------------------------------------------------
// End-to-end sharded tier
// ---------------------------------------------------------------------------

struct ShardClient {
  Host* host = nullptr;
  std::unique_ptr<UdpRendezvousClient> client;
  Endpoint public_ep;
};

class ShardedTierTest : public ::testing::Test {
 protected:
  static constexpr SimDuration kKeepAlive = Seconds(1);

  void BuildTier(int n_shards) {
    Scenario::Options options;
    options.seed = 99;
    options.metrics = true;
    scenario_ = std::make_unique<Scenario>(options);
    shard_eps_ = MakeShardEndpoints(n_shards);
    for (int i = 0; i < n_shards; ++i) {
      Host* host = scenario_->AddPublicHost("S" + std::to_string(i), shard_eps_[i].ip);
      RendezvousServer::Options so;
      so.shard.shards = shard_eps_;
      so.shard.index = static_cast<uint32_t>(i);
      servers_.push_back(std::make_unique<RendezvousServer>(host, kServerPort, so));
      ASSERT_TRUE(servers_.back()->Start().ok());
    }
    ring_ = ShardRing(shard_eps_);
  }

  // A NATted client that registers with its home shard and keeps alive.
  ShardClient& AddClient(uint64_t id) {
    const auto idx = static_cast<uint8_t>(clients_.size());
    NattedSite site = scenario_->AddNattedSite(
        "c" + std::to_string(id), NatConfig{}, Ipv4Address::FromOctets(20, 1, idx, 1),
        Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
    auto holder = std::make_unique<ShardClient>();
    ShardClient* c = holder.get();
    c->host = site.host(0);
    c->client = std::make_unique<UdpRendezvousClient>(c->host, ring_, id);
    c->client->Register(4321, [c](Result<Endpoint> r) {
      if (r.ok()) {
        c->public_ep = *r;
      }
    });
    c->client->StartKeepAlive(kKeepAlive);
    clients_.push_back(std::move(holder));
    return *clients_.back();
  }

  // First id >= `from` homed on `shard`.
  uint64_t IdHomedOn(uint32_t shard, uint64_t from = 1) const {
    for (uint64_t id = from;; ++id) {
      if (ring_.HomeShard(id) == shard) {
        return id;
      }
    }
  }

  uint64_t TotalPromotions() const {
    uint64_t total = 0;
    for (const auto& server : servers_) {
      total += server->stats().replica_promotions;
    }
    return total;
  }

  Network& net() { return scenario_->net(); }

  std::unique_ptr<Scenario> scenario_;
  std::vector<Endpoint> shard_eps_;
  std::vector<std::unique_ptr<RendezvousServer>> servers_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
  ShardRing ring_;
};

TEST_F(ShardedTierTest, CrossShardConnectIntroducesBothSides) {
  BuildTier(4);
  const uint64_t a_id = IdHomedOn(0);
  const uint64_t b_id = IdHomedOn(1);
  ShardClient& a = AddClient(a_id);
  ShardClient& b = AddClient(b_id);
  net().RunFor(Seconds(2));
  ASSERT_TRUE(a.client->registered());
  ASSERT_TRUE(b.client->registered());

  // B waits for the introduction; A asks its home shard, which must forward.
  RendezvousMessage forwarded;
  int forwards_seen = 0;
  b.client->SetConnectForwardHandler(ConnectStrategy::kHolePunch,
                                     [&](const RendezvousMessage& msg) {
                                       forwarded = msg;
                                       ++forwards_seen;
                                     });
  Result<RendezvousMessage> ack = Status(ErrorCode::kTimedOut, "no ack");
  a.client->RequestConnect(b_id, ConnectStrategy::kHolePunch, /*nonce=*/0xABCD,
                           [&](Result<RendezvousMessage> r) { ack = std::move(r); });
  net().RunFor(Seconds(2));

  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->public_ep, b.public_ep);
  ASSERT_GE(forwards_seen, 1);
  EXPECT_EQ(forwarded.client_id, a_id);
  EXPECT_EQ(forwarded.nonce, 0xABCDu);
  EXPECT_EQ(forwarded.public_ep, a.public_ep);

  // The lookup crossed shards: A's home forwarded, B's home answered.
  EXPECT_GE(servers_[0]->stats().forwards, 1u);
  EXPECT_GE(servers_[1]->stats().forward_replies, 1u);
  EXPECT_EQ(servers_[0]->stats().unknown_targets, 0u);
}

TEST_F(ShardedTierTest, SameShardConnectStaysLocal) {
  BuildTier(4);
  const uint64_t a_id = IdHomedOn(2);
  const uint64_t b_id = IdHomedOn(2, a_id + 1);
  ShardClient& a = AddClient(a_id);
  ShardClient& b = AddClient(b_id);
  net().RunFor(Seconds(2));

  b.client->SetConnectForwardHandler(ConnectStrategy::kHolePunch,
                                     [](const RendezvousMessage&) {});
  Result<RendezvousMessage> ack = Status(ErrorCode::kTimedOut, "no ack");
  a.client->RequestConnect(b_id, ConnectStrategy::kHolePunch, 1,
                           [&](Result<RendezvousMessage> r) { ack = std::move(r); });
  net().RunFor(Seconds(2));

  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(servers_[2]->stats().forwards, 0u);  // answered from its own table
}

TEST_F(ShardedTierTest, CrossShardRelayDeliversExactlyOnce) {
  BuildTier(4);
  const uint64_t a_id = IdHomedOn(0);
  const uint64_t b_id = IdHomedOn(3);
  ShardClient& a = AddClient(a_id);
  ShardClient& b = AddClient(b_id);
  net().RunFor(Seconds(2));

  int deliveries = 0;
  Bytes got;
  b.client->SetRelayHandler([&](uint64_t from_id, const Bytes& payload) {
    EXPECT_EQ(from_id, a_id);
    got = payload;
    ++deliveries;
  });
  a.client->SendRelay(b_id, Bytes{9, 8, 7});
  net().RunFor(Seconds(2));

  // Forwarded to both owners (home + replica) but delivered only from the
  // authoritative record — the replica copy must not double-deliver.
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, (Bytes{9, 8, 7}));
}

TEST_F(ShardedTierTest, RegistrationIsReplicatedToRingSuccessor) {
  BuildTier(4);
  const uint64_t id = IdHomedOn(1);
  AddClient(id);
  net().RunFor(Seconds(2));

  const uint32_t home = ring_.HomeShard(id);
  const uint32_t replica = ring_.ReplicaShard(id);
  EXPECT_GE(servers_[home]->stats().replications_sent, 1u);
  EXPECT_GE(servers_[replica]->stats().replicas_stored, 1u);
  // The copy counts as a known client on the replica, ready for promotion.
  EXPECT_EQ(servers_[replica]->client_count(), 1u);
}

TEST_F(ShardedTierTest, ShardKillFailsOverToReplicaWithinBound) {
  BuildTier(4);
  // Two clients homed on every shard; every one keeps alive at 1 s.
  std::vector<uint64_t> ids;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    const uint64_t first = IdHomedOn(shard);
    const uint64_t second = IdHomedOn(shard, first + 1);
    ids.push_back(first);
    ids.push_back(second);
    AddClient(first);
    AddClient(second);
  }
  net().RunFor(Seconds(3));
  for (const auto& c : clients_) {
    ASSERT_TRUE(c->client->registered());
  }

  // Chaos: kill shard 0 outright. Affected = clients homed there.
  const uint32_t dead = 0;
  std::vector<size_t> affected;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ring_.HomeShard(ids[i]) == dead) {
      affected.push_back(i);
    }
  }
  ASSERT_FALSE(affected.empty()) << "seed produced no clients on shard 0";
  servers_[dead]->Stop();
  const SimTime killed_at = net().event_loop().now();

  // Stated bound: (kFailoverMissedKeepalives + 1) keepalive intervals to
  // declare the shard dead, plus one registration round-trip (well under one
  // extra interval here). Run to the bound and demand full recovery.
  const SimDuration bound =
      kKeepAlive * (UdpRendezvousClient::kFailoverMissedKeepalives + 1) + Seconds(1);
  net().RunFor(bound);

  for (const size_t i : affected) {
    const auto& client = clients_[i]->client;
    EXPECT_TRUE(client->registered()) << "client " << ids[i] << " still down past the bound";
    EXPECT_EQ(client->failovers(), 1u) << "client " << ids[i];
    EXPECT_EQ(client->current_shard(), ring_.ReplicaShard(ids[i]))
        << "client " << ids[i] << " did not land on its ring successor";
    EXPECT_LE(net().event_loop().now() - killed_at, bound);
  }
  // Unaffected clients never moved.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (std::find(affected.begin(), affected.end(), i) == affected.end()) {
      EXPECT_EQ(clients_[i]->client->failovers(), 0u) << "client " << ids[i];
    }
  }
  // Accounting: every failover shows up as exactly one replica promotion.
  EXPECT_EQ(TotalPromotions(), affected.size());
}

TEST_F(ShardedTierTest, FailedOverClientIsStillReachableCrossShard) {
  BuildTier(4);
  const uint64_t target_id = IdHomedOn(0);
  // Requester homed on neither the dead shard nor the target's replica.
  const uint32_t replica = ring_.ReplicaShard(target_id);
  uint64_t req_id = target_id + 1;
  while (ring_.HomeShard(req_id) == 0 || ring_.HomeShard(req_id) == replica) {
    ++req_id;
  }
  ShardClient& target = AddClient(target_id);
  ShardClient& requester = AddClient(req_id);
  net().RunFor(Seconds(3));

  servers_[0]->Stop();
  net().RunFor(kKeepAlive * (UdpRendezvousClient::kFailoverMissedKeepalives + 1) + Seconds(1));
  ASSERT_EQ(target.client->failovers(), 1u);
  ASSERT_TRUE(target.client->registered());

  // The requester's shard forwards to both owners; the dead home stays
  // silent and the promoted replica answers.
  target.client->SetConnectForwardHandler(ConnectStrategy::kHolePunch,
                                          [](const RendezvousMessage&) {});
  Result<RendezvousMessage> ack = Status(ErrorCode::kTimedOut, "no ack");
  requester.client->RequestConnect(target_id, ConnectStrategy::kHolePunch, 77,
                                   [&](Result<RendezvousMessage> r) { ack = std::move(r); });
  net().RunFor(Seconds(3));
  ASSERT_TRUE(ack.ok()) << "lookup for a failed-over peer did not reach the replica";
  EXPECT_EQ(ack->public_ep, target.public_ep);
}

TEST_F(ShardedTierTest, RequestsDuringRehomingFailFastAsNotConnected) {
  BuildTier(2);
  const uint64_t id = IdHomedOn(0);
  ShardClient& c = AddClient(id);
  net().RunFor(Seconds(2));
  ASSERT_TRUE(c.client->registered());
  EXPECT_FALSE(c.client->rehoming());

  servers_[0]->Stop();
  net().RunFor(kKeepAlive * (UdpRendezvousClient::kFailoverMissedKeepalives + 1));
  // Somewhere in that window the client declared the shard dead; while the
  // re-registration is in flight, connect requests fail fast with
  // kNotConnected — the signal ResilientSessionManager treats as
  // retry-without-cost instead of a burned re-punch attempt.
  if (c.client->rehoming()) {
    bool called = false;
    Result<RendezvousMessage> r = Status(ErrorCode::kTimedOut, "callback not invoked");
    c.client->RequestConnect(999, ConnectStrategy::kHolePunch, 1,
                             [&](Result<RendezvousMessage> res) {
                               called = true;
                               r = std::move(res);
                             });
    EXPECT_TRUE(called) << "rehoming RequestConnect must fail synchronously";
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotConnected);
  }
  net().RunFor(Seconds(2));
  EXPECT_TRUE(c.client->registered());
  EXPECT_FALSE(c.client->rehoming());
}

// ---------------------------------------------------------------------------
// Sharding off: byte-identical to the standalone server
// ---------------------------------------------------------------------------

// One fixed workload — registration, keepalives, an introduction, a relay —
// captured as a full packet trace. Run standalone and as a one-shard "tier";
// the dumps must match byte for byte, proving the sharding hooks are inert
// until a second shard exists.
std::string RunSingleServerWorkload(bool as_one_shard_ring) {
  Scenario::Options options;
  options.seed = 4242;
  Scenario scenario(options);
  Network& net = scenario.net();
  net.trace().set_enabled(true);

  Host* server_host = scenario.AddPublicHost("S", ServerIp());
  const Endpoint server_ep(ServerIp(), kServerPort);
  RendezvousServer::Options so;
  if (as_one_shard_ring) {
    so.shard.shards = {server_ep};
    so.shard.index = 0;
  }
  RendezvousServer server(server_host, kServerPort, so);
  EXPECT_TRUE(server.Start().ok());

  NattedSite site_a = scenario.AddNattedSite("A", NatConfig{}, NatAIp(),
                                             Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
  NattedSite site_b = scenario.AddNattedSite("B", NatConfig{}, NatBIp(),
                                             Ipv4Prefix(Ipv4Address::FromOctets(10, 1, 1, 0), 24), 1);

  auto make_client = [&](Host* host, uint64_t id) {
    return as_one_shard_ring
               ? std::make_unique<UdpRendezvousClient>(host, ShardRing({server_ep}), id)
               : std::make_unique<UdpRendezvousClient>(host, server_ep, id);
  };
  auto ca = make_client(site_a.host(0), 1);
  auto cb = make_client(site_b.host(0), 2);
  ca->Register(4321, [](Result<Endpoint>) {});
  cb->Register(4321, [](Result<Endpoint>) {});
  ca->StartKeepAlive(Seconds(5));
  cb->StartKeepAlive(Seconds(5));
  net.RunFor(Seconds(2));

  cb->SetConnectForwardHandler(ConnectStrategy::kHolePunch, [](const RendezvousMessage&) {});
  cb->SetRelayHandler([](uint64_t, const Bytes&) {});
  ca->RequestConnect(2, ConnectStrategy::kHolePunch, 0x1234,
                     [](Result<RendezvousMessage>) {});
  net.RunFor(Seconds(2));
  ca->SendRelay(2, Bytes{1, 2, 3});
  net.RunFor(Seconds(12));  // a few keepalive rounds

  return net.trace().Dump();
}

TEST(ShardedTierByteIdentity, OneShardRingMatchesStandaloneTraceExactly) {
  const std::string standalone = RunSingleServerWorkload(/*as_one_shard_ring=*/false);
  const std::string one_shard = RunSingleServerWorkload(/*as_one_shard_ring=*/true);
  ASSERT_FALSE(standalone.empty());
  EXPECT_EQ(standalone, one_shard);
}

}  // namespace
}  // namespace natpunch
