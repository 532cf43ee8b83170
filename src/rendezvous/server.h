// RendezvousServer: the well-known server S.
//
// Serves both transports on one port. For each registered client it records
// the two endpoints the paper describes (§3.1): the private endpoint the
// client reports about itself in the registration body, and the public
// endpoint the server observes in the packet/connection source. It
// introduces peers on request (forwarding each side's endpoint pair), relays
// application payloads as the §2.2 fallback, and forwards the §4.5
// sequential-punching ready signal.

#ifndef SRC_RENDEZVOUS_SERVER_H_
#define SRC_RENDEZVOUS_SERVER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/rendezvous/messages.h"
#include "src/rendezvous/ring.h"
#include "src/rendezvous/shard_messages.h"
#include "src/transport/host.h"
#include "src/util/flat_hash.h"
#include "src/util/slab.h"

namespace natpunch {

// Placement of one server inside the sharded rendezvous tier. An empty
// shard list (the default) means the server runs standalone, byte-for-byte
// identical to the pre-sharding behavior; with two or more shards the server
// forwards lookups for peers homed elsewhere and replicates registrations to
// its clients' ring successors (docs/PROTOCOL.md §6).
struct ShardConfig {
  std::vector<Endpoint> shards;  // every shard's endpoint, in ring order
  uint32_t index = 0;            // this server's position in `shards`
};

class RendezvousServer {
 public:
  struct Options {
    bool obfuscate_addresses = false;
    // Hostile-client controls. All default off (0) so cooperative scenarios
    // and existing benches see identical behavior; chaos/attacker tests turn
    // them on explicitly.
    //
    // Per-source UDP rate limit: more than max_msgs_per_window messages from
    // one source endpoint within one second are dropped (and counted).
    uint32_t max_msgs_per_window = 0;  // 0 = no rate limiting
    // Quarantine: a source that sends quarantine_threshold malformed frames
    // is ignored for 30 s (UDP) or disconnected (TCP).
    uint32_t quarantine_threshold = 0;  // 0 = no quarantine
    // Sharded-tier placement; default (empty shard list) = standalone.
    ShardConfig shard;
  };

  RendezvousServer(Host* host, uint16_t port, Options options);
  RendezvousServer(Host* host, uint16_t port) : RendezvousServer(host, port, Options{}) {}

  // Bind the UDP socket and the TCP listener.
  Status Start();

  // Failure injection: take the server offline (close the sockets and
  // forget every registration). Already-punched peer sessions must keep
  // working — that is the point of hole punching; only new introductions
  // and relaying break.
  void Stop();
  bool running() const { return udp_socket_ != nullptr; }

  Endpoint endpoint() const { return Endpoint(host_->primary_address(), port_); }
  Host* host() const { return host_; }

  struct Stats {
    uint64_t udp_registrations = 0;
    uint64_t tcp_registrations = 0;
    uint64_t connect_requests = 0;
    uint64_t relayed_messages = 0;
    uint64_t relayed_bytes = 0;
    uint64_t unknown_targets = 0;
    uint64_t malformed_frames = 0;    // frames that failed strict decoding
    uint64_t rate_limited_drops = 0;  // messages shed by the per-source limit
    uint64_t quarantined_sources = 0; // sources/connections put in the box
    uint64_t quarantined_drops = 0;   // messages ignored while quarantined
    // Sharded-tier bookkeeping (all zero when running standalone).
    uint64_t forwards = 0;            // kForwardConnect/kForwardRelay sent
    uint64_t forward_replies = 0;     // kForwardReply sent back to origin
    uint64_t replications_sent = 0;   // kReplicate sent to the ring successor
    uint64_t replicas_stored = 0;     // kReplicate applied locally
    uint64_t replica_promotions = 0;  // replica record claimed by a kRegister
    uint64_t shard_drops = 0;         // shard frames from non-ring sources
  };
  const Stats& stats() const { return stats_; }

  // Number of currently known clients (either transport).
  size_t client_count() const { return clients_.size(); }

  // Server incarnation number, bumped on every Start(). Stamped into every
  // outbound message so clients can detect a restart (and the implied loss
  // of the registration table) from any ack and re-register.
  uint64_t epoch() const { return epoch_; }

  // True when this server participates in a multi-shard tier.
  bool sharded() const { return ring_.size() > 1; }
  uint32_t shard_index() const { return options_.shard.index; }
  const ShardRing& ring() const { return ring_; }

 private:
  struct TcpPeer {
    TcpSocket* socket = nullptr;
    MessageFramer framer;
    uint64_t client_id = 0;
    uint32_t malformed = 0;  // strict-decode failures on this connection
  };

  // Per-source abuse bookkeeping for the UDP side; only populated when the
  // Options enable rate limiting or quarantine.
  struct SourceState {
    SimTime window_start;
    uint32_t msgs_in_window = 0;
    uint32_t malformed = 0;
    SimTime quarantined_until;
  };

  struct ClientRecord {
    bool udp_registered = false;
    // True while the record is only a replica copy received over kReplicate;
    // cleared (and counted as a promotion) when the client registers here
    // directly after failing over from its dead home shard.
    bool replica = false;
    Endpoint udp_public;
    Endpoint udp_private;
    TcpPeer* tcp = nullptr;  // null when not TCP-registered
    Endpoint tcp_public;
    Endpoint tcp_private;
  };

  // Point lookups into the registration table (null when unknown). Records
  // come from the slab, so their addresses are stable across table growth.
  ClientRecord* FindClient(uint64_t client_id);
  ClientRecord& GetOrCreateClient(uint64_t client_id);

  // Returns false when the source is quarantined or over its rate limit and
  // the message must be shed before decoding.
  bool AdmitUdp(const Endpoint& from);
  void NoteUdpMalformed(const Endpoint& from);

  void OnUdpReceive(const Endpoint& from, const Payload& payload);
  void OnTcpAccept(TcpSocket* socket);
  void OnTcpData(TcpPeer* peer, const Bytes& data);

  // via_udp_from is set for messages that arrived by UDP; peer for TCP.
  void HandleMessage(const RendezvousMessage& msg, const Endpoint* via_udp_from, TcpPeer* peer);

  // Sharded-tier internals (only reached when sharded()).
  void HandleShardFrame(const Endpoint& from, const Payload& payload);
  void HandleShardMessage(const ShardMessage& msg);
  void SendShard(uint32_t shard, ShardMessage msg);
  // Replicate `rec` for `client_id` to its ring successor (skipping self).
  void ReplicateRecord(uint64_t client_id, const ClientRecord& rec);
  // Forward a lookup for `target_id` to the shards that may own it: its home
  // shard and its replica, minus this shard. Returns how many were sent.
  int ForwardToOwners(uint64_t target_id, const ShardMessage& msg);

  void SendUdp(const Endpoint& to, const RendezvousMessage& msg);
  void SendTcp(TcpPeer* peer, const RendezvousMessage& msg);

  Host* host_;
  uint16_t port_;
  Options options_;
  UdpSocket* udp_socket_ = nullptr;
  TcpSocket* tcp_listener_ = nullptr;
  // Registration records are the server's swarm-scale population (one per
  // registered client, ~100k+ in the swarm bench): slab storage plus an
  // open-addressing index replaces the std::map's ~48-byte-per-node
  // overhead. Nothing iterates the table — all accesses are point lookups.
  Slab<ClientRecord, 512> client_pool_;
  FlatHashMap<uint64_t, ClientRecord*> clients_;
  std::vector<std::unique_ptr<TcpPeer>> tcp_peers_;
  std::map<Endpoint, SourceState> sources_;
  Stats stats_;
  uint64_t epoch_ = 0;
  ShardRing ring_;  // empty when standalone
  obs::Counter* metric_rate_limited_ = nullptr;
  obs::Counter* metric_quarantined_ = nullptr;
  // Per-shard counters (rendezvous.shard<N>.*), registered only when the
  // server is part of a multi-shard tier so standalone metric snapshots are
  // unchanged.
  obs::Counter* metric_registrations_ = nullptr;
  obs::Counter* metric_forwards_ = nullptr;
  obs::Counter* metric_promotions_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_RENDEZVOUS_SERVER_H_
