// Client-side rendezvous sessions.
//
// UdpRendezvousClient owns the single UDP socket the application will use
// for *everything* — registration with S, punch probes, and the eventual
// peer session — because reusing one local endpoint is what keeps the NAT
// mapping consistent (§3.2, §5.1). Datagrams from the server endpoint are
// rendezvous messages; anything else is handed to the peer-traffic handler.
//
// TcpRendezvousClient keeps a TCP connection to S from a fixed local port
// with SO_REUSEADDR set, so additional sockets (listen + connects) can share
// that port during TCP hole punching (§4.1, Fig. 7).

#ifndef SRC_RENDEZVOUS_CLIENT_H_
#define SRC_RENDEZVOUS_CLIENT_H_

#include <functional>
#include <map>

#include "src/netsim/event_loop.h"
#include "src/rendezvous/messages.h"
#include "src/rendezvous/ring.h"
#include "src/transport/host.h"

namespace natpunch {

struct RendezvousClientOptions {
  bool obfuscate_addresses = false;
};

class UdpRendezvousClient {
 public:
  using EndpointCallback = std::function<void(Result<Endpoint>)>;
  using MessageHandler = std::function<void(const RendezvousMessage&)>;
  using RelayHandler = std::function<void(uint64_t from_id, const Bytes& payload)>;
  using PeerTrafficHandler = std::function<void(const Endpoint& from, const Payload& payload)>;

  // Sharded tier only: consecutive unacknowledged keepalives before the
  // client declares its shard dead and re-homes to the ring successor.
  // Downtime is bounded by (kFailoverMissedKeepalives + 1) keepalive
  // intervals plus one registration round-trip.
  static constexpr int kFailoverMissedKeepalives = 3;

  UdpRendezvousClient(Host* host, Endpoint server, uint64_t client_id,
                      RendezvousClientOptions options = RendezvousClientOptions{});

  // Sharded tier: the client learns the full ring, hashes its own ID to pick
  // its home shard, and — when keepalives to the current shard go
  // unacknowledged — deterministically re-homes along the ring-successor
  // ladder (docs/PROTOCOL.md §6). A one-shard ring behaves exactly like the
  // single-server constructor.
  UdpRendezvousClient(Host* host, ShardRing ring, uint64_t client_id,
                      RendezvousClientOptions options = RendezvousClientOptions{});

  // Bind `local_port` (0 = ephemeral) and register with S. The callback
  // receives the public endpoint S observed.
  void Register(uint16_t local_port, EndpointCallback cb);

  // Ask S to introduce us to `peer_id`. The callback receives the
  // kConnectAck carrying the peer's public and private endpoints. The
  // optional payload rides along to the peer inside the kConnectForward
  // (used by port prediction to carry the predicted endpoint).
  void RequestConnect(uint64_t peer_id, ConnectStrategy strategy, uint64_t nonce,
                      std::function<void(Result<RendezvousMessage>)> cb, Bytes payload = Bytes{});

  // Fire-and-forget variant: re-send an introduction request without
  // tracking a reply (used to refresh a possibly-lost kConnectForward).
  void SendConnectRequest(uint64_t peer_id, ConnectStrategy strategy, uint64_t nonce,
                          Bytes payload = Bytes{});

  // Fired when S forwards a peer's connection request with the given
  // strategy to us. Each strategy has one handler (its puncher component).
  void SetConnectForwardHandler(ConnectStrategy strategy, MessageHandler handler) {
    connect_forward_handlers_[strategy] = std::move(handler);
  }

  void SendRelay(uint64_t to_id, Bytes payload);
  void SetRelayHandler(RelayHandler handler) { relay_handler_ = std::move(handler); }

  void SetPeerTrafficHandler(PeerTrafficHandler handler) {
    peer_traffic_handler_ = std::move(handler);
  }

  // Periodic keep-alives to S so the registration mapping survives NAT idle
  // timeouts (§3.6).
  void StartKeepAlive(SimDuration interval);
  void StopKeepAlive();

  UdpSocket* socket() const { return socket_; }
  Host* host() const { return host_; }
  uint64_t client_id() const { return client_id_; }
  Endpoint server() const { return server_; }
  Endpoint private_endpoint() const { return private_ep_; }
  Endpoint public_endpoint() const { return public_ep_; }
  bool registered() const { return registered_; }
  bool obfuscate_addresses() const { return options_.obfuscate_addresses; }

  // Last server epoch seen (0 until the first kRegisterOk) and the number of
  // server restarts detected via an epoch change. Each detected restart
  // triggers a transparent re-registration from the same socket, so the
  // public endpoint and peer sessions are unaffected.
  uint64_t server_epoch() const { return server_epoch_; }
  uint64_t restarts_detected() const { return restarts_detected_; }

  // Sharded-tier state. `failovers()` counts re-homings; `current_shard()`
  // is the ring index the client is registered with (or re-registering to);
  // `rehoming()` is true in the window between declaring the shard dead and
  // the replacement's kRegisterOk — connect requests fail fast during it and
  // callers (ResilientSessionManager) treat that as retry-without-cost.
  const ShardRing& ring() const { return ring_; }
  uint64_t failovers() const { return failovers_; }
  uint32_t current_shard() const { return ring_.NthOwner(client_id_, ladder_pos_); }
  bool rehoming() const { return ring_.size() > 1 && !registered_; }

 private:
  void OnReceive(const Endpoint& from, const Payload& payload);
  void HandleServerMessage(const RendezvousMessage& msg, const Endpoint& from);
  void SendToServer(const RendezvousMessage& msg);
  void ReRegister();
  void RegisterRetryTick();
  void RequestRetryTick(uint64_t peer_id);
  void KeepAliveTick();
  void FailOverToNextShard();

  Host* host_;
  Endpoint server_;
  uint64_t client_id_;
  RendezvousClientOptions options_;
  ShardRing ring_;           // empty when constructed with a single server
  uint32_t ladder_pos_ = 0;  // ring() ladder position: 0 = home, 1 = replica, ...
  int keepalive_misses_ = 0;
  uint64_t failovers_ = 0;

  UdpSocket* socket_ = nullptr;
  Endpoint private_ep_;
  Endpoint public_ep_;
  bool registered_ = false;
  uint64_t server_epoch_ = 0;
  uint64_t restarts_detected_ = 0;

  EndpointCallback register_cb_;
  int register_attempts_ = 0;
  EventLoop::EventId register_retry_event_ = EventLoop::kInvalidEventId;

  struct PendingRequest {
    std::function<void(Result<RendezvousMessage>)> cb;
    std::function<void()> resend;
    int attempts = 0;
    ConnectStrategy strategy;
    uint64_t nonce;
    EventLoop::EventId retry_event = EventLoop::kInvalidEventId;
  };
  std::map<uint64_t, PendingRequest> pending_requests_;  // by peer id

  std::map<ConnectStrategy, MessageHandler> connect_forward_handlers_;
  RelayHandler relay_handler_;
  PeerTrafficHandler peer_traffic_handler_;
  // Intrusive keepalive timer: arming it needs no std::function, it takes a
  // 56 B event-pool slot only when it leaves the timing wheel shortly before
  // it fires, and a cancel unlinks the handle or frees that slot.
  TimerHandle keepalive_timer_;
  SimDuration keepalive_interval_;
};

class TcpRendezvousClient {
 public:
  using EndpointCallback = std::function<void(Result<Endpoint>)>;
  using MessageHandler = std::function<void(const RendezvousMessage&)>;
  using RelayHandler = std::function<void(uint64_t from_id, const Bytes& payload)>;

  TcpRendezvousClient(Host* host, Endpoint server, uint64_t client_id,
                      RendezvousClientOptions options = RendezvousClientOptions{});

  // Bind `local_port` (0 = ephemeral) with SO_REUSEADDR, connect to S from
  // it, and register. Callback receives the observed public endpoint.
  void Connect(uint16_t local_port, EndpointCallback cb);

  void RequestConnect(uint64_t peer_id, ConnectStrategy strategy, uint64_t nonce,
                      std::function<void(Result<RendezvousMessage>)> cb, Bytes payload = Bytes{});
  void SetConnectForwardHandler(ConnectStrategy strategy, MessageHandler handler) {
    connect_forward_handlers_[strategy] = std::move(handler);
  }

  void SendRelay(uint64_t to_id, Bytes payload);
  void SetRelayHandler(RelayHandler handler) { relay_handler_ = std::move(handler); }

  // §4.5 support: signal the initiator that we are now listening, and the
  // ability to drop/reopen the server connection.
  void SendSequentialReady(uint64_t to_id, uint64_t nonce);
  void SetSequentialReadyHandler(MessageHandler handler) {
    sequential_ready_handler_ = std::move(handler);
  }
  void CloseConnection();
  // Reconnect to S from an ephemeral port (the §4.5 procedure consumes the
  // original connection).
  void Reconnect(EndpointCallback cb);

  TcpSocket* connection() const { return connection_; }
  Host* host() const { return host_; }
  uint64_t client_id() const { return client_id_; }
  Endpoint server() const { return server_; }
  uint16_t local_port() const { return local_port_; }
  Endpoint private_endpoint() const { return private_ep_; }
  Endpoint public_endpoint() const { return public_ep_; }
  bool registered() const { return registered_; }
  bool obfuscate_addresses() const { return options_.obfuscate_addresses; }

  // Epoch bookkeeping mirrors UdpRendezvousClient, but a TCP client cannot
  // re-register in place: a server restart kills the connection, so recovery
  // goes through Reconnect(). The counter still records detected restarts
  // (an epoch change across a reconnect).
  uint64_t server_epoch() const { return server_epoch_; }
  uint64_t restarts_detected() const { return restarts_detected_; }

 private:
  void OnData(const Bytes& data);
  void HandleServerMessage(const RendezvousMessage& msg);
  void SendToServer(const RendezvousMessage& msg);
  void DoConnect(uint16_t local_port, EndpointCallback cb);

  Host* host_;
  Endpoint server_;
  uint64_t client_id_;
  RendezvousClientOptions options_;

  TcpSocket* connection_ = nullptr;
  MessageFramer framer_;
  uint16_t local_port_ = 0;
  Endpoint private_ep_;
  Endpoint public_ep_;
  bool registered_ = false;
  uint64_t server_epoch_ = 0;
  uint64_t restarts_detected_ = 0;

  EndpointCallback register_cb_;
  std::map<uint64_t, std::function<void(Result<RendezvousMessage>)>> pending_requests_;

  std::map<ConnectStrategy, MessageHandler> connect_forward_handlers_;
  MessageHandler sequential_ready_handler_;
  RelayHandler relay_handler_;
};

}  // namespace natpunch

#endif  // SRC_RENDEZVOUS_CLIENT_H_
