// TURN-style data-plane relaying (§2.2 cites TURN as "a method of
// implementing relaying in a relatively secure fashion").
//
// Unlike the rendezvous server's message relaying (RelayHub), a TURN server
// allocates a real public UDP endpoint per client. The client reaches any
// peer by wrapping payloads in kSend indications over its (NAT-friendly,
// always-outbound) flow to the server; peers reach the client by sending
// plain datagrams at the allocated endpoint. Permissions are per peer
// ADDRESS (as in RFC 5766), so they hold even when the peer sits behind a
// symmetric NAT whose port toward the relay is unpredictable.
//
// Protocol (magic 0x54 'T', UDP, one message per datagram):
//   kAllocate        client -> server   create/refresh an allocation
//   kAllocateOk      server -> client   {relayed endpoint}
//   kPermit          client -> server   {peer address} allow inbound
//   kSend            client -> server   {peer endpoint, payload} emit from
//                                       the relayed endpoint
//   kData            server -> client   {peer endpoint, payload} arrived at
//                                       the relayed endpoint
// Anything arriving at a relayed endpoint from a non-permitted address is
// dropped. Allocations and permissions expire when idle.

#ifndef SRC_CORE_TURN_H_
#define SRC_CORE_TURN_H_

#include <map>
#include <memory>

#include "src/transport/host.h"
#include "src/util/slab.h"

namespace natpunch {

enum class TurnMsgType : uint8_t {
  kAllocate = 1,
  kAllocateOk = 2,
  kPermit = 3,
  kSend = 4,
  kData = 5,
};

struct TurnMessage {
  TurnMsgType type = TurnMsgType::kAllocate;
  Endpoint peer;  // kPermit (port ignored), kSend (target), kData (source)
  Bytes payload;  // kSend / kData
};

Bytes EncodeTurnMessage(const TurnMessage& msg);
std::optional<TurnMessage> DecodeTurnMessage(ConstByteSpan data);

struct TurnServerConfig {
  uint16_t port = 3479;
  SimDuration allocation_lifetime = Seconds(600);
};

class TurnServer {
 public:
  TurnServer(Host* host, TurnServerConfig config);
  explicit TurnServer(Host* host) : TurnServer(host, TurnServerConfig{}) {}
  ~TurnServer();

  TurnServer(const TurnServer&) = delete;
  TurnServer& operator=(const TurnServer&) = delete;

  Status Start();
  // Take the relay down: drops every allocation and closes the control and
  // relayed sockets. Clients discover the outage only by silence (their
  // refreshes and wrapped sends go unanswered), exactly like a crashed
  // server. Start() brings it back empty.
  void Stop();
  Endpoint endpoint() const { return Endpoint(host_->primary_address(), config_.port); }

  struct Stats {
    uint64_t allocations = 0;
    uint64_t relayed_to_peer = 0;     // kSend emissions
    uint64_t relayed_to_client = 0;   // kData deliveries
    uint64_t denied_no_permission = 0;
    uint64_t expired_allocations = 0;
  };
  const Stats& stats() const { return stats_; }
  size_t active_allocations() const { return allocations_.size(); }

 private:
  struct Allocation {
    Endpoint client;             // the client's public endpoint (its 5-tuple id)
    UdpSocket* relayed = nullptr;
    SimTime last_activity;
    std::map<Ipv4Address, SimTime> permissions;  // address-based, RFC 5766 style
  };

  void OnControl(const Endpoint& from, const Payload& payload);
  void OnRelayed(Allocation* allocation, const Endpoint& from, const Payload& payload);
  void ScheduleSweep();
  void SweepTick();

  Host* host_;
  TurnServerConfig config_;
  UdpSocket* control_ = nullptr;
  TimerHandle sweep_timer_;
  // Allocation objects come from the slab (stable addresses — OnRelayed
  // callbacks capture them); the std::map stays because the sweep erases
  // while iterating in endpoint order, and that order is observable.
  Slab<Allocation, 64> allocation_pool_;
  std::map<Endpoint, Allocation*> allocations_;  // by client endpoint
  Stats stats_;
};

class TurnClient {
 public:
  struct Config {
    SimDuration refresh_interval = Seconds(60);  // keeps allocation + NAT flow alive
  };

  TurnClient(Host* host, Endpoint server, Config config);
  TurnClient(Host* host, Endpoint server) : TurnClient(host, server, Config{}) {}
  ~TurnClient();

  TurnClient(const TurnClient&) = delete;
  TurnClient& operator=(const TurnClient&) = delete;

  // Bind a local socket (0 = ephemeral) and allocate a relayed endpoint.
  void Allocate(uint16_t local_port, std::function<void(Result<Endpoint>)> cb);

  // Allow inbound relayed traffic from this peer address.
  Status Permit(Ipv4Address peer);

  // Emit `payload` from the relayed endpoint toward `peer`.
  Status SendTo(const Endpoint& peer, Bytes payload);

  // Datagrams that arrived at the relayed endpoint.
  void SetReceiveCallback(std::function<void(const Endpoint& from, const Bytes&)> cb) {
    receive_cb_ = std::move(cb);
  }

  Endpoint relayed_endpoint() const { return relayed_; }
  bool allocated() const { return allocated_; }

 private:
  void OnReceive(const Endpoint& from, const Payload& payload);
  void SendAllocate();
  void RetryTick();
  void RefreshTick();

  Host* host_;
  Endpoint server_;
  Config config_;
  UdpSocket* socket_ = nullptr;
  Endpoint relayed_;
  bool allocated_ = false;
  int attempts_ = 0;
  std::function<void(Result<Endpoint>)> allocate_cb_;
  // Intrusive handles: destruction cancels automatically, so a destroyed
  // client can never be called back by a stale timer.
  TimerHandle retry_timer_;
  TimerHandle refresh_timer_;
  std::function<void(const Endpoint&, const Bytes&)> receive_cb_;
};

}  // namespace natpunch

#endif  // SRC_CORE_TURN_H_
