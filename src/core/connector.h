// TcpConnector: the "just get me a channel" facade for TCP.
//
// Mirrors the strategy ladder a production application (or ICE) runs: try
// TCP hole punching first; when the NATs won't cooperate (§5.1 symmetric
// mapping, §5.2 RSTs, etc.), fall back to relaying through S, which always
// works (§2.2). The resulting channel hides which path is in use but
// reports it, so applications can display "direct" vs "relayed" like real
// P2P apps do.
//
// UDP callers use ResilientSessionManager (src/core/resilient_session.h),
// which runs the same punch-then-relay ladder over a TURN relay and also
// recovers sessions that die later.

#ifndef SRC_CORE_CONNECTOR_H_
#define SRC_CORE_CONNECTOR_H_

#include "src/core/relay.h"
#include "src/core/tcp_puncher.h"

namespace natpunch {

class TcpConnector;

// A punched authenticated stream when the NATs allow it, otherwise a
// message channel relayed over the rendezvous connection. Both present the
// same message-oriented interface (the relay is not a byte stream, so the
// common denominator is framed messages — which is what the punched path's
// TcpP2pStream carries anyway).
class TcpChannel {
 public:
  enum class Kind { kStream, kRelayed };
  using ReceiveCallback = std::function<void(const Bytes& payload)>;

  Status Send(Bytes payload);
  void SetReceiveCallback(ReceiveCallback cb);

  Kind kind() const { return kind_; }
  uint64_t peer_id() const { return peer_id_; }
  TcpP2pStream* stream() const { return stream_; }
  RelayChannel* relay() const { return relay_; }

 private:
  friend class TcpConnector;

  Kind kind_ = Kind::kRelayed;
  uint64_t peer_id_ = 0;
  TcpP2pStream* stream_ = nullptr;
  RelayChannel* relay_ = nullptr;
};

class TcpConnector {
 public:
  explicit TcpConnector(TcpRendezvousClient* rendezvous, TcpPunchConfig punch = TcpPunchConfig{});

  // Punch, falling back to relay. The callback always succeeds when the
  // peer is registered.
  void Connect(uint64_t peer_id, std::function<void(Result<TcpChannel*>)> cb);
  void SetIncomingChannelCallback(std::function<void(TcpChannel*)> cb) {
    incoming_cb_ = std::move(cb);
  }

  TcpHolePuncher& puncher() { return puncher_; }
  RelayHub& relay_hub() { return relay_hub_; }

 private:
  TcpChannel* WrapStream(TcpP2pStream* stream);
  TcpChannel* WrapRelay(RelayChannel* relay);

  TcpHolePuncher puncher_;
  RelayHub relay_hub_;
  std::vector<std::unique_ptr<TcpChannel>> channels_;
  std::function<void(TcpChannel*)> incoming_cb_;
};

}  // namespace natpunch

#endif  // SRC_CORE_CONNECTOR_H_
