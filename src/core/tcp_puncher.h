// TCP hole punching (§4.2) and connection reversal (§2.3).
//
// From the same local port the client registered with S, the puncher
// simultaneously listens for incoming connections and initiates outgoing
// connects to the peer's public and private endpoints (Fig. 7's socket
// arrangement — possible only because every socket sets SO_REUSEADDR,
// §4.1). Failed connects (RST from a §5.2-misbehaved NAT, ICMP, timeouts)
// are retried after a delay until the overall punch deadline (§4.2 step 4).
// Each established stream runs the nonce authentication of step 5; the
// first authenticated stream wins and the rest are discarded.
//
// Connection reversal reuses the same machinery: the requester registers a
// listen-only attempt and the responder runs connect-only candidates.

#ifndef SRC_CORE_TCP_PUNCHER_H_
#define SRC_CORE_TCP_PUNCHER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/tcp_stream.h"
#include "src/rendezvous/client.h"

namespace natpunch {

struct TcpPunchConfig {
  SimDuration punch_timeout = Seconds(30);
  bool try_private_endpoint = true;
};

// Per-attempt error accounting, consumed by the Fig. 7 / §5.2 benchmarks.
struct TcpPunchStats {
  int connect_attempts = 0;
  int refused = 0;        // RSTs (NAT §5.2 misbehavior or stray hosts)
  int unreachable = 0;    // ICMP errors
  int timed_out = 0;      // SYN retries exhausted
  int address_in_use = 0; // §4.3 behavior 2: listener took the connection
};

class TcpHolePuncher {
 public:
  using StreamCallback = std::function<void(Result<TcpP2pStream*>)>;

  TcpHolePuncher(TcpRendezvousClient* rendezvous, TcpPunchConfig config = TcpPunchConfig{});

  // Active side. strategy must be kHolePunch or kReversal.
  void ConnectToPeer(uint64_t peer_id, StreamCallback cb) {
    ConnectToPeer(peer_id, ConnectStrategy::kHolePunch, std::move(cb));
  }
  void ConnectToPeer(uint64_t peer_id, ConnectStrategy strategy, StreamCallback cb);

  // Streams initiated by remote peers land here once authenticated.
  void SetIncomingStreamCallback(std::function<void(TcpP2pStream*)> cb) {
    incoming_cb_ = std::move(cb);
  }

  // Stats of the most recently finished attempt (success or failure).
  const TcpPunchStats& last_stats() const { return last_stats_; }

  TcpRendezvousClient* rendezvous() const { return rendezvous_; }
  const TcpPunchConfig& config() const { return config_; }

 private:
  struct Candidate {
    Endpoint endpoint;
    bool is_private = false;
    TcpSocket* socket = nullptr;
    EventLoop::EventId retry_event = EventLoop::kInvalidEventId;
    bool gave_up = false;
  };

  struct Attempt {
    uint64_t peer_id = 0;
    uint64_t nonce = 0;
    bool incoming = false;
    std::vector<Candidate> candidates;
    Endpoint peer_public;
    Endpoint peer_private;
    SimTime started;
    StreamCallback cb;
    EventLoop::EventId deadline_event = EventLoop::kInvalidEventId;
    TcpPunchStats stats;
  };

  // A socket that is established but not yet authenticated (or an accepted
  // socket whose session is not yet known).
  struct PendingStream {
    TcpSocket* socket = nullptr;
    MessageFramer framer;
    uint64_t attempt_nonce = 0;  // 0 for accepted sockets until kAuth arrives
    bool is_private = false;
    bool dead = false;
  };

  Status EnsureListener();
  void StartAttempt(uint64_t peer_id, uint64_t nonce, const Endpoint& peer_public,
                    const Endpoint& peer_private, bool incoming, bool connect_side,
                    StreamCallback cb);
  void LaunchCandidate(uint64_t nonce, size_t index);
  void HandleConnectFailure(uint64_t nonce, size_t index, const Status& status);
  void OnEstablished(uint64_t nonce, TcpSocket* socket, bool is_private);
  void OnAccepted(TcpSocket* socket);
  void SendAuth(PendingStream* pending, PeerMsgType type, uint64_t nonce);
  void OnPendingData(PendingStream* pending, const Bytes& data);
  void Win(PendingStream* pending, uint64_t nonce);
  void FailAttempt(uint64_t nonce, const Status& status);
  void AbandonAttemptResources(Attempt* attempt, TcpSocket* keep);
  void DropPending(PendingStream* pending);

  TcpRendezvousClient* rendezvous_;
  TcpPunchConfig config_;
  EventLoop& loop_;
  TcpSocket* listener_ = nullptr;
  std::map<uint64_t, Attempt> attempts_;  // by nonce
  std::vector<std::unique_ptr<PendingStream>> pending_;
  std::vector<std::unique_ptr<TcpP2pStream>> streams_;
  std::function<void(TcpP2pStream*)> incoming_cb_;
  TcpPunchStats last_stats_;
};

}  // namespace natpunch

#endif  // SRC_CORE_TCP_PUNCHER_H_
