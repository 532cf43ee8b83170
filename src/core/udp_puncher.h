// UDP hole punching (§3) — the paper's primary technique.
//
// UdpHolePuncher drives the §3.2 procedure over a registered
// UdpRendezvousClient: it asks S for the peer's public and private
// endpoints, fires authenticated probes at *both* simultaneously, and locks
// in whichever endpoint first elicits a valid reply. It also answers the
// passive role automatically when S forwards a peer's connection request.
//
// Established sessions (UdpP2pSession) carry data, send §3.6 keep-alives,
// detect peer silence, and report rich outcome data (which endpoint won,
// elapsed time, probe counts) consumed by the Fig. 4/5/6 benchmarks.

#ifndef SRC_CORE_UDP_PUNCHER_H_
#define SRC_CORE_UDP_PUNCHER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/peer_wire.h"
#include "src/rendezvous/client.h"
#include "src/util/flat_hash.h"
#include "src/util/slab.h"

namespace natpunch {

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

struct UdpPunchConfig {
  SimDuration punch_timeout = Seconds(10);
  SimDuration keepalive_interval = Seconds(15);
  // Deterministic per-session spread on the keepalive cadence: each session
  // keeps interval + offset, with offset hashed from its nonce into
  // [-keepalive_jitter, +keepalive_jitter]. At swarm scale this keeps 100k
  // sessions punched at the same instant from firing keepalives as one
  // thundering-herd wave. Zero (the default) reproduces the unjittered
  // cadence exactly, which the golden traces depend on.
  SimDuration keepalive_jitter = Micros(0);
  // A session with no inbound traffic for this long is declared dead; the
  // application then re-runs hole punching "on demand" (§3.6).
  SimDuration session_expiry = Seconds(60);
  bool keepalives_enabled = true;
  // Probe the peer's private endpoint as well as the public one (§3.3
  // recommends both; disabling is the "assume hairpin" ablation).
  bool try_private_endpoint = true;
  // Also adopt unexpected probe source endpoints as candidates. This is
  // what lets punching occasionally work when the *peer's* NAT is symmetric
  // but ours is a cone: the peer's probe arrives from an unpredicted port
  // and we simply answer where it came from.
  bool adopt_observed_endpoints = true;
};

class UdpHolePuncher;

// Established P2P session. Deliberately compact: the swarm benchmarks keep
// two of these alive per counted session (initiator and responder side), so
// at 1M sessions every byte of this struct is 2 MB of resident memory. The
// receive and dead callbacks (unused by the vast majority of swarm
// sessions) live in a puncher-side table keyed by nonce, guarded here by
// flag bits; booleans and small counters are packed into the tail pad. One
// timer serves both §3.6 duties: it fires at the earlier of the next
// keepalive and the expiry deadline.
class UdpP2pSession {
 public:
  using ReceiveCallback = std::function<void(const Bytes& payload)>;
  using DeadCallback = std::function<void(Status)>;

  // Application payload to the locked-in endpoint.
  Status Send(Bytes payload);
  void SetReceiveCallback(ReceiveCallback cb);
  void SetDeadCallback(DeadCallback cb);
  void Close();

  uint64_t peer_id() const { return peer_id_; }
  uint64_t nonce() const { return nonce_; }
  Endpoint peer_endpoint() const { return peer_endpoint_; }
  bool alive() const { return (flags_ & kAlive) != 0; }
  // True when the locked-in endpoint was the peer's *private* endpoint —
  // the expected outcome behind a common NAT (§3.3).
  bool used_private_endpoint() const { return (flags_ & kUsedPrivate) != 0; }
  SimDuration punch_elapsed() const { return Micros(punch_elapsed_us_); }
  int probes_sent() const { return probes_sent_; }
  uint64_t datagrams_received() const { return datagrams_received_; }

 private:
  friend class UdpHolePuncher;
  template <typename, size_t>
  friend class Slab;

  static constexpr uint8_t kAlive = 1u << 0;
  static constexpr uint8_t kUsedPrivate = 1u << 1;
  static constexpr uint8_t kHasReceiveCb = 1u << 2;
  static constexpr uint8_t kHasDeadCb = 1u << 3;

  explicit UdpP2pSession(UdpHolePuncher* puncher) : puncher_(puncher) {}

  // Intrusive timer thunk (zero-allocation arm/fire).
  void TimerFire();

  UdpHolePuncher* puncher_;
  uint64_t peer_id_ = 0;
  uint64_t nonce_ = 0;
  uint64_t datagrams_received_ = 0;
  SimTime last_inbound_;
  // When the next keepalive leaves; never, with keepalives disabled.
  SimTime next_keepalive_;
  Endpoint peer_endpoint_;
  // Punch duration in µs, saturating at ~71.6 minutes — informational only,
  // and punch_timeout makes longer punches unreachable in practice.
  uint32_t punch_elapsed_us_ = 0;
  uint16_t probes_sent_ = 0;  // saturating; accessor widens back to int
  uint8_t flags_ = kAlive;
  TimerHandle timer_;  // at min(next_keepalive_, last_inbound_ + session_expiry)
};

class UdpHolePuncher {
 public:
  using SessionCallback = std::function<void(Result<UdpP2pSession*>)>;

  // Cadence of probe rounds while punching (the relay fallback's responder
  // knocks at the same cadence until its relay leg is confirmed).
  static constexpr SimDuration kProbeInterval = Millis(200);

  UdpHolePuncher(UdpRendezvousClient* rendezvous, UdpPunchConfig config = UdpPunchConfig{});
  ~UdpHolePuncher();

  // Active side: request an introduction to peer_id through S and punch.
  void ConnectToPeer(uint64_t peer_id, SessionCallback cb);

  // Advanced entry point: punch at explicitly supplied candidate endpoints
  // instead of the ones S observed. Used by the §5.1 port-prediction
  // variant for symmetric NATs. Pass a null cb on the passive side (the
  // session is then delivered to the incoming-session callback).
  void PunchAtEndpoints(uint64_t peer_id, uint64_t nonce, const Endpoint& peer_public,
                        const Endpoint& peer_private, SessionCallback cb);

  // Datagrams on the shared socket that are neither rendezvous nor peer
  // protocol messages (e.g. STUN-like probe replies for port prediction).
  void SetRawTrafficHandler(std::function<void(const Endpoint&, const Payload&)> handler) {
    raw_handler_ = std::move(handler);
  }

  // Sessions initiated by remote peers land here once punched.
  void SetIncomingSessionCallback(std::function<void(UdpP2pSession*)> cb) {
    incoming_cb_ = std::move(cb);
  }

  // Decoded peer-protocol messages whose nonce matches no session and no
  // in-flight attempt. Without a handler they are dropped silently (§3.4:
  // never answer unauthenticated strays). The relay fallback registers one
  // to receive peer datagrams that arrive outside any punched session.
  void SetUnclaimedMessageHandler(std::function<void(const Endpoint&, const PeerMessage&)> cb) {
    unclaimed_handler_ = std::move(cb);
  }

  // Send a peer-wire message from the shared socket. Public so the relay
  // fallback can speak the session framing toward a relayed endpoint.
  void SendPeerMessage(const Endpoint& to, PeerMsgType type, uint64_t nonce, Bytes payload);

  UdpRendezvousClient* rendezvous() const { return rendezvous_; }
  const UdpPunchConfig& config() const { return config_; }

  size_t active_attempts() const { return attempts_.size(); }
  size_t active_sessions() const;

 private:
  friend class UdpP2pSession;

  struct Attempt {
    UdpHolePuncher* puncher = nullptr;
    uint64_t peer_id = 0;
    uint64_t nonce = 0;
    bool incoming = false;
    // Initiator-side robustness: periodically re-send the ConnectRequest so
    // a lost kConnectForward doesn't strand the peer un-introduced.
    bool renew_introduction = false;
    std::vector<Endpoint> candidates;
    Endpoint peer_public;   // remembered to label the winning path
    Endpoint peer_private;
    SimTime started;
    int probes_sent = 0;
    int probe_rounds = 0;
    SessionCallback cb;
    // Intrusive handles, like the session timer: arming one needs no
    // std::function, it takes a 56 B event-pool slot only when it leaves
    // the timing wheel shortly before it fires, and a cancel unlinks the
    // handle or frees that slot. The map node gives them the stable
    // address Bind requires. Attempt is therefore unmovable — cancel both
    // timers and copy fields out before erasing the node.
    TimerHandle probe_timer;
    TimerHandle deadline_timer;
    void ProbeTick() { puncher->SendProbes(this); }
    void DeadlineTick() {
      puncher->FailAttempt(nonce, Status(ErrorCode::kTimedOut, "hole punch timed out"));
    }
  };

  Attempt* StartAttempt(uint64_t peer_id, uint64_t nonce, const Endpoint& peer_public,
                        const Endpoint& peer_private, bool incoming, SessionCallback cb);
  void SendProbes(Attempt* attempt);
  void FinishAttempt(uint64_t nonce, const Endpoint& winner);
  void FailAttempt(uint64_t nonce, const Status& status);
  void OnPeerTraffic(const Endpoint& from, const Payload& payload);
  void OnSocketError(const Endpoint& dst, ErrorCode code);

  // This session's keepalive cadence: the config interval plus an offset
  // hashed from the nonce into [-keepalive_jitter, +keepalive_jitter].
  SimDuration KeepAliveInterval(uint64_t nonce) const;
  void ArmSessionTimer(UdpP2pSession* session);
  void SessionTick(UdpP2pSession* session);
  void SessionInboundSeen(UdpP2pSession* session);
  void CloseSession(UdpP2pSession* session, const Status& status, bool notify);

  // Side table carrying the cold std::function callbacks evicted from
  // UdpP2pSession (see the class comment). Entries exist only for sessions
  // that installed a callback; the session's flag bits gate the lookup so
  // the common no-callback receive path never probes the table.
  struct SessionCallbacks {
    UdpP2pSession::ReceiveCallback receive;
    UdpP2pSession::DeadCallback dead;
  };
  void SetSessionReceiveCallback(UdpP2pSession* session, UdpP2pSession::ReceiveCallback cb);
  void SetSessionDeadCallback(UdpP2pSession* session, UdpP2pSession::DeadCallback cb);
  void DispatchReceive(UdpP2pSession* session, const Bytes& payload);

  UdpRendezvousClient* rendezvous_;
  UdpPunchConfig config_;
  EventLoop& loop_;

  // Registry names: punch.attempts / successes / failures and the
  // punch.rtt_ms latency histogram (shared across all punchers in the
  // Network — per-run aggregates, not per-host). Null without metrics.
  obs::Counter* metric_attempts_ = nullptr;
  obs::Counter* metric_successes_ = nullptr;
  obs::Counter* metric_failures_ = nullptr;
  obs::Histogram* metric_rtt_ms_ = nullptr;

  // Attempts stay in a std::map: OnSocketError scans them in nonce order and
  // that order is observable (golden traces). They are transient and few.
  std::map<uint64_t, Attempt> attempts_;  // by nonce
  // Sessions are the swarm-scale population: slab-backed storage (stable
  // addresses, no per-object malloc header) indexed by an open-addressing
  // map. Lookups are point queries; nothing iterates sessions_ in hash
  // order except teardown and the alive-count stat. A pool's idle tail is
  // under one chunk: a swarm puncher's 1,563 sessions take 1,600 slots.
  Slab<UdpP2pSession, 64> session_pool_;
  FlatHashMap<uint64_t, UdpP2pSession*> sessions_;  // by nonce
  FlatHashMap<uint64_t, SessionCallbacks> session_callbacks_;
  std::function<void(UdpP2pSession*)> incoming_cb_;
  std::function<void(const Endpoint&, const Payload&)> raw_handler_;
  std::function<void(const Endpoint&, const PeerMessage&)> unclaimed_handler_;
};

}  // namespace natpunch

#endif  // SRC_CORE_UDP_PUNCHER_H_
