// Self-healing peer sessions (§3.6 "recovering on demand", automated).
//
// The paper observes that punched sessions die — NAT reboots flush the
// translation state, idle timeouts reclaim it — and that applications
// simply re-run hole punching when they notice. ResilientSession wraps a
// UdpP2pSession and does exactly that, automatically: when the inner
// session's expiry watchdog fires, the initiator re-punches with
// exponential backoff plus deterministic jitter, and after a bounded number
// of failed re-punches falls back to the §2.2 relay hierarchy, here a
// TURN-style data-plane relay (address-based permissions, so the fallback
// works even when BOTH peers sit behind symmetric NATs and punching is
// structurally impossible).
//
// Relay fallback signaling rides the existing rendezvous introduction
// machinery: the initiator allocates a relayed endpoint EA and sends a
// kRelayOnly connect request whose payload is EA; the responder then
// addresses the initiator *at EA* with ordinary peer-wire datagrams from
// its punch socket, while the initiator speaks through its TURN client.
// The first datagram from the responder that surfaces at EA tells the
// initiator the responder's live public endpoint, closing the loop.
//
// Every recovery is recorded (downtime, re-punch attempts, final path) —
// the raw material for the chaos bench's availability and recovery-time
// distributions.

#ifndef SRC_CORE_RESILIENT_SESSION_H_
#define SRC_CORE_RESILIENT_SESSION_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/turn.h"
#include "src/core/udp_puncher.h"

namespace natpunch {

struct ResilientSessionConfig {
  // Failed re-punch attempts before giving up on the direct path. With a
  // TURN server configured the session then falls back to the relay;
  // without one it is declared failed.
  int max_repunch_attempts = 3;
  // Unspecified => no relay fallback.
  Endpoint turn_server;
  // Relay-leg watchdog: while on the relay path the initiator sends
  // keepalives through the relay every relay_keepalive_interval (the
  // responder already knocks at the puncher's keepalive cadence), and each
  // side declares the leg dead after relay_timeout without any inbound
  // relay traffic. A dead leg re-enters the normal recovery ladder:
  // re-punch with backoff, then a fresh relay allocation — so a rebooted
  // relay server is picked up automatically. relay_timeout must exceed
  // both keepalive cadences or an idle-but-healthy leg false-positives.
  //
  // Keepalives double as RTT probes: a probe (empty payload) is echoed by
  // the peer with a one-byte reply marker, and each side keeps an EWMA of
  // the probe->inbound delay. Once sampled, the watchdog waits
  // clamp(2 * relay_keepalive_interval + 6 * srtt, 8 s, relay_timeout) of
  // silence instead of the static relay_timeout — at simulated RTTs that
  // is ~10 s instead of 30 s, while still tolerating one whole lost
  // keepalive round. Until the first RTT sample the static relay_timeout
  // applies.
  SimDuration relay_keepalive_interval = Seconds(5);
  SimDuration relay_timeout = Seconds(30);
  // Deterministic per-session spread on the steady (confirmed) relay
  // keepalive cadences, hashed from the peer id into
  // [-relay_keepalive_jitter, +relay_keepalive_jitter]. Breaks up swarm-wide
  // keepalive waves; zero (the default) reproduces the unjittered cadence
  // exactly. The unconfirmed fast-knock cadence is never jittered.
  SimDuration relay_keepalive_jitter = Micros(0);
};

class ResilientSessionManager;

class ResilientSession {
 public:
  enum class Path {
    kConnecting,  // punching, re-punching, or relay signaling in flight
    kDirect,      // punched UDP session
    kRelay,       // TURN relay fallback
    kFailed,      // recovery abandoned
  };

  using ReceiveCallback = std::function<void(const Bytes& payload)>;
  using DeadCallback = std::function<void(Status)>;

  // One completed recovery: death of the previous path to data flowing again.
  struct RecoveryRecord {
    SimTime died_at;
    SimDuration downtime;
    int repunch_attempts = 0;
    bool via_relay = false;
  };

  // Application payload over whichever path is live. While recovering,
  // payloads are buffered (up to 128) and flushed on recovery.
  Status Send(Bytes payload);

  void SetReceiveCallback(ReceiveCallback cb) { receive_cb_ = std::move(cb); }
  // Fired once if recovery is abandoned (path kFailed).
  void SetDeadCallback(DeadCallback cb) { dead_cb_ = std::move(cb); }

  uint64_t peer_id() const { return peer_id_; }
  bool initiator() const { return initiator_; }
  Path path() const { return path_; }
  bool alive() const { return path_ != Path::kFailed; }
  // The punched session currently carrying data (null on the relay path).
  UdpP2pSession* inner() const { return inner_; }

  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }
  SimDuration total_downtime() const;
  int total_repunch_attempts() const;
  uint64_t relayed_sent() const { return relayed_sent_; }
  uint64_t relayed_received() const { return relayed_received_; }
  // Datagrams rejected because the between-paths buffer was full (the send
  // queue holds at most 128; overflow is dropped and counted, never
  // buffered unboundedly).
  uint64_t sends_dropped() const { return sends_dropped_; }
  // Times the relay-leg watchdog declared the relay dead.
  int relay_losses() const { return relay_losses_; }
  // Smoothed relay-leg RTT from keepalive probes; 0 before the first sample.
  SimDuration relay_srtt() const { return relay_srtt_; }

 private:
  friend class ResilientSessionManager;
  template <typename, size_t>
  friend class Slab;

  ResilientSession(ResilientSessionManager* manager, uint64_t peer_id, bool initiator)
      : manager_(manager), peer_id_(peer_id), initiator_(initiator) {}

  // Intrusive timer thunks (zero-allocation arm/fire).
  void RepunchFire();
  void RelayKeepAliveFire();
  void RelayWatchdogFire();

  ResilientSessionManager* manager_;
  uint64_t peer_id_;
  bool initiator_;
  Path path_ = Path::kConnecting;
  UdpP2pSession* inner_ = nullptr;  // owned by the puncher

  // Recovery in flight.
  bool recovering_ = false;
  SimTime died_at_;
  int repunch_attempts_ = 0;
  TimerHandle repunch_timer_;

  // Relay state. The initiator owns the allocation and speaks through
  // turn_; the responder sends plain peer-wire datagrams at relay_target_
  // (the initiator's relayed endpoint) from the shared punch socket.
  std::unique_ptr<TurnClient> turn_;
  uint64_t relay_nonce_ = 0;
  Endpoint relay_target_;    // responder: EA; initiator: peer's observed ep
  bool relay_confirmed_ = false;
  // Fires either side's relay keepalive: the initiator's (through turn_) or
  // the responder's knock loop, discriminated by turn_ in RelayKeepAliveFire.
  TimerHandle relay_keepalive_timer_;
  // This session's deterministic keepalive spread (zero without jitter).
  SimDuration relay_keepalive_offset_ = Micros(0);
  // Relay-leg watchdog: last time any relay traffic arrived, and the timer
  // that checks the silence window against relay_timeout.
  SimTime last_relay_rx_;
  TimerHandle relay_watchdog_timer_;
  int relay_losses_ = 0;
  // Keepalive RTT probe state for the adaptive watchdog.
  SimTime last_keepalive_tx_;
  bool rtt_pending_ = false;
  SimDuration relay_srtt_ = Micros(0);  // EWMA (1/8 gain); 0 = unsampled

  std::vector<Bytes> pending_sends_;
  std::vector<RecoveryRecord> recoveries_;
  uint64_t relayed_sent_ = 0;
  uint64_t relayed_received_ = 0;
  uint64_t sends_dropped_ = 0;

  std::function<void(Result<ResilientSession*>)> connect_cb_;
  ReceiveCallback receive_cb_;
  DeadCallback dead_cb_;
};

class ResilientSessionManager {
 public:
  using SessionCallback = std::function<void(Result<ResilientSession*>)>;

  // Installs itself as the puncher's incoming-session and unclaimed-message
  // consumer and registers the kRelayOnly forward handler — one manager per
  // puncher.
  ResilientSessionManager(UdpHolePuncher* puncher,
                          ResilientSessionConfig config = ResilientSessionConfig{});

  ResilientSessionManager(const ResilientSessionManager&) = delete;
  ResilientSessionManager& operator=(const ResilientSessionManager&) = delete;
  ~ResilientSessionManager();

  // Active side. Tries the direct punch first; if it fails and a TURN
  // server is configured, establishes the relay path instead.
  void ConnectToPeer(uint64_t peer_id, SessionCallback cb);

  // Passive side: sessions initiated by remote peers (either path). Repeat
  // punches from a peer with an existing session rebind into that session
  // (they are a recovery, not a new conversation) and do NOT re-fire this.
  void SetIncomingSessionCallback(std::function<void(ResilientSession*)> cb) {
    incoming_cb_ = std::move(cb);
  }

  ResilientSession* FindSession(uint64_t peer_id);
  size_t session_count() const { return sessions_.size(); }
  UdpHolePuncher* puncher() const { return puncher_; }

 private:
  friend class ResilientSession;

  ResilientSession* FindOrCreate(uint64_t peer_id, bool initiator, bool* created);

  void AdoptInner(ResilientSession* rs, UdpP2pSession* inner);
  void OnIncomingSession(UdpP2pSession* inner);
  void OnInnerDead(ResilientSession* rs, Status status);
  void ScheduleRepunch(ResilientSession* rs);
  void AttemptRepunch(ResilientSession* rs);
  void FinishRecovery(ResilientSession* rs, bool via_relay);
  void FailSession(ResilientSession* rs, const Status& status);
  void FlushPending(ResilientSession* rs);

  bool relay_available() const { return !config_.turn_server.IsUnspecified(); }
  void EnterRelay(ResilientSession* rs);
  void RelayEstablished(ResilientSession* rs);
  void OnRelayForward(const RendezvousMessage& msg);       // responder side
  void OnTurnData(uint64_t peer_id, const Endpoint& from,  // initiator side
                  const Bytes& payload);
  void OnUnclaimed(const Endpoint& from, const PeerMessage& msg);
  void ResponderRelayKeepAlive(ResilientSession* rs);
  void InitiatorRelayKeepAlive(ResilientSession* rs);
  // Watchdog wakeup: declare the leg dead or sleep out the remaining window.
  void RelayWatchdogTick(ResilientSession* rs);
  // (Re)start the silence clock: records now as the last inbound and arms
  // the watchdog timer for a full relay_timeout.
  void ArmRelayWatchdog(ResilientSession* rs);
  void ScheduleRelayWatchdog(ResilientSession* rs, SimDuration delay);
  // The silence window the watchdog currently applies to this session:
  // static relay_timeout until RTT samples exist, adaptive afterwards.
  SimDuration EffectiveRelayTimeout(const ResilientSession* rs) const;
  // Bookkeeping common to both sides' inbound relay traffic: refresh the
  // silence clock and fold a pending keepalive probe into the srtt.
  void NoteRelayInbound(ResilientSession* rs);
  // Stamp an outbound keepalive as an RTT probe (no-op while one is open).
  void MarkKeepAliveProbe(ResilientSession* rs);
  void OnRelayDead(ResilientSession* rs);
  Status RelaySend(ResilientSession* rs, Bytes payload);

  SimDuration NextBackoff(const ResilientSession* rs);
  // Bounded-send-queue overflow accounting (resilient.sends_dropped).
  void CountDroppedSend(ResilientSession* rs);

  UdpHolePuncher* puncher_;
  ResilientSessionConfig config_;
  EventLoop& loop_;
  // Slab-backed like the puncher's sessions: stable addresses, no per-object
  // malloc header, point lookups by peer id. Nonce matching in OnUnclaimed
  // is unique, so nothing depends on iteration order.
  Slab<ResilientSession, 256> session_pool_;
  FlatHashMap<uint64_t, ResilientSession*> sessions_;  // by peer id
  std::function<void(ResilientSession*)> incoming_cb_;

  // Registry names: resilient.recoveries / relay_fallbacks / relay_losses /
  // sends_dropped and the resilient.recovery_downtime_ms histogram. Null
  // without metrics.
  obs::Counter* metric_recoveries_ = nullptr;
  obs::Counter* metric_relay_fallbacks_ = nullptr;
  obs::Counter* metric_relay_losses_ = nullptr;
  obs::Counter* metric_sends_dropped_ = nullptr;
  obs::Histogram* metric_downtime_ms_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_CORE_RESILIENT_SESSION_H_
