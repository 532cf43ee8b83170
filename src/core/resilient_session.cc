#include "src/core/resilient_session.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"
#include "src/util/flat_hash.h"
#include "src/util/logging.h"

namespace natpunch {
namespace {

// The kRelayOnly connect-request payload: the initiator's relayed endpoint.
Bytes EncodeRelayEndpoint(const Endpoint& ep) {
  ByteWriter w;
  w.WriteU32(ep.ip.bits());
  w.WriteU16(ep.port);
  return w.Take();
}

std::optional<Endpoint> DecodeRelayEndpoint(const Bytes& data) {
  ByteReader r(data);
  const Ipv4Address ip(r.ReadU32());
  const uint16_t port = r.ReadU16();
  if (!r.ok()) {
    return std::nullopt;
  }
  return Endpoint(ip, port);
}

// Relay keepalives with an empty payload are RTT probes and get echoed;
// echoes carry this one-byte marker so they are never echoed back (which
// would otherwise ping-pong forever at network RTT).
constexpr uint8_t kKeepAliveReplyMarker = 1;

// Re-punch backoff: delay_n = min(kBackoffInitial * kBackoffFactor^n,
// kBackoffMax), each delay scaled by a uniform +/- kBackoffJitter fraction
// drawn from the host rng (so two peers recovering simultaneously do not
// stampede in lockstep, yet the whole schedule stays reproducible under a
// fixed seed).
constexpr SimDuration kBackoffInitial = Millis(500);
constexpr double kBackoffFactor = 2.0;
constexpr SimDuration kBackoffMax = Seconds(8);
constexpr double kBackoffJitter = 0.2;

// Cap on datagrams buffered while a session is between paths.
constexpr size_t kMaxPendingSends = 128;

// Adaptive relay watchdog (ResilientSessionConfig explains the clamp): the
// srtt multiple, and the floor that keeps a tiny srtt from collapsing the
// window.
constexpr double kRelayRttMargin = 6.0;
constexpr SimDuration kRelayTimeoutFloor = Seconds(8);

}  // namespace

// ---------------------------------------------------------------------------
// ResilientSession
// ---------------------------------------------------------------------------

Status ResilientSession::Send(Bytes payload) {
  switch (path_) {
    case Path::kDirect:
      if (inner_ != nullptr && inner_->alive()) {
        return inner_->Send(std::move(payload));
      }
      [[fallthrough]];  // death noticed between watchdog ticks: buffer
    case Path::kConnecting:
      if (pending_sends_.size() >= kMaxPendingSends) {
        manager_->CountDroppedSend(this);
        return Status(ErrorCode::kWouldBlock, "recovery send buffer full");
      }
      pending_sends_.push_back(std::move(payload));
      return Status::Ok();
    case Path::kRelay:
      if (!relay_confirmed_) {
        if (pending_sends_.size() >= kMaxPendingSends) {
          manager_->CountDroppedSend(this);
          return Status(ErrorCode::kWouldBlock, "recovery send buffer full");
        }
        pending_sends_.push_back(std::move(payload));
        return Status::Ok();
      }
      return manager_->RelaySend(this, std::move(payload));
    case Path::kFailed:
      return Status(ErrorCode::kClosed, "session failed");
  }
  return Status(ErrorCode::kProtocolError, "unreachable");
}

SimDuration ResilientSession::total_downtime() const {
  SimDuration total{};
  for (const RecoveryRecord& rec : recoveries_) {
    total = total + rec.downtime;
  }
  return total;
}

int ResilientSession::total_repunch_attempts() const {
  int total = 0;
  for (const RecoveryRecord& rec : recoveries_) {
    total += rec.repunch_attempts;
  }
  return total;
}

void ResilientSession::RepunchFire() { manager_->AttemptRepunch(this); }

void ResilientSession::RelayKeepAliveFire() {
  // One handle serves both roles: only the initiator owns a TURN client, so
  // turn_ tells us whose cadence this is.
  if (turn_ != nullptr) {
    manager_->InitiatorRelayKeepAlive(this);
  } else {
    manager_->ResponderRelayKeepAlive(this);
  }
}

void ResilientSession::RelayWatchdogFire() { manager_->RelayWatchdogTick(this); }

// ---------------------------------------------------------------------------
// ResilientSessionManager
// ---------------------------------------------------------------------------

ResilientSessionManager::ResilientSessionManager(UdpHolePuncher* puncher,
                                                 ResilientSessionConfig config)
    : puncher_(puncher),
      config_(config),
      loop_(puncher->rendezvous()->host()->loop()) {
  puncher_->SetIncomingSessionCallback(
      [this](UdpP2pSession* inner) { OnIncomingSession(inner); });
  puncher_->SetUnclaimedMessageHandler(
      [this](const Endpoint& from, const PeerMessage& msg) { OnUnclaimed(from, msg); });
  puncher_->rendezvous()->SetConnectForwardHandler(
      ConnectStrategy::kRelayOnly,
      [this](const RendezvousMessage& fwd) { OnRelayForward(fwd); });
  if (obs::MetricsRegistry* reg = puncher_->rendezvous()->host()->network()->metrics()) {
    metric_recoveries_ = reg->GetCounter("resilient.recoveries");
    metric_relay_fallbacks_ = reg->GetCounter("resilient.relay_fallbacks");
    metric_relay_losses_ = reg->GetCounter("resilient.relay_losses");
    metric_sends_dropped_ = reg->GetCounter("resilient.sends_dropped");
    metric_downtime_ms_ =
        reg->GetHistogram("resilient.recovery_downtime_ms", obs::LatencyBucketsMs());
    session_pool_.AttachMetrics(
        reg, "resilient_sessions." + puncher_->rendezvous()->host()->name());
  }
}

ResilientSessionManager::~ResilientSessionManager() {
  sessions_.ForEach(
      [this](uint64_t /*peer*/, ResilientSession* rs) { session_pool_.Delete(rs); });
}

void ResilientSessionManager::CountDroppedSend(ResilientSession* rs) {
  ++rs->sends_dropped_;
  obs::Inc(metric_sends_dropped_);
}

ResilientSession* ResilientSessionManager::FindSession(uint64_t peer_id) {
  ResilientSession** found = sessions_.Find(peer_id);
  return found == nullptr ? nullptr : *found;
}

ResilientSession* ResilientSessionManager::FindOrCreate(uint64_t peer_id, bool initiator,
                                                        bool* created) {
  if (ResilientSession** found = sessions_.Find(peer_id)) {
    *created = false;
    return *found;
  }
  ResilientSession* raw = session_pool_.New(this, peer_id, initiator);
  raw->repunch_timer_.Bind<&ResilientSession::RepunchFire>(raw);
  raw->relay_keepalive_timer_.Bind<&ResilientSession::RelayKeepAliveFire>(raw);
  raw->relay_watchdog_timer_.Bind<&ResilientSession::RelayWatchdogFire>(raw);
  if (config_.relay_keepalive_jitter.micros() > 0) {
    const int64_t jitter = config_.relay_keepalive_jitter.micros();
    raw->relay_keepalive_offset_ = Micros(
        static_cast<int64_t>(HashMix64(peer_id) % static_cast<uint64_t>(2 * jitter + 1)) -
        jitter);
  }
  sessions_.InsertOrAssign(peer_id, raw);
  *created = true;
  return raw;
}

void ResilientSessionManager::ConnectToPeer(uint64_t peer_id, SessionCallback cb) {
  bool created = false;
  ResilientSession* rs = FindOrCreate(peer_id, /*initiator=*/true, &created);
  rs->connect_cb_ = std::move(cb);
  puncher_->ConnectToPeer(peer_id, [this, rs](Result<UdpP2pSession*> result) {
    if (result.ok()) {
      AdoptInner(rs, *result);
      if (rs->connect_cb_) {
        auto callback = std::move(rs->connect_cb_);
        rs->connect_cb_ = nullptr;
        callback(rs);
      }
      return;
    }
    if (relay_available()) {
      NP_LOG(Info) << "punch to peer " << rs->peer_id_
                   << " failed; falling back to relay: " << result.status().ToString();
      EnterRelay(rs);
      return;
    }
    FailSession(rs, result.status());
  });
}

void ResilientSessionManager::AdoptInner(ResilientSession* rs, UdpP2pSession* inner) {
  if (rs->inner_ != nullptr && rs->inner_ != inner && rs->inner_->alive()) {
    rs->inner_->Close();  // superseded by the fresher punch
  }
  rs->inner_ = inner;
  inner->SetReceiveCallback([rs](const Bytes& payload) {
    if (rs->receive_cb_) {
      rs->receive_cb_(payload);
    }
  });
  inner->SetDeadCallback([this, rs](Status status) { OnInnerDead(rs, status); });
  // A direct path supersedes any relay state from a previous recovery.
  rs->relay_keepalive_timer_.Cancel();
  rs->relay_watchdog_timer_.Cancel();
  rs->turn_.reset();
  rs->relay_confirmed_ = false;
  rs->relay_nonce_ = 0;
  rs->path_ = ResilientSession::Path::kDirect;
  FlushPending(rs);
}

void ResilientSessionManager::OnIncomingSession(UdpP2pSession* inner) {
  bool created = false;
  ResilientSession* rs = FindOrCreate(inner->peer_id(), /*initiator=*/false, &created);
  const bool was_recovering = rs->recovering_;
  AdoptInner(rs, inner);
  if (was_recovering) {
    FinishRecovery(rs, /*via_relay=*/false);
  }
  if (created && incoming_cb_) {
    incoming_cb_(rs);
  }
}

void ResilientSessionManager::OnInnerDead(ResilientSession* rs, Status status) {
  if (rs->path_ != ResilientSession::Path::kDirect || rs->recovering_) {
    return;  // stale watchdog for a path we already left
  }
  NP_LOG(Info) << puncher_->rendezvous()->host()->name() << " session to peer "
               << rs->peer_id_ << " died (" << status.ToString() << "); "
               << (rs->initiator_ ? "re-punching" : "awaiting initiator recovery");
  rs->recovering_ = true;
  rs->died_at_ = loop_.now();
  rs->repunch_attempts_ = 0;
  rs->path_ = ResilientSession::Path::kConnecting;
  if (rs->initiator_) {
    ScheduleRepunch(rs);
  }
  // The passive side cannot usefully re-punch (both sides doing so would
  // race introductions); it waits for the initiator's recovery to arrive as
  // an incoming punch or a relay signal.
}

SimDuration ResilientSessionManager::NextBackoff(const ResilientSession* rs) {
  const double factor = std::pow(kBackoffFactor, rs->repunch_attempts_);
  double micros = static_cast<double>(kBackoffInitial.micros()) * factor;
  micros = std::min(micros, static_cast<double>(kBackoffMax.micros()));
  Rng& rng = puncher_->rendezvous()->host()->rng();
  micros *= 1.0 + kBackoffJitter * (2.0 * rng.NextDouble() - 1.0);
  return SimDuration(std::max<int64_t>(1, static_cast<int64_t>(micros)));
}

void ResilientSessionManager::ScheduleRepunch(ResilientSession* rs) {
  loop_.ScheduleTimerAfter(NextBackoff(rs), &rs->repunch_timer_);
}

void ResilientSessionManager::AttemptRepunch(ResilientSession* rs) {
  if (!rs->recovering_) {
    return;
  }
  ++rs->repunch_attempts_;
  puncher_->ConnectToPeer(rs->peer_id_, [this, rs](Result<UdpP2pSession*> result) {
    if (!rs->recovering_) {
      if (result.ok()) {
        (*result)->Close();  // recovered some other way while this punched
      }
      return;
    }
    if (result.ok()) {
      AdoptInner(rs, *result);
      FinishRecovery(rs, /*via_relay=*/false);
      return;
    }
    if (result.status().code() == ErrorCode::kNotConnected &&
        puncher_->rendezvous()->rehoming()) {
      // The rendezvous client is mid-failover to a replica shard, so the
      // connect request failed on the host without ever reaching the tier.
      // That is not a punch failure: refund the attempt and retry after the
      // backoff, which outlives the bounded re-homing window.
      --rs->repunch_attempts_;
      ScheduleRepunch(rs);
      return;
    }
    if (rs->repunch_attempts_ >= config_.max_repunch_attempts) {
      if (relay_available()) {
        NP_LOG(Info) << "re-punch to peer " << rs->peer_id_ << " abandoned after "
                     << rs->repunch_attempts_ << " attempts; falling back to relay";
        EnterRelay(rs);
      } else {
        FailSession(rs, result.status());
      }
      return;
    }
    ScheduleRepunch(rs);
  });
}

void ResilientSessionManager::FinishRecovery(ResilientSession* rs, bool via_relay) {
  if (!rs->recovering_) {
    return;
  }
  rs->recovering_ = false;
  rs->repunch_timer_.Cancel();
  ResilientSession::RecoveryRecord rec;
  rec.died_at = rs->died_at_;
  rec.downtime = loop_.now() - rs->died_at_;
  rec.repunch_attempts = rs->repunch_attempts_;
  rec.via_relay = via_relay;
  rs->recoveries_.push_back(rec);
  obs::Inc(metric_recoveries_);
  obs::Observe(metric_downtime_ms_, rec.downtime.millis());
  NP_LOG(Info) << puncher_->rendezvous()->host()->name() << " recovered session to peer "
               << rs->peer_id_ << " via " << (via_relay ? "relay" : "re-punch") << " after "
               << rec.downtime.ToString() << " (" << rec.repunch_attempts << " re-punches)";
}

void ResilientSessionManager::FailSession(ResilientSession* rs, const Status& status) {
  rs->recovering_ = false;
  rs->repunch_timer_.Cancel();
  rs->relay_keepalive_timer_.Cancel();
  rs->relay_watchdog_timer_.Cancel();
  rs->pending_sends_ = {};  // drop the buffer AND its capacity: dead sessions hold no bytes
  rs->path_ = ResilientSession::Path::kFailed;
  if (rs->connect_cb_) {
    auto callback = std::move(rs->connect_cb_);
    rs->connect_cb_ = nullptr;
    callback(status);
  }
  if (rs->dead_cb_) {
    rs->dead_cb_(status);
  }
}

void ResilientSessionManager::FlushPending(ResilientSession* rs) {
  std::vector<Bytes> pending = std::move(rs->pending_sends_);
  rs->pending_sends_.clear();
  for (Bytes& payload : pending) {
    rs->Send(std::move(payload));
  }
}

// --------------------------------------------------------------------------
// Relay fallback
// --------------------------------------------------------------------------

void ResilientSessionManager::EnterRelay(ResilientSession* rs) {
  obs::Inc(metric_relay_fallbacks_);
  Host* host = puncher_->rendezvous()->host();
  rs->relay_nonce_ = host->rng().NextU64();
  rs->relay_confirmed_ = false;
  rs->turn_ = std::make_unique<TurnClient>(host, config_.turn_server);
  const uint64_t peer_id = rs->peer_id_;
  rs->turn_->SetReceiveCallback([this, peer_id](const Endpoint& from, const Bytes& payload) {
    OnTurnData(peer_id, from, payload);
  });
  rs->turn_->Allocate(0, [this, rs](Result<Endpoint> relayed) {
    if (!relayed.ok()) {
      FailSession(rs, relayed.status());
      return;
    }
    // Tell the peer where to find us, through S. The ack doubles as the
    // source of the peer's current public address for the TURN permission.
    puncher_->rendezvous()->RequestConnect(
        rs->peer_id_, ConnectStrategy::kRelayOnly, rs->relay_nonce_,
        [this, rs](Result<RendezvousMessage> ack) {
          if (!ack.ok()) {
            FailSession(rs, ack.status());
            return;
          }
          rs->turn_->Permit(ack->public_ep.ip);
          RelayEstablished(rs);
        },
        EncodeRelayEndpoint(*relayed));
  });
}

void ResilientSessionManager::RelayEstablished(ResilientSession* rs) {
  rs->path_ = ResilientSession::Path::kRelay;
  // Arm the watchdog immediately: it also covers a responder that never
  // knocks (a relay that silently ate the introduction looks identical to
  // one that died after it).
  ArmRelayWatchdog(rs);
  if (rs->recovering_) {
    FinishRecovery(rs, /*via_relay=*/true);
  }
  if (rs->connect_cb_) {
    auto callback = std::move(rs->connect_cb_);
    rs->connect_cb_ = nullptr;
    callback(rs);
  }
}

void ResilientSessionManager::OnRelayForward(const RendezvousMessage& msg) {
  auto relayed = DecodeRelayEndpoint(msg.payload);
  if (!relayed) {
    return;
  }
  bool created = false;
  ResilientSession* rs = FindOrCreate(msg.client_id, /*initiator=*/false, &created);
  if (!created && rs->relay_nonce_ == msg.nonce && rs->relay_target_ == *relayed) {
    return;  // duplicate forward (S re-sent the introduction)
  }
  if (rs->inner_ != nullptr && rs->inner_->alive()) {
    rs->inner_->Close();  // initiator gave up on the direct path; follow it
  }
  rs->relay_nonce_ = msg.nonce;
  rs->relay_target_ = *relayed;
  rs->relay_confirmed_ = false;
  rs->path_ = ResilientSession::Path::kRelay;
  ArmRelayWatchdog(rs);
  if (rs->recovering_) {
    FinishRecovery(rs, /*via_relay=*/true);
  }
  // Knock until the initiator answers: the first exchange may race the
  // initiator's kPermit to the relay, so repeat at probe cadence until an
  // inbound datagram from the relayed endpoint confirms the path.
  ResponderRelayKeepAlive(rs);
  if (created && incoming_cb_) {
    incoming_cb_(rs);
  }
}

void ResilientSessionManager::ResponderRelayKeepAlive(ResilientSession* rs) {
  if (rs->path_ != ResilientSession::Path::kRelay || rs->turn_ != nullptr) {
    return;
  }
  MarkKeepAliveProbe(rs);
  puncher_->SendPeerMessage(rs->relay_target_, PeerMsgType::kKeepAlive, rs->relay_nonce_,
                            Bytes{});
  const SimDuration interval =
      rs->relay_confirmed_
          ? Micros(std::max<int64_t>(1, puncher_->config().keepalive_interval.micros() +
                                            rs->relay_keepalive_offset_.micros()))
          : UdpHolePuncher::kProbeInterval;
  loop_.ScheduleTimerAfter(interval, &rs->relay_keepalive_timer_);
}

void ResilientSessionManager::InitiatorRelayKeepAlive(ResilientSession* rs) {
  if (rs->path_ != ResilientSession::Path::kRelay || rs->turn_ == nullptr ||
      !rs->relay_confirmed_) {
    return;
  }
  PeerMessage msg;
  msg.type = PeerMsgType::kKeepAlive;
  msg.nonce = rs->relay_nonce_;
  msg.sender_id = puncher_->rendezvous()->client_id();
  MarkKeepAliveProbe(rs);
  rs->turn_->SendTo(rs->relay_target_, EncodePeerMessage(msg));
  loop_.ScheduleTimerAfter(
      Micros(std::max<int64_t>(1, config_.relay_keepalive_interval.micros() +
                                      rs->relay_keepalive_offset_.micros())),
      &rs->relay_keepalive_timer_);
}

void ResilientSessionManager::ArmRelayWatchdog(ResilientSession* rs) {
  rs->last_relay_rx_ = loop_.now();
  ScheduleRelayWatchdog(rs, EffectiveRelayTimeout(rs));
}

void ResilientSessionManager::ScheduleRelayWatchdog(ResilientSession* rs, SimDuration delay) {
  // Re-arming an already-pending handle implicitly cancels the old deadline.
  loop_.ScheduleTimerAfter(delay, &rs->relay_watchdog_timer_);
}

void ResilientSessionManager::RelayWatchdogTick(ResilientSession* rs) {
  if (rs->path_ != ResilientSession::Path::kRelay) {
    return;  // stale timer for a path we already left
  }
  // Recompute per wakeup: fresh RTT samples may have tightened the window
  // while the timer slept.
  const SimDuration window = EffectiveRelayTimeout(rs);
  const SimDuration silence = loop_.now() - rs->last_relay_rx_;
  if (silence.micros() >= window.micros()) {
    OnRelayDead(rs);
    return;
  }
  // Traffic arrived since the timer was armed; sleep out the remainder of
  // the current silence window instead of polling.
  ScheduleRelayWatchdog(rs, window - silence);
}

SimDuration ResilientSessionManager::EffectiveRelayTimeout(const ResilientSession* rs) const {
  if (rs->relay_srtt_.micros() == 0) {
    return config_.relay_timeout;
  }
  // Two whole keepalive rounds (tolerates one lost round outright) plus a
  // generous multiple of the observed leg RTT for queueing excursions.
  const int64_t adaptive_us =
      2 * config_.relay_keepalive_interval.micros() +
      static_cast<int64_t>(kRelayRttMargin * rs->relay_srtt_.micros());
  // The static relay_timeout stays the hard ceiling even when it sits below
  // the floor (tests dial it down); the floor only guards against a tiny
  // srtt collapsing the window.
  const int64_t floor_us =
      std::min(kRelayTimeoutFloor.micros(), config_.relay_timeout.micros());
  return Micros(std::clamp(adaptive_us, floor_us, config_.relay_timeout.micros()));
}

void ResilientSessionManager::NoteRelayInbound(ResilientSession* rs) {
  rs->last_relay_rx_ = loop_.now();
  if (!rs->rtt_pending_) {
    return;
  }
  // Any inbound relay traffic answers the open probe: the peer echoes
  // keepalives immediately, so probe->first-inbound bounds the leg RTT.
  const SimDuration sample = loop_.now() - rs->last_keepalive_tx_;
  rs->relay_srtt_ = rs->relay_srtt_.micros() == 0
                        ? sample
                        : Micros((7 * rs->relay_srtt_.micros() + sample.micros()) / 8);
  rs->rtt_pending_ = false;
}

void ResilientSessionManager::MarkKeepAliveProbe(ResilientSession* rs) {
  if (rs->rtt_pending_) {
    // An unanswered probe stays open: the eventual sample then spans the
    // lost round, inflating srtt — loosening the timeout under loss, which
    // is the conservative direction.
    return;
  }
  rs->rtt_pending_ = true;
  rs->last_keepalive_tx_ = loop_.now();
}

void ResilientSessionManager::OnRelayDead(ResilientSession* rs) {
  ++rs->relay_losses_;
  obs::Inc(metric_relay_losses_);
  NP_LOG(Info) << puncher_->rendezvous()->host()->name() << " relay leg to peer "
               << rs->peer_id_ << " silent for " << EffectiveRelayTimeout(rs).ToString()
               << "; declaring it dead and "
               << (rs->initiator_ ? "re-entering recovery" : "awaiting initiator recovery");
  rs->relay_keepalive_timer_.Cancel();
  rs->turn_.reset();
  rs->relay_confirmed_ = false;
  rs->relay_nonce_ = 0;
  rs->rtt_pending_ = false;  // the open probe died with the leg
  rs->recovering_ = true;
  rs->died_at_ = loop_.now();
  rs->repunch_attempts_ = 0;
  rs->path_ = ResilientSession::Path::kConnecting;
  // Same division of labor as OnInnerDead: the initiator climbs the
  // recovery ladder (re-punch with backoff, then a fresh relay allocation —
  // which finds a rebooted relay server); the responder waits for the
  // recovery to arrive as a punch or a new kRelayOnly introduction.
  if (rs->initiator_) {
    ScheduleRepunch(rs);
  }
}

void ResilientSessionManager::OnTurnData(uint64_t peer_id, const Endpoint& from,
                                         const Bytes& payload) {
  ResilientSession* rs = FindSession(peer_id);
  if (rs == nullptr || rs->turn_ == nullptr) {
    return;
  }
  auto msg = DecodePeerMessage(payload);
  if (!msg) {
    puncher_->rendezvous()->host()->CountMalformedDrop();
    return;
  }
  if (msg->nonce != rs->relay_nonce_) {
    return;  // §3.4 again: unauthenticated traffic at the relayed endpoint
  }
  NoteRelayInbound(rs);
  rs->relay_target_ = from;  // the peer's live public endpoint, as observed
  if (!rs->relay_confirmed_) {
    rs->relay_confirmed_ = true;
    // Start answering on a fixed cadence so the responder's watchdog sees a
    // live leg even when the application goes quiet. (The probe echo below
    // answers this first knock immediately, stopping the fast-knocking.)
    loop_.ScheduleTimerAfter(
        Micros(std::max<int64_t>(1, config_.relay_keepalive_interval.micros() +
                                        rs->relay_keepalive_offset_.micros())),
        &rs->relay_keepalive_timer_);
    FlushPending(rs);
  }
  if (msg->type == PeerMsgType::kKeepAlive && msg->payload.empty()) {
    // Echo the probe so the responder can sample the leg RTT; the marker
    // keeps the echo from being echoed back.
    PeerMessage reply;
    reply.type = PeerMsgType::kKeepAlive;
    reply.nonce = rs->relay_nonce_;
    reply.sender_id = puncher_->rendezvous()->client_id();
    reply.payload = Bytes{kKeepAliveReplyMarker};
    rs->turn_->SendTo(from, EncodePeerMessage(reply));
  }
  if (msg->type == PeerMsgType::kData) {
    ++rs->relayed_received_;
    if (rs->receive_cb_) {
      rs->receive_cb_(msg->payload);
    }
  }
}

void ResilientSessionManager::OnUnclaimed(const Endpoint& from, const PeerMessage& msg) {
  // Relay traffic reaching the responder's punch socket: match by nonce.
  // Nonces are unique across sessions, so the scan order cannot matter; the
  // pure scan completes before any handling mutates the table.
  ResilientSession* match = nullptr;
  sessions_.ForEach([&](uint64_t /*peer*/, ResilientSession* rs) {
    if (rs->turn_ == nullptr && rs->relay_nonce_ != 0 && rs->relay_nonce_ == msg.nonce) {
      match = rs;
    }
  });
  if (match == nullptr || match->path_ != ResilientSession::Path::kRelay) {
    return;
  }
  NoteRelayInbound(match);
  if (!match->relay_confirmed_) {
    match->relay_confirmed_ = true;
    FlushPending(match);
  }
  if (msg.type == PeerMsgType::kKeepAlive && msg.payload.empty()) {
    // Echo the initiator's probe (marker payload: see OnTurnData).
    puncher_->SendPeerMessage(match->relay_target_, PeerMsgType::kKeepAlive, match->relay_nonce_,
                              Bytes{kKeepAliveReplyMarker});
  }
  if (msg.type == PeerMsgType::kData) {
    ++match->relayed_received_;
    if (match->receive_cb_) {
      match->receive_cb_(msg.payload);
    }
  }
  (void)from;
}

Status ResilientSessionManager::RelaySend(ResilientSession* rs, Bytes payload) {
  if (rs->turn_ != nullptr) {
    PeerMessage msg;
    msg.type = PeerMsgType::kData;
    msg.nonce = rs->relay_nonce_;
    msg.sender_id = puncher_->rendezvous()->client_id();
    msg.payload = std::move(payload);
    const Status status = rs->turn_->SendTo(rs->relay_target_, EncodePeerMessage(msg));
    if (status.ok()) {
      ++rs->relayed_sent_;
    }
    return status;
  }
  puncher_->SendPeerMessage(rs->relay_target_, PeerMsgType::kData, rs->relay_nonce_,
                            std::move(payload));
  ++rs->relayed_sent_;
  return Status::Ok();
}

}  // namespace natpunch
