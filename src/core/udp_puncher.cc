#include "src/core/udp_puncher.h"

#include <algorithm>
#include <limits>

#include "src/obs/metrics.h"
#include "src/util/flat_hash.h"
#include "src/util/logging.h"

namespace natpunch {

// Footprint budget (see DESIGN.md "Memory footprint"): two of these exist
// per counted swarm session. 64 bytes of state + one 56-byte timer handle.
static_assert(sizeof(UdpP2pSession) <= 120,
              "UdpP2pSession grew past its footprint budget; move cold fields "
              "to the puncher side table instead");

UdpHolePuncher::UdpHolePuncher(UdpRendezvousClient* rendezvous, UdpPunchConfig config)
    : rendezvous_(rendezvous), config_(config), loop_(rendezvous->host()->loop()) {
  rendezvous_->SetPeerTrafficHandler(
      [this](const Endpoint& from, const Payload& payload) { OnPeerTraffic(from, payload); });
  rendezvous_->SetConnectForwardHandler(
      ConnectStrategy::kHolePunch, [this](const RendezvousMessage& fwd) {
        // Passive side of §3.2: S forwarded a connection request; punch back.
        StartAttempt(fwd.client_id, fwd.nonce, fwd.public_ep, fwd.private_ep,
                     /*incoming=*/true, nullptr);
      });
  if (rendezvous_->socket() != nullptr) {
    rendezvous_->socket()->SetErrorCallback(
        [this](const Endpoint& dst, ErrorCode code) { OnSocketError(dst, code); });
  }
  if (obs::MetricsRegistry* reg = rendezvous_->host()->network()->metrics()) {
    metric_attempts_ = reg->GetCounter("punch.attempts");
    metric_successes_ = reg->GetCounter("punch.successes");
    metric_failures_ = reg->GetCounter("punch.failures");
    metric_rtt_ms_ = reg->GetHistogram("punch.rtt_ms", obs::LatencyBucketsMs());
    session_pool_.AttachMetrics(reg,
                                "udp_sessions." + rendezvous_->host()->name());
  }
}

UdpHolePuncher::~UdpHolePuncher() {
  // Sessions live in the slab; run their destructors (which cancel the
  // embedded timers) before the pool drops the storage.
  sessions_.ForEach(
      [this](uint64_t /*nonce*/, UdpP2pSession* session) { session_pool_.Delete(session); });
}

size_t UdpHolePuncher::active_sessions() const {
  size_t n = 0;
  sessions_.ForEach(
      [&n](uint64_t /*nonce*/, UdpP2pSession* const& session) { n += session->alive() ? 1 : 0; });
  return n;
}

void UdpHolePuncher::ConnectToPeer(uint64_t peer_id, SessionCallback cb) {
  const uint64_t nonce = rendezvous_->host()->rng().NextU64();
  rendezvous_->RequestConnect(
      peer_id, ConnectStrategy::kHolePunch, nonce,
      [this, peer_id, nonce, cb = std::move(cb)](Result<RendezvousMessage> ack) mutable {
        if (!ack.ok()) {
          cb(ack.status());
          return;
        }
        Attempt* attempt = StartAttempt(peer_id, nonce, ack->public_ep, ack->private_ep,
                                        /*incoming=*/false, std::move(cb));
        if (attempt != nullptr) {
          attempt->renew_introduction = true;
        }
      });
}

UdpHolePuncher::Attempt* UdpHolePuncher::StartAttempt(uint64_t peer_id, uint64_t nonce,
                                                      const Endpoint& peer_public,
                                                      const Endpoint& peer_private, bool incoming,
                                                      SessionCallback cb) {
  if (attempts_.count(nonce) != 0 || sessions_.Contains(nonce)) {
    return nullptr;  // already punching or punched this session
  }
  obs::Inc(metric_attempts_);
  Attempt& attempt = attempts_[nonce];
  attempt.puncher = this;
  attempt.peer_id = peer_id;
  attempt.nonce = nonce;
  attempt.incoming = incoming;
  attempt.peer_public = peer_public;
  attempt.peer_private = peer_private;
  attempt.started = loop_.now();
  attempt.cb = std::move(cb);

  // Candidate endpoints, public first (§3.2 step 3 fires at both; dedupe
  // guards the no-NAT case where they coincide).
  if (!peer_public.IsUnspecified()) {
    attempt.candidates.push_back(peer_public);
  }
  if (config_.try_private_endpoint && !peer_private.IsUnspecified() &&
      peer_private != peer_public) {
    attempt.candidates.push_back(peer_private);
  }
  if (attempt.candidates.empty()) {
    FailAttempt(nonce, Status(ErrorCode::kInvalidArgument, "no candidate endpoints"));
    return nullptr;
  }

  attempt.deadline_timer.Bind<&Attempt::DeadlineTick>(&attempt);
  loop_.ScheduleTimerAfter(config_.punch_timeout, &attempt.deadline_timer);
  SendProbes(&attempt);
  return &attempt;
}

void UdpHolePuncher::SendProbes(Attempt* attempt) {
  for (const Endpoint& candidate : attempt->candidates) {
    SendPeerMessage(candidate, PeerMsgType::kProbe, attempt->nonce, Bytes{});
    ++attempt->probes_sent;
  }
  ++attempt->probe_rounds;
  if (attempt->renew_introduction && attempt->probe_rounds % 5 == 0) {
    // Still nothing back: the kConnectForward to the peer may have been
    // lost, leaving it unaware it should punch. Re-introduce (idempotent on
    // the peer: duplicate forwards for a known nonce are ignored).
    rendezvous_->SendConnectRequest(attempt->peer_id, ConnectStrategy::kHolePunch,
                                    attempt->nonce);
  }
  attempt->probe_timer.Bind<&Attempt::ProbeTick>(attempt);
  loop_.ScheduleTimerAfter(kProbeInterval, &attempt->probe_timer);
}

void UdpHolePuncher::SendPeerMessage(const Endpoint& to, PeerMsgType type, uint64_t nonce,
                                     Bytes payload) {
  PeerMessage msg;
  msg.type = type;
  msg.nonce = nonce;
  msg.sender_id = rendezvous_->client_id();
  msg.payload = std::move(payload);
  // Encode straight into an SBO Payload: keepalives and probes (empty
  // payload, 20-byte frame) never touch the heap on the send side.
  rendezvous_->socket()->SendTo(to, EncodePeerMessagePayload(msg));
}

void UdpHolePuncher::PunchAtEndpoints(uint64_t peer_id, uint64_t nonce,
                                      const Endpoint& peer_public, const Endpoint& peer_private,
                                      SessionCallback cb) {
  StartAttempt(peer_id, nonce, peer_public, peer_private, /*incoming=*/cb == nullptr,
               std::move(cb));
}

void UdpHolePuncher::OnPeerTraffic(const Endpoint& from, const Payload& payload) {
  auto msg = DecodePeerMessage(payload);
  if (!msg) {
    // Non-peer-wire bytes are legitimate here when a raw handler is
    // installed (STUN-like prediction probes ride the same socket);
    // without one they are garbage on the punch flow.
    if (raw_handler_) {
      raw_handler_(from, payload);
    } else {
      rendezvous_->host()->CountMalformedDrop();
    }
    return;
  }
  // Established session traffic first.
  if (UdpP2pSession** found = sessions_.Find(msg->nonce)) {
    UdpP2pSession* session = *found;
    if (!session->alive()) {
      return;
    }
    SessionInboundSeen(session);
    switch (msg->type) {
      case PeerMsgType::kProbe:
        // Late probe from a peer that has not locked in yet: keep answering
        // so it can (§3.2: order and timing are not critical).
        SendPeerMessage(from, PeerMsgType::kProbeReply, msg->nonce, Bytes{});
        return;
      case PeerMsgType::kData:
        ++session->datagrams_received_;
        DispatchReceive(session, msg->payload);
        return;
      case PeerMsgType::kKeepAlive:
      case PeerMsgType::kProbeReply:
      default:
        return;  // activity already pushed the expiry deadline back
    }
  }

  // Otherwise it may belong to an in-flight attempt.
  auto it = attempts_.find(msg->nonce);
  if (it == attempts_.end()) {
    // Unknown nonce: a stray host or an expired session. Authentications
    // fail silently (§3.4) — never answer, or the stray would lock onto us.
    // A registered unclaimed handler may still consume it (relay fallback).
    if (unclaimed_handler_) {
      unclaimed_handler_(from, *msg);
    }
    return;
  }
  Attempt& attempt = it->second;
  switch (msg->type) {
    case PeerMsgType::kProbe: {
      if (config_.adopt_observed_endpoints &&
          std::find(attempt.candidates.begin(), attempt.candidates.end(), from) ==
              attempt.candidates.end()) {
        // The peer reached us from an endpoint S didn't predict (symmetric
        // NAT on their side); answer where the packet actually came from.
        attempt.candidates.push_back(from);
      }
      SendPeerMessage(from, PeerMsgType::kProbeReply, msg->nonce, Bytes{});
      return;
    }
    case PeerMsgType::kProbeReply:
      // §3.2: lock in the first endpoint that elicits a valid response.
      FinishAttempt(msg->nonce, from);
      return;
    case PeerMsgType::kData:
    case PeerMsgType::kKeepAlive: {
      // The peer already locked in and is talking to us; that is as good as
      // a probe reply.
      FinishAttempt(msg->nonce, from);
      if (msg->type == PeerMsgType::kData) {
        if (UdpP2pSession** created = sessions_.Find(msg->nonce)) {
          ++(*created)->datagrams_received_;
          DispatchReceive(*created, msg->payload);
        }
      }
      return;
    }
    default:
      return;
  }
}

void UdpHolePuncher::OnSocketError(const Endpoint& dst, ErrorCode code) {
  (void)code;
  // An ICMP error for a candidate (e.g. the private endpoint hit a host with
  // no socket bound): stop probing it.
  for (auto& [nonce, attempt] : attempts_) {
    auto it = std::find(attempt.candidates.begin(), attempt.candidates.end(), dst);
    if (it != attempt.candidates.end()) {
      attempt.candidates.erase(it);
      if (attempt.candidates.empty()) {
        FailAttempt(nonce, Status(ErrorCode::kHostUnreachable, "all candidates unreachable"));
        return;  // FailAttempt invalidates iterators
      }
    }
  }
}

void UdpHolePuncher::FinishAttempt(uint64_t nonce, const Endpoint& winner) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    return;
  }
  // The intrusive timers make Attempt unmovable: disarm them and copy the
  // fields that outlive the map node, then erase before running callbacks.
  it->second.probe_timer.Cancel();
  it->second.deadline_timer.Cancel();
  const uint64_t peer_id = it->second.peer_id;
  const Endpoint peer_public = it->second.peer_public;
  const Endpoint peer_private = it->second.peer_private;
  const SimTime started = it->second.started;
  const int probes_sent = it->second.probes_sent;
  SessionCallback cb = std::move(it->second.cb);
  attempts_.erase(it);

  UdpP2pSession* raw = session_pool_.New(this);
  raw->peer_id_ = peer_id;
  raw->nonce_ = nonce;
  raw->peer_endpoint_ = winner;
  // A peer without a NAT has identical endpoints; report that as "public".
  if (winner == peer_private && peer_private != peer_public) {
    raw->flags_ |= UdpP2pSession::kUsedPrivate;
  }
  const SimDuration elapsed = loop_.now() - started;
  raw->punch_elapsed_us_ = static_cast<uint32_t>(std::min<int64_t>(
      std::max<int64_t>(elapsed.micros(), 0), std::numeric_limits<uint32_t>::max()));
  obs::Inc(metric_successes_);
  obs::Observe(metric_rtt_ms_, elapsed.millis());
  raw->probes_sent_ = static_cast<uint16_t>(
      std::min(probes_sent, static_cast<int>(std::numeric_limits<uint16_t>::max())));
  raw->last_inbound_ = loop_.now();
  // The cadence is a function of the nonce alone, so the jittered schedule
  // stays deterministic under a given seed.
  raw->next_keepalive_ = config_.keepalives_enabled
                             ? loop_.now() + KeepAliveInterval(nonce)
                             : SimTime(std::numeric_limits<int64_t>::max());
  sessions_.InsertOrAssign(nonce, raw);
  raw->timer_.Bind<&UdpP2pSession::TimerFire>(raw);
  ArmSessionTimer(raw);

  NP_LOG(Info) << rendezvous_->host()->name() << " punched UDP session to peer "
               << peer_id << " at " << winner.ToString()
               << (raw->used_private_endpoint() ? " (private endpoint)" : " (public endpoint)");

  if (cb) {
    cb(raw);
  } else if (incoming_cb_) {
    incoming_cb_(raw);
  }
}

void UdpHolePuncher::FailAttempt(uint64_t nonce, const Status& status) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    return;
  }
  it->second.probe_timer.Cancel();
  it->second.deadline_timer.Cancel();
  SessionCallback cb = std::move(it->second.cb);
  attempts_.erase(it);
  obs::Inc(metric_failures_);
  if (cb) {
    cb(status);
  }
}

SimDuration UdpHolePuncher::KeepAliveInterval(uint64_t nonce) const {
  const int64_t jitter = config_.keepalive_jitter.micros();
  if (jitter <= 0) {
    return config_.keepalive_interval;
  }
  const int64_t offset =
      static_cast<int64_t>(HashMix64(nonce) % static_cast<uint64_t>(2 * jitter + 1)) - jitter;
  return Micros(std::max<int64_t>(config_.keepalive_interval.micros() + offset, 1));
}

void UdpHolePuncher::ArmSessionTimer(UdpP2pSession* session) {
  // An intrusive handle embedded in the session: arming, firing and the
  // re-arm allocate nothing, and CloseSession/destruction cancels in O(1).
  loop_.ScheduleTimerAt(
      std::min(session->next_keepalive_, session->last_inbound_ + config_.session_expiry),
      &session->timer_);
}

void UdpHolePuncher::SessionTick(UdpP2pSession* session) {
  // Only an alive session can fire: CloseSession cancels the handle. Expiry
  // comes first, so a session whose deadline and keepalive share an instant
  // closes without sending.
  const SimTime now = loop_.now();
  if (now >= session->last_inbound_ + config_.session_expiry) {
    CloseSession(session, Status(ErrorCode::kTimedOut, "peer silent past expiry"),
                 /*notify=*/true);
    return;
  }
  if (now >= session->next_keepalive_) {
    SendPeerMessage(session->peer_endpoint_, PeerMsgType::kKeepAlive, session->nonce_, Bytes{});
    session->next_keepalive_ = now + KeepAliveInterval(session->nonce_);
  }
  ArmSessionTimer(session);
}

void UdpHolePuncher::SessionInboundSeen(UdpP2pSession* session) {
  session->last_inbound_ = loop_.now();
}

void UdpHolePuncher::CloseSession(UdpP2pSession* session, const Status& status, bool notify) {
  if (!session->alive()) {
    return;
  }
  session->flags_ &= static_cast<uint8_t>(~UdpP2pSession::kAlive);
  session->timer_.Cancel();
  if (notify && (session->flags_ & UdpP2pSession::kHasDeadCb) != 0) {
    SessionCallbacks* cbs = session_callbacks_.Find(session->nonce_);
    if (cbs != nullptr && cbs->dead) {
      cbs->dead(status);
    }
  }
}

void UdpHolePuncher::SetSessionReceiveCallback(UdpP2pSession* session,
                                               UdpP2pSession::ReceiveCallback cb) {
  if (cb) {
    session_callbacks_.FindOrInsert(session->nonce_)->receive = std::move(cb);
    session->flags_ |= UdpP2pSession::kHasReceiveCb;
    return;
  }
  session->flags_ &= static_cast<uint8_t>(~UdpP2pSession::kHasReceiveCb);
  if (SessionCallbacks* cbs = session_callbacks_.Find(session->nonce_)) {
    cbs->receive = nullptr;
    if (!cbs->dead) {
      session_callbacks_.Erase(session->nonce_);
    }
  }
}

void UdpHolePuncher::SetSessionDeadCallback(UdpP2pSession* session,
                                            UdpP2pSession::DeadCallback cb) {
  if (cb) {
    session_callbacks_.FindOrInsert(session->nonce_)->dead = std::move(cb);
    session->flags_ |= UdpP2pSession::kHasDeadCb;
    return;
  }
  session->flags_ &= static_cast<uint8_t>(~UdpP2pSession::kHasDeadCb);
  if (SessionCallbacks* cbs = session_callbacks_.Find(session->nonce_)) {
    cbs->dead = nullptr;
    if (!cbs->receive) {
      session_callbacks_.Erase(session->nonce_);
    }
  }
}

void UdpHolePuncher::DispatchReceive(UdpP2pSession* session, const Bytes& payload) {
  if ((session->flags_ & UdpP2pSession::kHasReceiveCb) == 0) {
    return;  // swarm fast path: no table probe for callback-less sessions
  }
  SessionCallbacks* cbs = session_callbacks_.Find(session->nonce_);
  if (cbs != nullptr && cbs->receive) {
    cbs->receive(payload);
  }
}

// ---------------------------------------------------------------------------
// UdpP2pSession
// ---------------------------------------------------------------------------

void UdpP2pSession::TimerFire() { puncher_->SessionTick(this); }

void UdpP2pSession::SetReceiveCallback(ReceiveCallback cb) {
  puncher_->SetSessionReceiveCallback(this, std::move(cb));
}

void UdpP2pSession::SetDeadCallback(DeadCallback cb) {
  puncher_->SetSessionDeadCallback(this, std::move(cb));
}

Status UdpP2pSession::Send(Bytes payload) {
  if (!alive()) {
    return Status(ErrorCode::kClosed, "session dead");
  }
  puncher_->SendPeerMessage(peer_endpoint_, PeerMsgType::kData, nonce_, std::move(payload));
  return Status::Ok();
}

void UdpP2pSession::Close() {
  puncher_->CloseSession(this, Status(ErrorCode::kClosed), /*notify=*/false);
}

}  // namespace natpunch
