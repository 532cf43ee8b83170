#include "src/core/tcp_puncher.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// §4.2 step 4: re-try a failed connection attempt "after a short delay
// (e.g., one second)".
constexpr SimDuration kRetryDelay = Seconds(1);

}  // namespace

TcpHolePuncher::TcpHolePuncher(TcpRendezvousClient* rendezvous, TcpPunchConfig config)
    : rendezvous_(rendezvous), config_(config), loop_(rendezvous->host()->loop()) {
  // Passive side of §4.2: listen and connect, symmetrically. For reversal
  // (§2.3) the requester is waiting for us to connect back — same flow.
  auto passive = [this](const RendezvousMessage& fwd) {
    StartAttempt(fwd.client_id, fwd.nonce, fwd.public_ep, fwd.private_ep,
                 /*incoming=*/true, /*connect_side=*/true, nullptr);
  };
  rendezvous_->SetConnectForwardHandler(ConnectStrategy::kHolePunch, passive);
  rendezvous_->SetConnectForwardHandler(ConnectStrategy::kReversal, passive);
}

Status TcpHolePuncher::EnsureListener() {
  if (listener_ != nullptr) {
    return Status::Ok();
  }
  listener_ = rendezvous_->host()->tcp().CreateSocket();
  listener_->SetReuseAddr(true);
  Status status = listener_->Bind(rendezvous_->local_port());
  if (!status.ok()) {
    listener_ = nullptr;
    return status;
  }
  status = listener_->Listen([this](TcpSocket* socket) { OnAccepted(socket); });
  if (!status.ok()) {
    listener_ = nullptr;
  }
  return status;
}

void TcpHolePuncher::ConnectToPeer(uint64_t peer_id, ConnectStrategy strategy,
                                   StreamCallback cb) {
  const uint64_t nonce = rendezvous_->host()->rng().NextU64();
  rendezvous_->RequestConnect(
      peer_id, strategy, nonce,
      [this, peer_id, nonce, strategy, cb = std::move(cb)](Result<RendezvousMessage> ack) mutable {
        if (!ack.ok()) {
          cb(ack.status());
          return;
        }
        // For reversal the requester only listens; the peer connects in.
        const bool connect_side = strategy != ConnectStrategy::kReversal;
        StartAttempt(peer_id, nonce, ack->public_ep, ack->private_ep, /*incoming=*/false,
                     connect_side, std::move(cb));
      });
}

void TcpHolePuncher::StartAttempt(uint64_t peer_id, uint64_t nonce, const Endpoint& peer_public,
                                  const Endpoint& peer_private, bool incoming, bool connect_side,
                                  StreamCallback cb) {
  if (attempts_.count(nonce) != 0) {
    return;
  }
  Status listen_status = EnsureListener();
  if (!listen_status.ok()) {
    if (cb) {
      cb(listen_status);
    }
    return;
  }
  Attempt& attempt = attempts_[nonce];
  attempt.peer_id = peer_id;
  attempt.nonce = nonce;
  attempt.incoming = incoming;
  attempt.peer_public = peer_public;
  attempt.peer_private = peer_private;
  attempt.started = loop_.now();
  attempt.cb = std::move(cb);
  if (connect_side) {
    if (!peer_public.IsUnspecified()) {
      attempt.candidates.push_back(Candidate{peer_public, false, nullptr,
                                             EventLoop::kInvalidEventId, false});
    }
    if (config_.try_private_endpoint && !peer_private.IsUnspecified() &&
        peer_private != peer_public) {
      attempt.candidates.push_back(Candidate{peer_private, true, nullptr,
                                             EventLoop::kInvalidEventId, false});
    }
  }
  attempt.deadline_event = loop_.ScheduleAfter(config_.punch_timeout, [this, nonce] {
    FailAttempt(nonce, Status(ErrorCode::kTimedOut, "TCP hole punch timed out"));
  });
  for (size_t i = 0; i < attempt.candidates.size(); ++i) {
    LaunchCandidate(nonce, i);
  }
}

void TcpHolePuncher::LaunchCandidate(uint64_t nonce, size_t index) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    return;
  }
  Attempt& attempt = it->second;
  Candidate& candidate = attempt.candidates[index];
  if (candidate.gave_up) {
    return;
  }
  candidate.retry_event = EventLoop::kInvalidEventId;
  candidate.socket = rendezvous_->host()->tcp().CreateSocket();
  candidate.socket->SetReuseAddr(true);
  Status status = candidate.socket->Bind(rendezvous_->local_port());
  if (status.ok()) {
    ++attempt.stats.connect_attempts;
    const bool is_private = candidate.is_private;
    TcpSocket* socket = candidate.socket;
    status = socket->Connect(candidate.endpoint, [this, nonce, index, socket,
                                                  is_private](Status result) {
      if (result.ok()) {
        OnEstablished(nonce, socket, is_private);
      } else {
        HandleConnectFailure(nonce, index, result);
      }
    });
  }
  if (!status.ok()) {
    HandleConnectFailure(nonce, index, status);
  }
}

void TcpHolePuncher::HandleConnectFailure(uint64_t nonce, size_t index, const Status& status) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    return;
  }
  Attempt& attempt = it->second;
  Candidate& candidate = attempt.candidates[index];
  switch (status.code()) {
    case ErrorCode::kConnectionRefused:
    case ErrorCode::kConnectionReset:
      ++attempt.stats.refused;
      break;
    case ErrorCode::kHostUnreachable:
      ++attempt.stats.unreachable;
      break;
    case ErrorCode::kTimedOut:
      ++attempt.stats.timed_out;
      break;
    case ErrorCode::kAddressInUse:
      // §4.3 behavior 2: the listener hijacked this connection (or an
      // accepted socket owns the tuple). The working stream arrives via
      // accept(); stop re-dialing this candidate.
      ++attempt.stats.address_in_use;
      candidate.gave_up = true;
      return;
    default:
      break;
  }
  // §4.2 step 4: retry after a short delay, until the attempt deadline.
  candidate.retry_event =
      loop_.ScheduleAfter(kRetryDelay, [this, nonce, index] { LaunchCandidate(nonce, index); });
}

void TcpHolePuncher::SendAuth(PendingStream* pending, PeerMsgType type, uint64_t nonce) {
  PeerMessage msg;
  msg.type = type;
  msg.nonce = nonce;
  msg.sender_id = rendezvous_->client_id();
  pending->socket->Send(MessageFramer::Frame(EncodePeerMessage(msg)));
}

void TcpHolePuncher::OnEstablished(uint64_t nonce, TcpSocket* socket, bool is_private) {
  pending_.push_back(std::make_unique<PendingStream>());
  PendingStream* pending = pending_.back().get();
  pending->socket = socket;
  pending->attempt_nonce = nonce;
  pending->is_private = is_private;
  socket->SetDataCallback([this, pending](const Bytes& data) { OnPendingData(pending, data); });
  socket->SetClosedCallback([pending](Status) { pending->dead = true; });
  SendAuth(pending, PeerMsgType::kAuth, nonce);
}

void TcpHolePuncher::OnAccepted(TcpSocket* socket) {
  pending_.push_back(std::make_unique<PendingStream>());
  PendingStream* pending = pending_.back().get();
  pending->socket = socket;
  socket->SetDataCallback([this, pending](const Bytes& data) { OnPendingData(pending, data); });
  socket->SetClosedCallback([pending](Status) { pending->dead = true; });
  // If the remote endpoint matches an in-flight attempt, we can start the
  // authentication ourselves. (Essential when *both* sides end up on
  // accepted sockets — §4.4 with two kLinuxWindows stacks — since neither
  // side's connect() survived to send the first kAuth.)
  for (auto& [nonce, attempt] : attempts_) {
    const Endpoint remote = socket->remote_endpoint();
    const bool match = remote == attempt.peer_public || remote == attempt.peer_private;
    if (match) {
      pending->attempt_nonce = nonce;
      pending->is_private = (remote == attempt.peer_private);
      SendAuth(pending, PeerMsgType::kAuth, nonce);
      break;
    }
  }
}

void TcpHolePuncher::OnPendingData(PendingStream* pending, const Bytes& data) {
  if (pending->dead) {
    return;
  }
  const std::vector<Bytes> frames = pending->framer.Append(data);
  for (size_t i = 0; i < frames.size(); ++i) {
    auto msg = DecodePeerMessage(frames[i]);
    if (!msg) {
      pending->socket->host()->CountMalformedDrop();
      continue;
    }
    const bool nonce_known =
        attempts_.count(msg->nonce) != 0 ||
        (pending->attempt_nonce != 0 && pending->attempt_nonce == msg->nonce);
    switch (msg->type) {
      case PeerMsgType::kAuth: {
        if (!nonce_known) {
          // §4.2 step 5: authentication failed — close and keep waiting on
          // other sockets.
          DropPending(pending);
          return;
        }
        SendAuth(pending, PeerMsgType::kAuthOk, msg->nonce);
        // Stash any frames that followed the auth in this same batch so the
        // winning stream sees them.
        for (size_t j = i + 1; j < frames.size(); ++j) {
          const Bytes reframed = MessageFramer::Frame(frames[j]);
          pending->framer.Append(reframed);
        }
        Win(pending, msg->nonce);
        return;
      }
      case PeerMsgType::kAuthOk: {
        if (!nonce_known) {
          DropPending(pending);
          return;
        }
        for (size_t j = i + 1; j < frames.size(); ++j) {
          const Bytes reframed = MessageFramer::Frame(frames[j]);
          pending->framer.Append(reframed);
        }
        Win(pending, msg->nonce);
        return;
      }
      default:
        // Data before authentication completes: requeue everything left and
        // wait for the auth exchange.
        for (size_t j = i; j < frames.size(); ++j) {
          pending->framer.Append(MessageFramer::Frame(frames[j]));
        }
        return;
    }
  }
}

void TcpHolePuncher::DropPending(PendingStream* pending) {
  pending->dead = true;
  pending->socket->Abort();
}

void TcpHolePuncher::AbandonAttemptResources(Attempt* attempt, TcpSocket* keep) {
  if (attempt->deadline_event != EventLoop::kInvalidEventId) {
    loop_.Cancel(attempt->deadline_event);
  }
  for (Candidate& candidate : attempt->candidates) {
    if (candidate.retry_event != EventLoop::kInvalidEventId) {
      loop_.Cancel(candidate.retry_event);
    }
    if (candidate.socket != nullptr && candidate.socket != keep &&
        candidate.socket->state() != TcpState::kClosed) {
      candidate.socket->Abort();
    }
  }
  for (auto& pending : pending_) {
    if (!pending->dead && pending->socket != keep &&
        pending->attempt_nonce == attempt->nonce) {
      DropPending(pending.get());
    }
  }
}

void TcpHolePuncher::Win(PendingStream* pending, uint64_t nonce) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    // The attempt already produced a winner; this is a redundant stream.
    pending->dead = true;
    pending->socket->Close();
    return;
  }
  Attempt attempt = std::move(it->second);
  attempts_.erase(it);
  pending->dead = true;  // no longer routed through OnPendingData

  const bool used_private = pending->is_private ||
                            pending->socket->remote_endpoint() == attempt.peer_private;
  AbandonAttemptResources(&attempt, pending->socket);
  last_stats_ = attempt.stats;

  streams_.push_back(std::make_unique<TcpP2pStream>(
      pending->socket, attempt.peer_id, nonce, std::move(pending->framer), used_private,
      loop_.now() - attempt.started));
  TcpP2pStream* stream = streams_.back().get();

  NP_LOG(Info) << rendezvous_->host()->name() << " TCP stream to peer " << attempt.peer_id
               << " via " << (stream->via_accept() ? "accept()" : "connect()") << " at "
               << stream->remote_endpoint().ToString();

  if (attempt.cb) {
    attempt.cb(stream);
  } else if (incoming_cb_) {
    incoming_cb_(stream);
  }
}

void TcpHolePuncher::FailAttempt(uint64_t nonce, const Status& status) {
  auto it = attempts_.find(nonce);
  if (it == attempts_.end()) {
    return;
  }
  Attempt attempt = std::move(it->second);
  attempts_.erase(it);
  AbandonAttemptResources(&attempt, nullptr);
  last_stats_ = attempt.stats;
  if (attempt.cb) {
    attempt.cb(status);
  }
}

}  // namespace natpunch
