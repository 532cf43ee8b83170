#include "src/core/prediction.h"

#include "src/core/probe_server.h"
#include "src/util/logging.h"

namespace natpunch {
namespace {

// Each STUN-like echo is sent up to kSampleAttempts times, kSampleTimeout
// apart, before the sample fails.
constexpr SimDuration kSampleTimeout = Millis(800);
constexpr int kSampleAttempts = 3;

}  // namespace

PredictivePuncher::PredictivePuncher(UdpHolePuncher* puncher, Endpoint stun1, Endpoint stun2)
    : puncher_(puncher), rendezvous_(puncher->rendezvous()), stun1_(stun1), stun2_(stun2) {
  puncher_->SetRawTrafficHandler(
      [this](const Endpoint& from, const Payload& payload) { OnRaw(from, payload); });
  rendezvous_->SetConnectForwardHandler(
      ConnectStrategy::kPredicted, [this](const RendezvousMessage& fwd) { OnForward(fwd); });
}

Bytes PredictivePuncher::EncodePredicted(const Endpoint& predicted) {
  ByteWriter w;
  w.WriteU32(predicted.ip.Complement().bits());  // obfuscated (§3.1)
  w.WriteU16(predicted.port);
  return w.Take();
}

std::optional<Endpoint> PredictivePuncher::DecodePredicted(ConstByteSpan payload) {
  ByteReader r(payload);
  Endpoint ep;
  ep.ip = Ipv4Address(r.ReadU32()).Complement();
  ep.port = r.ReadU16();
  if (!r.ok()) {
    return std::nullopt;
  }
  return ep;
}

void PredictivePuncher::ConnectToPeer(uint64_t peer_id, UdpHolePuncher::SessionCallback cb) {
  const uint64_t nonce = rendezvous_->host()->rng().NextU64();
  SamplePrediction([this, peer_id, nonce, cb = std::move(cb)](Result<Endpoint> mine) mutable {
    if (!mine.ok()) {
      cb(mine.status());
      return;
    }
    pending_[nonce] = std::move(cb);
    rendezvous_->RequestConnect(
        peer_id, ConnectStrategy::kPredicted, nonce,
        [this, nonce](Result<RendezvousMessage> ack) {
          if (!ack.ok()) {
            auto it = pending_.find(nonce);
            if (it != pending_.end()) {
              auto callback = std::move(it->second);
              pending_.erase(it);
              callback(ack.status());
            }
          }
          // Success: wait for the peer's kPredicted forward carrying its
          // own prediction; the punch starts there.
        },
        EncodePredicted(*mine));
  });
}

void PredictivePuncher::OnForward(const RendezvousMessage& fwd) {
  auto predicted = DecodePredicted(fwd.payload);
  if (!predicted) {
    return;
  }
  auto it = pending_.find(fwd.nonce);
  if (it != pending_.end()) {
    // We initiated: this forward is the peer's answer. Punch.
    auto cb = std::move(it->second);
    pending_.erase(it);
    puncher_->PunchAtEndpoints(fwd.client_id, fwd.nonce, *predicted, fwd.private_ep,
                               std::move(cb));
    return;
  }
  // Responder role: sample our own prediction, answer, and punch.
  const uint64_t nonce = fwd.nonce;
  const uint64_t peer_id = fwd.client_id;
  const Endpoint peer_predicted = *predicted;
  const Endpoint peer_private = fwd.private_ep;
  SamplePrediction([this, nonce, peer_id, peer_predicted, peer_private](Result<Endpoint> mine) {
    if (!mine.ok()) {
      return;
    }
    rendezvous_->RequestConnect(
        peer_id, ConnectStrategy::kPredicted, nonce, [](Result<RendezvousMessage>) {},
        EncodePredicted(*mine));
    puncher_->PunchAtEndpoints(peer_id, nonce, peer_predicted, peer_private, nullptr);
  });
}

void PredictivePuncher::SamplePrediction(std::function<void(Result<Endpoint>)> cb) {
  if (active_sample_) {
    cb(Status(ErrorCode::kInProgress, "sample already running"));
    return;
  }
  active_sample_ = std::make_shared<Sample>();
  active_sample_->cb = std::move(cb);
  SendSample(active_sample_);
}

void PredictivePuncher::SendSample(std::shared_ptr<Sample> sample) {
  sample->txn = rendezvous_->host()->rng().NextU64();
  ProbeMessage request;
  request.type = ProbeMsgType::kEchoRequest;
  request.txn = sample->txn;
  const Endpoint target = sample->stage == 0 ? stun1_ : stun2_;
  rendezvous_->socket()->SendTo(target, EncodeProbeMessage(request));
  ++sample->attempts;
  sample->timer = rendezvous_->host()->loop().ScheduleAfter(kSampleTimeout, [this, sample] {
    sample->timer = EventLoop::kInvalidEventId;
    if (sample != active_sample_) {
      return;
    }
    if (sample->attempts < kSampleAttempts) {
      SendSample(sample);
      return;
    }
    active_sample_ = nullptr;
    sample->cb(Status(ErrorCode::kTimedOut, "prediction sampling failed"));
  });
}

void PredictivePuncher::OnRaw(const Endpoint& from, const Payload& payload) {
  (void)from;
  if (!active_sample_) {
    return;
  }
  auto msg = DecodeProbeMessage(payload);
  if (!msg) {
    rendezvous_->host()->CountMalformedDrop();
    return;
  }
  if (msg->type != ProbeMsgType::kEchoReply || msg->txn != active_sample_->txn) {
    return;
  }
  auto sample = active_sample_;
  if (sample->timer != EventLoop::kInvalidEventId) {
    rendezvous_->host()->loop().Cancel(sample->timer);
    sample->timer = EventLoop::kInvalidEventId;
  }
  if (sample->stage == 0) {
    sample->e1 = msg->observed;
    sample->stage = 1;
    sample->attempts = 0;
    SendSample(sample);
    return;
  }
  // Two samples in hand: extrapolate the next allocation.
  const Endpoint e2 = msg->observed;
  const int delta = static_cast<int>(e2.port) - static_cast<int>(sample->e1.port);
  Endpoint predicted(e2.ip, static_cast<uint16_t>(static_cast<int>(e2.port) + delta));
  active_sample_ = nullptr;
  NP_LOG(Info) << rendezvous_->host()->name() << " predicted next mapping "
               << predicted.ToString() << " (delta " << delta << ")";
  sample->cb(predicted);
}

}  // namespace natpunch
