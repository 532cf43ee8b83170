#include "src/natcheck/multi_client.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// Each consistency ping is sent up to kPingAttempts times, kReplyTimeout
// apart, before the probe times out.
constexpr SimDuration kReplyTimeout = Millis(800);
constexpr int kPingAttempts = 4;

// The private port both clients bind, so the NAT sees them contend for it.
constexpr uint16_t kSharedPrivatePort = 4321;

}  // namespace

std::string MultiClientReport::ToString() const {
  std::string out = "MultiClientReport{solo=";
  out += solo_consistent ? "consistent" : "inconsistent";
  out += ", client2=";
  out += client2_consistent ? "consistent" : "inconsistent";
  out += ", contended=";
  out += contended_consistent ? "consistent" : "inconsistent";
  out += SwitchesUnderContention() ? " => SWITCHES UNDER CONTENTION}" : "}";
  return out;
}

// One two-server consistency probe in flight.
struct MultiClientNatCheck::Probe {
  UdpSocket* socket = nullptr;
  uint64_t txn = 0;
  int stage = 0;  // 0: waiting on server1, 1: waiting on server2
  int attempts = 0;
  Endpoint e1;
  EventLoop::EventId timer = EventLoop::kInvalidEventId;
  std::function<void(Result<std::pair<Endpoint, Endpoint>>)> cb;
  bool done = false;
};

MultiClientNatCheck::MultiClientNatCheck(Host* client1, Host* client2, Endpoint udp1,
                                         Endpoint udp2)
    : client1_(client1), client2_(client2), udp1_(udp1), udp2_(udp2) {}

void MultiClientNatCheck::ConsistencyProbe(
    UdpSocket* socket, std::function<void(Result<std::pair<Endpoint, Endpoint>>)> cb) {
  auto probe = std::make_shared<Probe>();
  probe->socket = socket;
  probe->cb = std::move(cb);
  active_probe_ = probe;
  Host* host = socket->host();

  // The receive path: pongs matching the current transaction advance us.
  socket->SetReceiveCallback([this, probe, host](const Endpoint&, const Payload& payload) {
    if (probe->done) {
      return;
    }
    auto msg = DecodeNcMessage(payload);
    if (!msg) {
      host->CountMalformedDrop();
      return;
    }
    if (msg->type != NcMsgType::kUdpPong || msg->session != probe->txn) {
      return;
    }
    if (probe->timer != EventLoop::kInvalidEventId) {
      host->loop().Cancel(probe->timer);
      probe->timer = EventLoop::kInvalidEventId;
    }
    if (probe->stage == 0) {
      probe->e1 = msg->observed;
      probe->stage = 1;
      probe->attempts = 0;
    } else {
      probe->done = true;
      probe->cb(std::make_pair(probe->e1, msg->observed));
      return;
    }
    // Fall through to send the next stage's ping.
    SendStage(probe);
  });
  SendStage(probe);
}

void MultiClientNatCheck::SendStage(const std::shared_ptr<Probe>& probe) {
  if (probe->done) {
    return;
  }
  Host* host = probe->socket->host();
  probe->txn = host->rng().NextU64();
  NcMessage ping;
  ping.type = NcMsgType::kUdpPing;
  ping.session = probe->txn;
  probe->socket->SendTo(probe->stage == 0 ? udp1_ : udp2_, EncodeNcMessage(ping));
  ++probe->attempts;
  probe->timer = host->loop().ScheduleAfter(kReplyTimeout, [this, probe, host] {
    probe->timer = EventLoop::kInvalidEventId;
    if (probe->done) {
      return;
    }
    if (probe->attempts < kPingAttempts) {
      SendStage(probe);
      return;
    }
    probe->done = true;
    probe->cb(Status(ErrorCode::kTimedOut, "consistency probe timed out"));
    (void)host;
  });
}

void MultiClientNatCheck::Run(std::function<void(Result<MultiClientReport>)> cb) {
  cb_ = std::move(cb);
  auto bound1 = client1_->udp().Bind(kSharedPrivatePort);
  if (!bound1.ok()) {
    cb_(bound1.status());
    return;
  }
  socket1_ = *bound1;
  phase_ = 1;
  Advance();
}

void MultiClientNatCheck::Advance() {
  switch (phase_) {
    case 1:
      // Phase 1: client 1 alone.
      ConsistencyProbe(socket1_, [this](Result<std::pair<Endpoint, Endpoint>> r) {
        if (!r.ok()) {
          cb_(r.status());
          return;
        }
        report_.solo_consistent = r->first == r->second;
        report_.solo_public = r->first;
        phase_ = 2;
        Advance();
      });
      return;
    case 2: {
      // Phase 2: client 2 joins from the same private port.
      auto bound2 = client2_->udp().Bind(kSharedPrivatePort);
      if (!bound2.ok()) {
        cb_(bound2.status());
        return;
      }
      socket2_ = *bound2;
      ConsistencyProbe(socket2_, [this](Result<std::pair<Endpoint, Endpoint>> r) {
        if (!r.ok()) {
          cb_(r.status());
          return;
        }
        report_.client2_consistent = r->first == r->second;
        phase_ = 3;
        Advance();
      });
      return;
    }
    case 3:
      // Phase 3: client 1 re-tests under contention, same socket.
      ConsistencyProbe(socket1_, [this](Result<std::pair<Endpoint, Endpoint>> r) {
        if (!r.ok()) {
          cb_(r.status());
          return;
        }
        report_.contended_public_1 = r->first;
        report_.contended_public_2 = r->second;
        report_.contended_consistent = r->first == r->second;
        cb_(report_);
      });
      return;
    default:
      return;
  }
}

}  // namespace natpunch
