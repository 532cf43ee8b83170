#include "src/core/nat_prober.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// Each probe step is sent up to kAttemptsPerStep times, kReplyTimeout
// apart, before the step is declared unanswered.
constexpr SimDuration kReplyTimeout = Millis(800);
constexpr int kAttemptsPerStep = 3;

}  // namespace

std::string NatProbeReport::ToString() const {
  std::string out = "NatProbeReport{";
  out += behind_nat ? "NATed" : "public";
  out += ", mapping=" + std::string(NatMappingName(mapping));
  out += ", filtering=" + std::string(NatFilteringName(filtering));
  out += ", public=" + public_endpoint.ToString();
  out += ", delta=" + std::to_string(port_delta) + "}";
  return out;
}

// One probe sequence in flight.
struct NatProber::Run {
  UdpSocket* socket = nullptr;
  std::function<void(Result<NatProbeReport>)> cb;
  int step = 0;
  int attempts = 0;
  uint64_t txn = 0;
  EventLoop::EventId timer = EventLoop::kInvalidEventId;

  // Collected results.
  Endpoint e11;  // server1 main view
  Endpoint e12;  // server1 alt view
  Endpoint e2;   // server2 view
  bool alt_received = false;
  bool partner_received = false;
  bool done = false;
};

NatProber::NatProber(Host* host, Endpoint server1, Endpoint server2)
    : host_(host), server1_(server1), server2_(server2) {}

void NatProber::Probe(uint16_t local_port, std::function<void(Result<NatProbeReport>)> cb) {
  auto bound = host_->udp().Bind(local_port);
  if (!bound.ok()) {
    cb(bound.status());
    return;
  }
  auto run = std::make_shared<Run>();
  run->socket = *bound;
  run->cb = std::move(cb);

  run->socket->SetReceiveCallback([this, run](const Endpoint& from, const Payload& payload) {
    (void)from;
    if (run->done) {
      return;
    }
    auto msg = DecodeProbeMessage(payload);
    if (!msg) {
      host_->CountMalformedDrop();
      return;
    }
    if (msg->type != ProbeMsgType::kEchoReply || msg->txn != run->txn) {
      return;  // stale or foreign
    }
    // Record per step and advance.
    switch (run->step) {
      case 0:
        run->e11 = msg->observed;
        break;
      case 1:
        run->alt_received = true;
        break;
      case 2:
        run->partner_received = true;
        break;
      case 3:
        run->e12 = msg->observed;
        break;
      case 4:
        run->e2 = msg->observed;
        break;
      default:
        return;
    }
    if (run->timer != EventLoop::kInvalidEventId) {
      host_->loop().Cancel(run->timer);
      run->timer = EventLoop::kInvalidEventId;
    }
    ++run->step;
    run->attempts = 0;
    if (run->step > 4) {
      FinishRun(run);
    } else {
      StepEcho(run, run->step);
    }
  });
  StepEcho(run, 0);
}

void NatProber::StepEcho(std::shared_ptr<Run> run, int step) {
  if (run->done) {
    return;
  }
  run->txn = host_->rng().NextU64();
  ProbeMessage request;
  request.txn = run->txn;
  Endpoint target = server1_;
  switch (step) {
    case 0:  // mapping sample 1 (opens flow to server1 main)
      request.type = ProbeMsgType::kEchoRequest;
      break;
    case 1:  // filtering: same address, never-contacted port
      request.type = ProbeMsgType::kAltReplyRequest;
      break;
    case 2:  // filtering: never-contacted address (server2, via partner)
      request.type = ProbeMsgType::kPartnerReplyRequest;
      break;
    case 3:  // mapping sample 2 (new flow: server1 alternate port)
      request.type = ProbeMsgType::kEchoRequest;
      target = Endpoint(server1_.ip, static_cast<uint16_t>(server1_.port + 1));
      break;
    case 4:  // mapping sample 3 (new flow: server2)
      request.type = ProbeMsgType::kEchoRequest;
      target = server2_;
      break;
    default:
      return;
  }
  run->socket->SendTo(target, EncodeProbeMessage(request));
  ++run->attempts;

  run->timer = host_->loop().ScheduleAfter(kReplyTimeout, [this, run, step] {
    run->timer = EventLoop::kInvalidEventId;
    if (run->done || run->step != step) {
      return;
    }
    if (run->attempts < kAttemptsPerStep) {
      StepEcho(run, step);
      return;
    }
    const bool optional_step = step == 1 || step == 2;
    if (!optional_step) {
      run->done = true;
      run->socket->Close();
      run->cb(Status(ErrorCode::kTimedOut, "probe server unreachable at step " +
                                               std::to_string(step)));
      return;
    }
    // Optional filtering probes simply record "nothing arrived".
    ++run->step;
    run->attempts = 0;
    StepEcho(run, run->step);
  });
}

void NatProber::FinishRun(std::shared_ptr<Run> run) {
  run->done = true;
  NatProbeReport report;
  report.public_endpoint = run->e11;
  const Endpoint local(host_->primary_address(), run->socket->local_port());
  report.behind_nat = run->e11 != local;

  if (run->e11 == run->e12 && run->e11 == run->e2) {
    report.mapping = NatMapping::kEndpointIndependent;
  } else if (run->e11 == run->e12) {
    report.mapping = NatMapping::kAddressDependent;
  } else {
    report.mapping = NatMapping::kAddressAndPortDependent;
  }
  if (report.mapping != NatMapping::kEndpointIndependent) {
    report.port_delta = static_cast<int>(run->e2.port) - static_cast<int>(run->e12.port);
  }

  if (run->partner_received) {
    report.filtering = NatFiltering::kEndpointIndependent;
  } else if (run->alt_received) {
    report.filtering = NatFiltering::kAddressDependent;
  } else {
    report.filtering = NatFiltering::kAddressAndPortDependent;
  }

  run->socket->Close();
  run->cb(report);
}

}  // namespace natpunch
