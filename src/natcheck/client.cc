#include "src/natcheck/client.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// Each UDP ping is sent up to kUdpPingAttempts times, kUdpReplyTimeout
// apart, before the server counts as unreachable over UDP.
constexpr SimDuration kUdpReplyTimeout = Millis(800);
constexpr int kUdpPingAttempts = 4;
// After the pongs, how long to keep listening for server 3's unsolicited
// probe before declaring the NAT "filters unsolicited traffic".
constexpr SimDuration kUnsolicitedWait = Seconds(2);
constexpr SimDuration kHairpinWait = Seconds(2);
constexpr SimDuration kTcpConnectTimeout = Seconds(15);
// The whole run reports whatever it has learned by this deadline.
constexpr SimDuration kOverallTimeout = Seconds(60);

}  // namespace

std::string NatCheckReport::ToString() const {
  std::string out = "NatCheckReport{udp:";
  if (!udp_reachable) {
    out += " unreachable";
  } else {
    out += udp_consistent ? " consistent" : " inconsistent";
    out += udp_filters_unsolicited ? " filters" : " open";
    if (udp_hairpin_tested) {
      out += udp_hairpin ? " hairpin" : " no-hairpin";
    }
  }
  out += "; tcp:";
  if (!tcp_tested) {
    out += " untested";
  } else if (!tcp_reachable) {
    out += " unreachable";
  } else {
    out += tcp_consistent ? " consistent" : " inconsistent";
    if (tcp_rejects_unsolicited) {
      out += " rejects";
    } else if (tcp_unsolicited_passed) {
      out += " open";
    } else {
      out += " drops";
    }
    if (tcp_hairpin_tested) {
      out += tcp_hairpin ? " hairpin" : " no-hairpin";
    }
  }
  if (nat_reboots > 0 || nat_expired_mappings > 0) {
    out += "; dev: reboots=";
    out += std::to_string(nat_reboots);
    out += " expired=";
    out += std::to_string(nat_expired_mappings);
  }
  out += "} => UDP punch ";
  out += UdpHolePunchCompatible() ? "YES" : "NO";
  out += ", TCP punch ";
  out += tcp_tested ? (TcpHolePunchCompatible() ? "YES" : "NO") : "n/a";
  return out;
}

NatCheckClient::NatCheckClient(Host* host, NatCheckServerAddrs servers,
                               NatCheckClientConfig config)
    : host_(host), servers_(servers), config_(config) {}

void NatCheckClient::Fail(const Status& status) {
  if (done_) {
    return;
  }
  done_ = true;
  cb_(status);
}

void NatCheckClient::Finish() {
  if (done_) {
    return;
  }
  done_ = true;
  if (deadline_timer_ != EventLoop::kInvalidEventId) {
    host_->loop().Cancel(deadline_timer_);
  }
  cb_(report_);
}

void NatCheckClient::Run(uint16_t local_port, std::function<void(Result<NatCheckReport>)> cb) {
  cb_ = std::move(cb);
  local_port_ = local_port;
  session_ = host_->rng().NextU64();
  auto bound = host_->udp().Bind(local_port);
  if (!bound.ok()) {
    Fail(bound.status());
    return;
  }
  udp_socket_ = *bound;
  local_port_ = udp_socket_->local_port();
  udp_socket_->SetReceiveCallback(
      [this](const Endpoint& from, const Payload& payload) { OnUdpReceive(from, payload); });
  deadline_timer_ = host_->loop().ScheduleAfter(kOverallTimeout, [this] {
    // Report whatever has been learned so far rather than failing: a wedged
    // TCP phase on a weird NAT is itself a result.
    Finish();
  });
  udp_phase_ = 1;
  udp_attempts_ = 0;
  SendUdpPing(1);
}

void NatCheckClient::SendUdpPing(int server_index) {
  NcMessage ping;
  ping.type = NcMsgType::kUdpPing;
  ping.session = session_;
  udp_socket_->SendTo(server_index == 1 ? servers_.udp1 : servers_.udp2,
                      EncodeNcMessage(ping));
  ++udp_attempts_;
  udp_timer_ = host_->loop().ScheduleAfter(kUdpReplyTimeout, [this, server_index] {
    udp_timer_ = EventLoop::kInvalidEventId;
    if (udp_phase_ != server_index) {
      return;  // already advanced
    }
    if (udp_attempts_ < kUdpPingAttempts) {
      SendUdpPing(server_index);
      return;
    }
    // Server unreachable over UDP: record and move on to TCP.
    report_.udp_reachable = false;
    if (config_.test_tcp) {
      StartTcpPhase();
    } else {
      Finish();
    }
  });
}

void NatCheckClient::OnUdpReceive(const Endpoint& from, const Payload& payload) {
  (void)from;
  auto msg = DecodeNcMessage(payload);
  if (!msg) {
    host_->CountMalformedDrop();
    return;
  }
  if (msg->session != session_) {
    return;
  }
  switch (msg->type) {
    case NcMsgType::kUdpPong: {
      if (msg->server_index == 1 && udp_phase_ == 1) {
        report_.udp_public_1 = msg->observed;
        if (udp_timer_ != EventLoop::kInvalidEventId) {
          host_->loop().Cancel(udp_timer_);
        }
        udp_phase_ = 2;
        udp_attempts_ = 0;
        SendUdpPing(2);
      } else if (msg->server_index == 2 && udp_phase_ == 2) {
        report_.udp_public_2 = msg->observed;
        report_.udp_reachable = true;
        report_.udp_consistent = report_.udp_public_1 == report_.udp_public_2;
        if (udp_timer_ != EventLoop::kInvalidEventId) {
          host_->loop().Cancel(udp_timer_);
        }
        udp_phase_ = 3;
        // Give server 3's unsolicited probe a window, then hairpin.
        host_->loop().ScheduleAfter(kUnsolicitedWait, [this] {
          if (config_.test_udp_hairpin) {
            StartUdpHairpin();
          } else if (config_.test_tcp) {
            StartTcpPhase();
          } else {
            Finish();
          }
        });
      }
      return;
    }
    case NcMsgType::kUdpProbe:
      // Server 3's unsolicited datagram made it through.
      report_.udp_filters_unsolicited = false;
      return;
    case NcMsgType::kUdpHairpin:
      // Our own hairpin probe arrived back at the primary socket.
      report_.udp_hairpin = true;
      return;
    default:
      return;
  }
}

void NatCheckClient::StartUdpHairpin() {
  report_.udp_hairpin_tested = true;
  auto bound = host_->udp().Bind(0);
  if (!bound.ok()) {
    if (config_.test_tcp) {
      StartTcpPhase();
    } else {
      Finish();
    }
    return;
  }
  udp_hairpin_socket_ = *bound;
  NcMessage probe;
  probe.type = NcMsgType::kUdpHairpin;
  probe.session = session_;
  // §6.1.1: aim at the public endpoint of the primary socket as reported by
  // server 2. Note the deliberately one-way test — §6.3 discusses why this
  // can be pessimistic on hairpin-filtering NATs.
  udp_hairpin_socket_->SendTo(report_.udp_public_2, EncodeNcMessage(probe));
  host_->loop().ScheduleAfter(kHairpinWait, [this] {
    udp_hairpin_socket_->Close();
    if (config_.test_tcp) {
      StartTcpPhase();
    } else {
      Finish();
    }
  });
}

void NatCheckClient::StartTcpPhase() {
  report_.tcp_tested = true;
  tcp_listener_ = host_->tcp().CreateSocket();
  tcp_listener_->SetReuseAddr(true);
  Status status = tcp_listener_->Bind(local_port_);
  if (status.ok()) {
    status = tcp_listener_->Listen([this](TcpSocket* socket) {
      accepted_.push_back(std::make_unique<AcceptedConn>());
      AcceptedConn* conn = accepted_.back().get();
      conn->socket = socket;
      if (socket->remote_endpoint().ip == servers_.tcp3.ip) {
        // Unsolicited connection from server 3 arrived on our listener.
        report_.tcp_unsolicited_passed = true;
      }
      socket->SetDataCallback([this, conn](const Bytes& data) {
        for (const Bytes& body : conn->framer.Append(data)) {
          auto msg = DecodeNcMessage(body);
          if (!msg) {
            host_->CountMalformedDrop();
            continue;
          }
          if (msg->type == NcMsgType::kTcpHairpinHello) {
            NcMessage reply;
            reply.type = NcMsgType::kTcpHairpinReply;
            reply.session = msg->session;
            conn->socket->Send(MessageFramer::Frame(EncodeNcMessage(reply)));
          }
        }
      });
    });
  }
  if (!status.ok()) {
    Finish();
    return;
  }
  TcpHelloTo(1);
}

void NatCheckClient::TcpHelloTo(int server_index) {
  const int slot = server_index - 1;
  tcp_conn_[slot] = host_->tcp().CreateSocket();
  TcpSocket* socket = tcp_conn_[slot];
  socket->SetReuseAddr(true);
  Status status = socket->Bind(local_port_);
  if (status.ok()) {
    socket->SetDataCallback([this, socket, slot](const Bytes& data) {
      for (const Bytes& body : tcp_framer_[slot].Append(data)) {
        auto msg = DecodeNcMessage(body);
        if (!msg) {
          host_->CountMalformedDrop();
          continue;
        }
        if (msg->type == NcMsgType::kTcpReply) {
          OnTcpReply(*msg);
        }
      }
      (void)socket;
    });
    const Endpoint target = server_index == 1 ? servers_.tcp1 : servers_.tcp2;
    status = socket->Connect(target, [this, socket](Status result) {
      if (!result.ok()) {
        // TCP to the servers is broken entirely; stop here.
        report_.tcp_reachable = false;
        Finish();
        return;
      }
      NcMessage hello;
      hello.type = NcMsgType::kTcpHello;
      hello.session = session_;
      socket->Send(MessageFramer::Frame(EncodeNcMessage(hello)));
    });
  }
  if (!status.ok()) {
    Finish();
  }
}

void NatCheckClient::OnTcpReply(const NcMessage& msg) {
  if (msg.server_index == 1) {
    report_.tcp_public_1 = msg.observed;
    tcp_conn_[0]->Close();
    TcpHelloTo(2);
    return;
  }
  // Server 2's (delayed) reply: record, digest server 3's verdict, then run
  // our side of the simultaneous open.
  report_.tcp_public_2 = msg.observed;
  report_.tcp_reachable = true;
  report_.tcp_consistent = report_.tcp_public_1 == report_.tcp_public_2;
  if (msg.verdict == NcProbeVerdict::kRefused) {
    report_.tcp_rejects_unsolicited = true;
  }
  StartServer3Connect();
}

void NatCheckClient::StartServer3Connect() {
  if (report_.tcp_unsolicited_passed) {
    // Server 3 already reached us; connecting out would collide with that
    // very connection's 4-tuple. Nothing more to learn.
    StartTcpHairpin();
    return;
  }
  TcpSocket* socket = host_->tcp().CreateSocket();
  socket->SetReuseAddr(true);
  Status status = socket->Bind(local_port_);
  if (!status.ok()) {
    StartTcpHairpin();
    return;
  }
  auto decided = std::make_shared<bool>(false);
  status = socket->Connect(servers_.tcp3, [this, decided](Status result) {
    if (*decided) {
      return;
    }
    *decided = true;
    if (result.ok()) {
      report_.tcp_punch_connect_ok = true;  // hole punched; SYNs crossed
    } else if (result.code() == ErrorCode::kConnectionRefused) {
      report_.tcp_rejects_unsolicited = true;  // server 3 had given up
    }
    StartTcpHairpin();
  });
  if (!status.ok()) {
    StartTcpHairpin();
    return;
  }
  host_->loop().ScheduleAfter(kTcpConnectTimeout, [this, socket, decided] {
    if (*decided) {
      return;
    }
    *decided = true;
    socket->Abort();
    StartTcpHairpin();
  });
}

void NatCheckClient::StartTcpHairpin() {
  if (!config_.test_tcp_hairpin) {
    Finish();
    return;
  }
  report_.tcp_hairpin_tested = true;
  tcp_hairpin_socket_ = host_->tcp().CreateSocket();
  TcpSocket* socket = tcp_hairpin_socket_;
  socket->SetDataCallback([this, socket](const Bytes& data) {
    for (const Bytes& body : tcp_hairpin_framer_.Append(data)) {
      auto msg = DecodeNcMessage(body);
      if (!msg) {
        host_->CountMalformedDrop();
        continue;
      }
      if (msg->type == NcMsgType::kTcpHairpinReply) {
        report_.tcp_hairpin = true;
        socket->Close();
        Finish();
      }
    }
  });
  Status status = socket->Connect(report_.tcp_public_2, [this, socket](Status result) {
    if (!result.ok()) {
      Finish();
      return;
    }
    NcMessage hello;
    hello.type = NcMsgType::kTcpHairpinHello;
    hello.session = session_;
    socket->Send(MessageFramer::Frame(EncodeNcMessage(hello)));
  });
  if (!status.ok()) {
    Finish();
    return;
  }
  host_->loop().ScheduleAfter(kHairpinWait * 3, [this] {
    if (!done_ && report_.tcp_hairpin_tested && !report_.tcp_hairpin) {
      Finish();
    }
  });
}

}  // namespace natpunch
