#include "src/natcheck/servers.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// §6.1.2: server 3 gives server 2 the go-ahead after kGoAheadDelay, then
// keeps its unsolicited connect alive for kProbeLinger more.
constexpr SimDuration kGoAheadDelay = Seconds(5);
constexpr SimDuration kProbeLinger = Seconds(20);
// Server 2 never leaves the client hanging if server 3's verdict is lost.
constexpr SimDuration kVerdictTimeout = Seconds(8);

}  // namespace

NatCheckServers::NatCheckServers(Host* server1, Host* server2, Host* server3,
                                 NatCheckServerConfig config)
    : config_(config) {
  hosts_[0] = server1;
  hosts_[1] = server2;
  hosts_[2] = server3;
}

Endpoint NatCheckServers::udp_endpoint(int index) const {
  return Endpoint(hosts_[index - 1]->primary_address(), config_.port);
}

Endpoint NatCheckServers::tcp_endpoint(int index) const {
  return Endpoint(hosts_[index - 1]->primary_address(), config_.port);
}

Status NatCheckServers::Start() {
  for (int i = 0; i < 3; ++i) {
    auto sock = hosts_[i]->udp().Bind(config_.port);
    if (!sock.ok()) {
      return sock.status();
    }
    udp_[i] = *sock;
    const int index = i + 1;
    udp_[i]->SetReceiveCallback([this, index](const Endpoint& from, const Payload& payload) {
      OnUdp(index, from, payload);
    });
  }
  // TCP listeners on servers 1 and 2 (server 3 only dials out; the absence
  // of a listener is what makes the client's connect fail after a refused
  // probe, matching the paper's described outcome).
  for (int i = 0; i < 2; ++i) {
    TcpSocket* listener = hosts_[i]->tcp().CreateSocket();
    listener->SetReuseAddr(true);
    Status status = listener->Bind(config_.port);
    if (!status.ok()) {
      return status;
    }
    const int index = i + 1;
    status = listener->Listen([this, index](TcpSocket* accepted) {
      tcp_conns_.push_back(std::make_unique<TcpConn>());
      TcpConn* conn = tcp_conns_.back().get();
      conn->socket = accepted;
      conn->server_index = index;
      accepted->SetDataCallback([this, conn](const Bytes& data) {
        for (const Bytes& body : conn->framer.Append(data)) {
          auto msg = DecodeNcMessage(body);
          if (!msg) {
            hosts_[conn->server_index - 1]->CountMalformedDrop();
            continue;
          }
          OnTcpMessage(conn, *msg);
        }
      });
    });
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

void NatCheckServers::OnUdp(int index, const Endpoint& from, const Payload& payload) {
  auto msg = DecodeNcMessage(payload);
  if (!msg) {
    hosts_[index - 1]->CountMalformedDrop();
    return;
  }
  switch (msg->type) {
    case NcMsgType::kUdpPing: {
      ++stats_.udp_pings;
      NcMessage pong;
      pong.type = NcMsgType::kUdpPong;
      pong.session = msg->session;
      pong.server_index = static_cast<uint8_t>(index);
      pong.observed = from;
      udp_[index - 1]->SendTo(from, EncodeNcMessage(pong));
      if (index == 2) {
        // §6.1.1: server 2 forwards the request to server 3.
        NcMessage forward;
        forward.type = NcMsgType::kUdpForward;
        forward.session = msg->session;
        forward.observed = from;
        udp_[1]->SendTo(udp_endpoint(3), EncodeNcMessage(forward));
      }
      return;
    }
    case NcMsgType::kUdpForward:
    case NcMsgType::kTcpForward:
    case NcMsgType::kTcpGoAhead:
      if (index == 3 || msg->type == NcMsgType::kTcpGoAhead) {
        Server3UdpControl(*msg);
      }
      return;
    default:
      return;
  }
}

void NatCheckServers::Server3UdpControl(const NcMessage& msg) {
  switch (msg.type) {
    case NcMsgType::kUdpForward: {
      // Unsolicited reply from server 3's own address (filter test).
      ++stats_.udp_probes_sent;
      NcMessage probe;
      probe.type = NcMsgType::kUdpProbe;
      probe.session = msg.session;
      probe.server_index = 3;
      probe.observed = msg.observed;
      udp_[2]->SendTo(msg.observed, EncodeNcMessage(probe));
      return;
    }
    case NcMsgType::kTcpForward:
      Server3TcpProbe(msg.session, msg.observed);
      return;
    case NcMsgType::kTcpGoAhead: {
      // We are server 2 receiving server 3's verdict.
      auto it = waiting_go_ahead_.find(msg.session);
      if (it == waiting_go_ahead_.end()) {
        return;
      }
      TcpConn* conn = it->second;
      waiting_go_ahead_.erase(it);
      switch (msg.verdict) {
        case NcProbeVerdict::kConnected:
          ++stats_.tcp_probe_connected;
          break;
        case NcProbeVerdict::kRefused:
          ++stats_.tcp_probe_refused;
          break;
        case NcProbeVerdict::kInProgress:
          ++stats_.tcp_probe_in_progress;
          break;
      }
      ReplyTcp(conn, msg.verdict);
      return;
    }
    default:
      return;
  }
}

void NatCheckServers::Server3TcpProbe(uint64_t session, const Endpoint& client) {
  // Unsolicited inbound connection attempt from server 3's well-known port.
  Host* s3 = hosts_[2];
  TcpSocket* probe = s3->tcp().CreateSocket();
  probe->SetReuseAddr(true);
  if (!probe->Bind(config_.port).ok()) {
    SendVerdict(session, NcProbeVerdict::kRefused);
    return;
  }
  auto verdict_sent = std::make_shared<bool>(false);
  Status status = probe->Connect(client, [this, session, verdict_sent, probe](Status result) {
    if (result.ok()) {
      // The SYN went straight through: the NAT does not filter unsolicited
      // inbound TCP (or the client punched and we crossed — either way the
      // client sees a connection). Keep the socket open briefly; the
      // client closes it.
      if (!*verdict_sent) {
        *verdict_sent = true;
        SendVerdict(session, NcProbeVerdict::kConnected);
      }
      return;
    }
    if (result.code() == ErrorCode::kConnectionRefused ||
        result.code() == ErrorCode::kConnectionReset ||
        result.code() == ErrorCode::kHostUnreachable) {
      if (!*verdict_sent) {
        *verdict_sent = true;
        SendVerdict(session, NcProbeVerdict::kRefused);
      }
      probe->Abort();
    }
  });
  if (!status.ok()) {
    if (!*verdict_sent) {
      *verdict_sent = true;
      SendVerdict(session, NcProbeVerdict::kRefused);
    }
    return;
  }
  // §6.1.2: after five seconds still "in progress" -> go-ahead, keep trying
  // for up to 20 more seconds.
  s3->loop().ScheduleAfter(kGoAheadDelay, [this, session, probe, verdict_sent] {
    if (!*verdict_sent) {
      *verdict_sent = true;
      SendVerdict(session, NcProbeVerdict::kInProgress);
    }
    (void)probe;
  });
  s3->loop().ScheduleAfter(kGoAheadDelay + kProbeLinger, [probe] {
    if (probe->state() == TcpState::kSynSent) {
      probe->Abort();
    }
  });
}

void NatCheckServers::SendVerdict(uint64_t session, NcProbeVerdict verdict) {
  NcMessage go_ahead;
  go_ahead.type = NcMsgType::kTcpGoAhead;
  go_ahead.session = session;
  go_ahead.server_index = 3;
  go_ahead.verdict = verdict;
  udp_[2]->SendTo(udp_endpoint(2), EncodeNcMessage(go_ahead));
}

void NatCheckServers::ReplyTcp(TcpConn* conn, NcProbeVerdict verdict) {
  if (conn->replied) {
    return;
  }
  conn->replied = true;
  if (conn->verdict_timer != EventLoop::kInvalidEventId) {
    hosts_[1]->loop().Cancel(conn->verdict_timer);
    conn->verdict_timer = EventLoop::kInvalidEventId;
  }
  NcMessage reply;
  reply.type = NcMsgType::kTcpReply;
  reply.session = conn->session;
  reply.server_index = static_cast<uint8_t>(conn->server_index);
  reply.observed = conn->socket->remote_endpoint();
  reply.verdict = verdict;
  conn->socket->Send(MessageFramer::Frame(EncodeNcMessage(reply)));
}

void NatCheckServers::OnTcpMessage(TcpConn* conn, const NcMessage& msg) {
  switch (msg.type) {
    case NcMsgType::kTcpHello: {
      ++stats_.tcp_hellos;
      conn->session = msg.session;
      if (conn->server_index == 1) {
        ReplyTcp(conn, NcProbeVerdict::kInProgress);
        return;
      }
      // Server 2: kick server 3, reply only after its verdict (that delay
      // is load-bearing: it gives the unsolicited SYN time to arrive
      // before the client starts its own outbound connect).
      waiting_go_ahead_[msg.session] = conn;
      NcMessage forward;
      forward.type = NcMsgType::kTcpForward;
      forward.session = msg.session;
      forward.observed = conn->socket->remote_endpoint();
      udp_[1]->SendTo(udp_endpoint(3), EncodeNcMessage(forward));
      conn->verdict_timer =
          hosts_[1]->loop().ScheduleAfter(kVerdictTimeout, [this, conn] {
            conn->verdict_timer = EventLoop::kInvalidEventId;
            waiting_go_ahead_.erase(conn->session);
            ReplyTcp(conn, NcProbeVerdict::kInProgress);
          });
      return;
    }
    case NcMsgType::kTcpHairpinHello: {
      NcMessage reply;
      reply.type = NcMsgType::kTcpHairpinReply;
      reply.session = msg.session;
      reply.server_index = static_cast<uint8_t>(conn->server_index);
      conn->socket->Send(MessageFramer::Frame(EncodeNcMessage(reply)));
      return;
    }
    default:
      return;
  }
}

}  // namespace natpunch
