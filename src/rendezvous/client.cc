#include "src/rendezvous/client.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

// UDP control messages are the client's own reliability layer. A
// registration, and each connect request, is sent up to 10 times, 500 ms
// apart: enough to survive heavy loss (30% loss -> ~0.4% give-up).
constexpr SimDuration kRegisterRetryInterval = Millis(500);
constexpr int kRegisterAttempts = 10;
constexpr SimDuration kRequestRetryInterval = Millis(500);
constexpr int kRequestAttempts = 10;

}  // namespace

// ---------------------------------------------------------------------------
// UdpRendezvousClient
// ---------------------------------------------------------------------------

UdpRendezvousClient::UdpRendezvousClient(Host* host, Endpoint server, uint64_t client_id,
                                         RendezvousClientOptions options)
    : host_(host), server_(server), client_id_(client_id), options_(options) {}

UdpRendezvousClient::UdpRendezvousClient(Host* host, ShardRing ring, uint64_t client_id,
                                         RendezvousClientOptions options)
    : host_(host), client_id_(client_id), options_(options), ring_(std::move(ring)) {
  // Home shard is a pure function of the shared ring and our own ID — no
  // assignment protocol, and every peer/shard computes the same answer.
  server_ = ring_.endpoint(ring_.HomeShard(client_id_));
}

void UdpRendezvousClient::SendToServer(const RendezvousMessage& msg) {
  socket_->SendTo(server_, EncodeRendezvousMessage(msg, options_.obfuscate_addresses));
}

void UdpRendezvousClient::Register(uint16_t local_port, EndpointCallback cb) {
  auto bound = host_->udp().Bind(local_port);
  if (!bound.ok()) {
    cb(bound.status());
    return;
  }
  socket_ = *bound;
  private_ep_ = Endpoint(host_->primary_address(), socket_->local_port());
  socket_->SetReceiveCallback(
      [this](const Endpoint& from, const Payload& payload) { OnReceive(from, payload); });
  register_cb_ = std::move(cb);
  register_attempts_ = 0;

  // UDP registration is fire-and-retry until kRegisterOk arrives.
  ReRegister();
  register_retry_event_ =
      host_->loop().ScheduleAfter(kRegisterRetryInterval, [this] { RegisterRetryTick(); });
}

void UdpRendezvousClient::RegisterRetryTick() {
  if (registered_ || !register_cb_) {
    return;
  }
  if (++register_attempts_ >= kRegisterAttempts) {
    auto callback = std::move(register_cb_);
    register_cb_ = nullptr;
    callback(Status(ErrorCode::kTimedOut, "registration timed out"));
    return;
  }
  ReRegister();
  register_retry_event_ =
      host_->loop().ScheduleAfter(kRegisterRetryInterval, [this] { RegisterRetryTick(); });
}

void UdpRendezvousClient::OnReceive(const Endpoint& from, const Payload& payload) {
  // In a sharded tier any ring member may speak for the server side: the
  // replica shard introduces peers to us directly when a lookup was answered
  // from its copy, and after a failover the old home can still have acks in
  // flight.
  if (from == server_ || (ring_.size() > 1 && ring_.IsShard(from))) {
    auto msg = DecodeRendezvousMessage(payload, options_.obfuscate_addresses);
    if (msg) {
      HandleServerMessage(*msg, from);
      return;
    }
    // Undecodable traffic from the server endpoint falls through as peer
    // traffic (it could be a punch probe from a peer behind the same
    // address in a hairpin scenario — unlikely but harmless). With no peer
    // handler to claim it, it is garbage on the rendezvous flow: count it.
    if (!peer_traffic_handler_) {
      host_->CountMalformedDrop();
      return;
    }
  }
  if (peer_traffic_handler_) {
    peer_traffic_handler_(from, payload);
  }
}

void UdpRendezvousClient::ReRegister() {
  RendezvousMessage msg;
  msg.type = RvMsgType::kRegister;
  msg.client_id = client_id_;
  msg.private_ep = private_ep_;
  SendToServer(msg);
}

void UdpRendezvousClient::HandleServerMessage(const RendezvousMessage& msg,
                                              const Endpoint& from) {
  // Epoch comparison is only meaningful against our current shard: each
  // shard numbers its own incarnations, so a forward arriving from another
  // ring member with a different epoch is not a restart signal.
  if (from == server_ && msg.type != RvMsgType::kRegisterOk && server_epoch_ != 0 &&
      msg.epoch != 0 && msg.epoch != server_epoch_) {
    // The server restarted and lost its registration table. Re-register from
    // the same socket; nothing about the peer-facing state changes. The
    // stored epoch only advances on kRegisterOk, so if the re-registration
    // is lost the next keepalive ack retriggers it.
    if (registered_) {
      ++restarts_detected_;
      registered_ = false;
      NP_LOG(Info) << "client " << client_id_ << " detected rendezvous restart (epoch "
                   << server_epoch_ << " -> " << msg.epoch << "), re-registering";
    }
    ReRegister();
  }
  switch (msg.type) {
    case RvMsgType::kRegisterOk: {
      if (from != server_) {
        return;  // stale ack from a shard we already failed away from
      }
      public_ep_ = msg.public_ep;
      registered_ = true;
      keepalive_misses_ = 0;
      server_epoch_ = msg.epoch;
      if (register_retry_event_ != EventLoop::kInvalidEventId) {
        host_->loop().Cancel(register_retry_event_);
        register_retry_event_ = EventLoop::kInvalidEventId;
      }
      if (register_cb_) {
        auto cb = std::move(register_cb_);
        register_cb_ = nullptr;
        cb(public_ep_);
      }
      return;
    }
    case RvMsgType::kConnectAck: {
      auto it = pending_requests_.find(msg.client_id);
      if (it == pending_requests_.end()) {
        return;
      }
      if (it->second.retry_event != EventLoop::kInvalidEventId) {
        host_->loop().Cancel(it->second.retry_event);
      }
      auto cb = std::move(it->second.cb);
      pending_requests_.erase(it);
      cb(msg);
      return;
    }
    case RvMsgType::kConnectError: {
      auto it = pending_requests_.find(msg.target_id);
      if (it == pending_requests_.end()) {
        return;
      }
      if (it->second.retry_event != EventLoop::kInvalidEventId) {
        host_->loop().Cancel(it->second.retry_event);
      }
      auto cb = std::move(it->second.cb);
      pending_requests_.erase(it);
      cb(Status(ErrorCode::kHostUnreachable, "peer not registered"));
      return;
    }
    case RvMsgType::kConnectForward: {
      auto handler = connect_forward_handlers_.find(msg.strategy);
      if (handler != connect_forward_handlers_.end() && handler->second) {
        handler->second(msg);
      }
      return;
    }
    case RvMsgType::kKeepAliveAck:
      // Matching-epoch ack; the observed endpoint rides along for free.
      if (from != server_) {
        return;  // a dead shard's last ack must not mask the failover signal
      }
      keepalive_misses_ = 0;
      if (registered_) {
        public_ep_ = msg.public_ep;
      }
      return;
    case RvMsgType::kRelayForward:
      if (relay_handler_) {
        relay_handler_(msg.client_id, msg.payload);
      }
      return;
    default:
      return;
  }
}

void UdpRendezvousClient::RequestConnect(uint64_t peer_id, ConnectStrategy strategy,
                                         uint64_t nonce,
                                         std::function<void(Result<RendezvousMessage>)> cb,
                                         Bytes payload) {
  if (!registered_) {
    cb(Status(ErrorCode::kNotConnected, "not registered"));
    return;
  }
  PendingRequest& pending = pending_requests_[peer_id];
  pending.cb = std::move(cb);
  pending.attempts = 0;
  pending.strategy = strategy;
  pending.nonce = nonce;

  pending.resend = [this, peer_id, strategy, nonce, payload = std::move(payload)]() {
    RendezvousMessage msg;
    msg.type = RvMsgType::kConnectRequest;
    msg.client_id = client_id_;
    msg.target_id = peer_id;
    msg.strategy = strategy;
    msg.nonce = nonce;
    msg.payload = payload;
    SendToServer(msg);
  };
  pending.resend();
  pending.retry_event = host_->loop().ScheduleAfter(kRequestRetryInterval,
                                                    [this, peer_id] { RequestRetryTick(peer_id); });
}

void UdpRendezvousClient::RequestRetryTick(uint64_t peer_id) {
  auto it = pending_requests_.find(peer_id);
  if (it == pending_requests_.end()) {
    return;
  }
  if (++it->second.attempts >= kRequestAttempts) {
    auto callback = std::move(it->second.cb);
    pending_requests_.erase(it);
    callback(Status(ErrorCode::kTimedOut, "connect request timed out"));
    return;
  }
  it->second.resend();
  it->second.retry_event = host_->loop().ScheduleAfter(
      kRequestRetryInterval, [this, peer_id] { RequestRetryTick(peer_id); });
}

void UdpRendezvousClient::SendConnectRequest(uint64_t peer_id, ConnectStrategy strategy,
                                             uint64_t nonce, Bytes payload) {
  RendezvousMessage msg;
  msg.type = RvMsgType::kConnectRequest;
  msg.client_id = client_id_;
  msg.target_id = peer_id;
  msg.strategy = strategy;
  msg.nonce = nonce;
  msg.payload = std::move(payload);
  SendToServer(msg);
}

void UdpRendezvousClient::SendRelay(uint64_t to_id, Bytes payload) {
  RendezvousMessage msg;
  msg.type = RvMsgType::kRelayData;
  msg.client_id = client_id_;
  msg.target_id = to_id;
  msg.payload = std::move(payload);
  SendToServer(msg);
}

void UdpRendezvousClient::StartKeepAlive(SimDuration interval) {
  StopKeepAlive();
  keepalive_interval_ = interval;
  keepalive_timer_.Bind<&UdpRendezvousClient::KeepAliveTick>(this);
  host_->loop().ScheduleTimerAfter(interval, &keepalive_timer_);
}

void UdpRendezvousClient::KeepAliveTick() {
  if (ring_.size() > 1) {
    if (!registered_) {
      // Mid-failover (or a lost kRegister): re-registration retries ride the
      // keepalive cadence until the new shard's kRegisterOk lands.
      ReRegister();
    } else if (keepalive_misses_ >= kFailoverMissedKeepalives) {
      // Every keepalive since the last ack went unanswered: the shard is
      // dead (or unreachable). Walk the deterministic ladder to the replica.
      FailOverToNextShard();
    } else {
      ++keepalive_misses_;  // provisional; any ack from the shard resets it
    }
  }
  RendezvousMessage msg;
  msg.type = RvMsgType::kKeepAlive;
  msg.client_id = client_id_;
  SendToServer(msg);
  host_->loop().ScheduleTimerAfter(keepalive_interval_, &keepalive_timer_);
}

void UdpRendezvousClient::FailOverToNextShard() {
  ++failovers_;
  keepalive_misses_ = 0;
  ladder_pos_ = (ladder_pos_ + 1) % static_cast<uint32_t>(ring_.size());
  server_ = ring_.endpoint(current_shard());
  registered_ = false;
  server_epoch_ = 0;  // epochs are per-shard; the new one starts fresh
  NP_LOG(Info) << "client " << client_id_ << " re-homing to shard " << current_shard()
               << " (" << server_.ToString() << ") after keepalive loss";
  ReRegister();
}

void UdpRendezvousClient::StopKeepAlive() { keepalive_timer_.Cancel(); }

// ---------------------------------------------------------------------------
// TcpRendezvousClient
// ---------------------------------------------------------------------------

TcpRendezvousClient::TcpRendezvousClient(Host* host, Endpoint server, uint64_t client_id,
                                         RendezvousClientOptions options)
    : host_(host), server_(server), client_id_(client_id), options_(options) {
  // Relayed application chunks arrive over this connection: data-tier cap.
  framer_.set_max_frame(MessageFramer::kMaxDataFrame);
}

void TcpRendezvousClient::SendToServer(const RendezvousMessage& msg) {
  connection_->Send(
      MessageFramer::Frame(EncodeRendezvousMessage(msg, options_.obfuscate_addresses)));
}

void TcpRendezvousClient::Connect(uint16_t local_port, EndpointCallback cb) {
  DoConnect(local_port, std::move(cb));
}

void TcpRendezvousClient::DoConnect(uint16_t local_port, EndpointCallback cb) {
  connection_ = host_->tcp().CreateSocket();
  connection_->SetReuseAddr(true);
  Status status = connection_->Bind(local_port);
  if (!status.ok()) {
    cb(status);
    return;
  }
  local_port_ = connection_->local_port();
  private_ep_ = Endpoint(host_->primary_address(), local_port_);
  register_cb_ = std::move(cb);
  connection_->SetDataCallback([this](const Bytes& data) { OnData(data); });
  status = connection_->Connect(server_, [this](Status result) {
    if (!result.ok()) {
      registered_ = false;
      if (register_cb_) {
        auto callback = std::move(register_cb_);
        register_cb_ = nullptr;
        callback(result);
      }
      return;
    }
    RendezvousMessage msg;
    msg.type = RvMsgType::kRegister;
    msg.client_id = client_id_;
    msg.private_ep = private_ep_;
    SendToServer(msg);
  });
  if (!status.ok()) {
    auto callback = std::move(register_cb_);
    register_cb_ = nullptr;
    callback(status);
  }
}

void TcpRendezvousClient::OnData(const Bytes& data) {
  for (const Bytes& body : framer_.Append(data)) {
    auto msg = DecodeRendezvousMessage(body, options_.obfuscate_addresses);
    if (!msg) {
      host_->CountMalformedDrop();
      continue;
    }
    HandleServerMessage(*msg);
  }
}

void TcpRendezvousClient::HandleServerMessage(const RendezvousMessage& msg) {
  if (msg.epoch != 0 && server_epoch_ != 0 && msg.epoch != server_epoch_) {
    ++restarts_detected_;
  }
  switch (msg.type) {
    case RvMsgType::kRegisterOk: {
      public_ep_ = msg.public_ep;
      registered_ = true;
      server_epoch_ = msg.epoch;
      if (register_cb_) {
        auto cb = std::move(register_cb_);
        register_cb_ = nullptr;
        cb(public_ep_);
      }
      return;
    }
    case RvMsgType::kConnectAck: {
      auto it = pending_requests_.find(msg.client_id);
      if (it == pending_requests_.end()) {
        return;
      }
      auto cb = std::move(it->second);
      pending_requests_.erase(it);
      cb(msg);
      return;
    }
    case RvMsgType::kConnectError: {
      auto it = pending_requests_.find(msg.target_id);
      if (it == pending_requests_.end()) {
        return;
      }
      auto cb = std::move(it->second);
      pending_requests_.erase(it);
      cb(Status(ErrorCode::kHostUnreachable, "peer not registered"));
      return;
    }
    case RvMsgType::kConnectForward: {
      auto handler = connect_forward_handlers_.find(msg.strategy);
      if (handler != connect_forward_handlers_.end() && handler->second) {
        handler->second(msg);
      }
      return;
    }
    case RvMsgType::kSequentialReady:
      if (sequential_ready_handler_) {
        sequential_ready_handler_(msg);
      }
      return;
    case RvMsgType::kRelayForward:
      if (relay_handler_) {
        relay_handler_(msg.client_id, msg.payload);
      }
      return;
    default:
      return;
  }
}

void TcpRendezvousClient::RequestConnect(uint64_t peer_id, ConnectStrategy strategy,
                                         uint64_t nonce,
                                         std::function<void(Result<RendezvousMessage>)> cb,
                                         Bytes payload) {
  if (!registered_) {
    cb(Status(ErrorCode::kNotConnected, "not registered"));
    return;
  }
  pending_requests_[peer_id] = std::move(cb);
  RendezvousMessage msg;
  msg.type = RvMsgType::kConnectRequest;
  msg.client_id = client_id_;
  msg.target_id = peer_id;
  msg.strategy = strategy;
  msg.nonce = nonce;
  msg.payload = std::move(payload);
  SendToServer(msg);
}

void TcpRendezvousClient::SendRelay(uint64_t to_id, Bytes payload) {
  RendezvousMessage msg;
  msg.type = RvMsgType::kRelayData;
  msg.client_id = client_id_;
  msg.target_id = to_id;
  msg.payload = std::move(payload);
  SendToServer(msg);
}

void TcpRendezvousClient::SendSequentialReady(uint64_t to_id, uint64_t nonce) {
  RendezvousMessage msg;
  msg.type = RvMsgType::kSequentialReady;
  msg.client_id = client_id_;
  msg.target_id = to_id;
  msg.nonce = nonce;
  SendToServer(msg);
}

void TcpRendezvousClient::CloseConnection() {
  if (connection_ != nullptr) {
    connection_->Close();
    registered_ = false;
  }
}

void TcpRendezvousClient::Reconnect(EndpointCallback cb) {
  framer_ = MessageFramer();
  framer_.set_max_frame(MessageFramer::kMaxDataFrame);
  DoConnect(0, std::move(cb));
}

}  // namespace natpunch
