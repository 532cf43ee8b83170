#include "src/core/turn.h"

#include "src/util/logging.h"

namespace natpunch {
namespace {

constexpr uint8_t kMagic = 0x54;  // 'T'

// Server: an address permission lapses after this long without a kPermit
// for, or relayed traffic from, that address.
constexpr SimDuration kPermissionLifetime = Seconds(300);

// Client: an allocate request is sent up to kRequestAttempts times,
// kRequestTimeout apart, before the allocation fails.
constexpr SimDuration kRequestTimeout = Millis(800);
constexpr int kRequestAttempts = 5;

}  // namespace

Bytes EncodeTurnMessage(const TurnMessage& msg) {
  ByteWriter w;
  w.WriteU8(kMagic);
  w.WriteU8(static_cast<uint8_t>(msg.type));
  w.WriteU32(msg.peer.ip.bits());
  w.WriteU16(msg.peer.port);
  w.WriteBytes(msg.payload);
  return w.Take();
}

std::optional<TurnMessage> DecodeTurnMessage(ConstByteSpan data) {
  ByteReader r(data);
  if (r.ReadU8() != kMagic) {
    return std::nullopt;
  }
  TurnMessage msg;
  const uint8_t type = r.ReadU8();
  if (type < static_cast<uint8_t>(TurnMsgType::kAllocate) ||
      type > static_cast<uint8_t>(TurnMsgType::kData)) {
    return std::nullopt;
  }
  msg.type = static_cast<TurnMsgType>(type);
  msg.peer.ip = Ipv4Address(r.ReadU32());
  msg.peer.port = r.ReadU16();
  msg.payload = r.ReadBytes();
  // Exact-length frames only: trailing attacker bytes must not decode.
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return msg;
}

// ---------------------------------------------------------------------------
// TurnServer
// ---------------------------------------------------------------------------

TurnServer::TurnServer(Host* host, TurnServerConfig config) : host_(host), config_(config) {
  allocation_pool_.AttachMetrics(host_->network()->metrics(),
                                 "turn_allocations." + host_->name());
}

TurnServer::~TurnServer() { Stop(); }

void TurnServer::Stop() {
  sweep_timer_.Cancel();
  if (control_ != nullptr) {
    control_->Close();
    control_ = nullptr;
  }
  for (auto& [client, allocation] : allocations_) {
    allocation->relayed->Close();
    allocation_pool_.Delete(allocation);
  }
  allocations_.clear();
}

Status TurnServer::Start() {
  auto bound = host_->udp().Bind(config_.port);
  if (!bound.ok()) {
    return bound.status();
  }
  control_ = *bound;
  control_->SetReceiveCallback(
      [this](const Endpoint& from, const Payload& payload) { OnControl(from, payload); });
  ScheduleSweep();
  return Status::Ok();
}

void TurnServer::ScheduleSweep() {
  sweep_timer_.Bind<&TurnServer::SweepTick>(this);
  host_->loop().ScheduleTimerAfter(Seconds(10), &sweep_timer_);
}

void TurnServer::SweepTick() {
  const SimTime now = host_->loop().now();
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    Allocation& allocation = *it->second;
    for (auto perm = allocation.permissions.begin(); perm != allocation.permissions.end();) {
      if (now - perm->second >= kPermissionLifetime) {
        perm = allocation.permissions.erase(perm);
      } else {
        ++perm;
      }
    }
    if (now - allocation.last_activity >= config_.allocation_lifetime) {
      allocation.relayed->Close();
      Allocation* doomed = it->second;
      it = allocations_.erase(it);
      allocation_pool_.Delete(doomed);
      ++stats_.expired_allocations;
    } else {
      ++it;
    }
  }
  ScheduleSweep();
}

void TurnServer::OnControl(const Endpoint& from, const Payload& payload) {
  auto msg = DecodeTurnMessage(payload);
  if (!msg) {
    host_->CountMalformedDrop();
    return;
  }
  auto it = allocations_.find(from);
  switch (msg->type) {
    case TurnMsgType::kAllocate: {
      if (it == allocations_.end()) {
        auto relayed = host_->udp().Bind(0);
        if (!relayed.ok()) {
          return;
        }
        Allocation* raw = allocation_pool_.New();
        raw->client = from;
        raw->relayed = *relayed;
        (*relayed)->SetReceiveCallback(
            [this, raw](const Endpoint& peer, const Payload& data) {
              OnRelayed(raw, peer, data);
            });
        it = allocations_.emplace(from, raw).first;
        ++stats_.allocations;
      }
      it->second->last_activity = host_->loop().now();
      TurnMessage reply;
      reply.type = TurnMsgType::kAllocateOk;
      reply.peer = Endpoint(host_->primary_address(), it->second->relayed->local_port());
      control_->SendTo(from, EncodeTurnMessage(reply));
      return;
    }
    case TurnMsgType::kPermit:
      if (it != allocations_.end()) {
        it->second->last_activity = host_->loop().now();
        it->second->permissions[msg->peer.ip] = host_->loop().now();
      }
      return;
    case TurnMsgType::kSend:
      if (it != allocations_.end()) {
        it->second->last_activity = host_->loop().now();
        ++stats_.relayed_to_peer;
        it->second->relayed->SendTo(msg->peer, msg->payload);
      }
      return;
    default:
      return;
  }
}

void TurnServer::OnRelayed(Allocation* allocation, const Endpoint& from, const Payload& payload) {
  auto perm = allocation->permissions.find(from.ip);
  if (perm == allocation->permissions.end() ||
      host_->loop().now() - perm->second >= kPermissionLifetime) {
    ++stats_.denied_no_permission;
    return;
  }
  perm->second = host_->loop().now();
  allocation->last_activity = host_->loop().now();
  ++stats_.relayed_to_client;
  TurnMessage data;
  data.type = TurnMsgType::kData;
  data.peer = from;
  data.payload = payload.ToBytes();
  control_->SendTo(allocation->client, EncodeTurnMessage(data));
}

// ---------------------------------------------------------------------------
// TurnClient
// ---------------------------------------------------------------------------

TurnClient::TurnClient(Host* host, Endpoint server, Config config)
    : host_(host), server_(server), config_(config) {}

TurnClient::~TurnClient() {
  // retry_timer_ / refresh_timer_ cancel themselves on destruction.
  if (socket_ != nullptr) {
    // The socket's receive callback captures `this`; Close() clears it so no
    // delivery can run into a destroyed client.
    socket_->Close();
  }
}

void TurnClient::Allocate(uint16_t local_port, std::function<void(Result<Endpoint>)> cb) {
  auto bound = host_->udp().Bind(local_port);
  if (!bound.ok()) {
    cb(bound.status());
    return;
  }
  socket_ = *bound;
  socket_->SetReceiveCallback(
      [this](const Endpoint& from, const Payload& payload) { OnReceive(from, payload); });
  allocate_cb_ = std::move(cb);
  attempts_ = 0;
  SendAllocate();
}

void TurnClient::SendAllocate() {
  TurnMessage request;
  request.type = TurnMsgType::kAllocate;
  socket_->SendTo(server_, EncodeTurnMessage(request));
  ++attempts_;
  retry_timer_.Bind<&TurnClient::RetryTick>(this);
  host_->loop().ScheduleTimerAfter(kRequestTimeout, &retry_timer_);
}

void TurnClient::RetryTick() {
  if (allocated_) {
    return;
  }
  if (attempts_ < kRequestAttempts) {
    SendAllocate();
    return;
  }
  if (allocate_cb_) {
    auto cb = std::move(allocate_cb_);
    allocate_cb_ = nullptr;
    cb(Status(ErrorCode::kTimedOut, "TURN allocation timed out"));
  }
}

void TurnClient::RefreshTick() {
  TurnMessage refresh;
  refresh.type = TurnMsgType::kAllocate;
  socket_->SendTo(server_, EncodeTurnMessage(refresh));
  host_->loop().ScheduleTimerAfter(config_.refresh_interval, &refresh_timer_);
}

void TurnClient::OnReceive(const Endpoint& from, const Payload& payload) {
  if (from != server_) {
    return;  // relayed traffic arrives wrapped in kData, never raw
  }
  auto msg = DecodeTurnMessage(payload);
  if (!msg) {
    host_->CountMalformedDrop();
    return;
  }
  switch (msg->type) {
    case TurnMsgType::kAllocateOk: {
      relayed_ = msg->peer;
      if (!allocated_) {
        allocated_ = true;
        retry_timer_.Cancel();
        // Periodic refresh keeps both the allocation and our NAT flow to
        // the server alive.
        refresh_timer_.Bind<&TurnClient::RefreshTick>(this);
        host_->loop().ScheduleTimerAfter(config_.refresh_interval, &refresh_timer_);
        if (allocate_cb_) {
          auto cb = std::move(allocate_cb_);
          allocate_cb_ = nullptr;
          cb(relayed_);
        }
      }
      return;
    }
    case TurnMsgType::kData:
      if (receive_cb_) {
        receive_cb_(msg->peer, msg->payload);
      }
      return;
    default:
      return;
  }
}

Status TurnClient::Permit(Ipv4Address peer) {
  if (!allocated_) {
    return Status(ErrorCode::kNotConnected, "no allocation");
  }
  TurnMessage permit;
  permit.type = TurnMsgType::kPermit;
  permit.peer = Endpoint(peer, 0);
  return socket_->SendTo(server_, EncodeTurnMessage(permit));
}

Status TurnClient::SendTo(const Endpoint& peer, Bytes payload) {
  if (!allocated_) {
    return Status(ErrorCode::kNotConnected, "no allocation");
  }
  TurnMessage send;
  send.type = TurnMsgType::kSend;
  send.peer = peer;
  send.payload = std::move(payload);
  return socket_->SendTo(server_, EncodeTurnMessage(send));
}

}  // namespace natpunch
