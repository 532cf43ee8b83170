#include "src/transport/tcp.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/transport/host.h"
#include "src/util/logging.h"

namespace natpunch {
namespace {

constexpr SimDuration kMaxRto = Seconds(16);  // backoff cap
constexpr int kSynMaxRetries = 5;             // SYN retransmissions before ETIMEDOUT
constexpr int kDataMaxRetries = 8;            // data retransmissions before reset
constexpr uint32_t kMss = 1400;               // max payload bytes per segment
constexpr uint32_t kReceiveWindow = 65535;

}  // namespace

std::string_view TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynReceived:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack* stack)
    : stack_(stack), current_rto_(stack->config().initial_rto) {}

Host* TcpSocket::host() const { return stack_->host(); }

Status TcpSocket::Bind(uint16_t port) {
  if (bound_) {
    return Status(ErrorCode::kInvalidArgument, "already bound");
  }
  if (port == 0) {
    port = host()->AllocateEphemeralPort(IpProtocol::kTcp);
    if (port == 0) {
      return Status(ErrorCode::kAddressInUse, "ephemeral ports exhausted");
    }
  }
  Status status = stack_->RegisterBind(this, port);
  if (!status.ok()) {
    return status;
  }
  tuple_.local = Endpoint(host()->primary_address(), port);
  bound_ = true;
  bind_registered_ = true;
  return Status::Ok();
}

Status TcpSocket::Listen(AcceptCallback on_accept) {
  if (state_ != TcpState::kClosed || via_accept_) {
    return Status(ErrorCode::kInvalidArgument, "socket not in CLOSED state");
  }
  if (!bound_) {
    return Status(ErrorCode::kInvalidArgument, "listen on unbound socket");
  }
  Status status = stack_->RegisterListener(this);
  if (!status.ok()) {
    return status;
  }
  state_ = TcpState::kListen;
  accept_cb_ = std::move(on_accept);
  return Status::Ok();
}

Status TcpSocket::Connect(const Endpoint& remote, ConnectCallback on_connect) {
  if (state_ != TcpState::kClosed || via_accept_ || doomed_) {
    return Status(ErrorCode::kInvalidArgument, "socket not connectable");
  }
  if (remote.ip.IsUnspecified() || remote.port == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad remote endpoint");
  }
  if (!bound_) {
    Status status = Bind(0);
    if (!status.ok()) {
      return status;
    }
  }
  tuple_.remote = remote;
  Status status = stack_->RegisterConnection(this);
  if (!status.ok()) {
    tuple_.remote = Endpoint();
    return status;
  }
  registered_tuple_ = true;
  connect_cb_ = std::move(on_connect);

  iss_ = stack_->GenerateIss();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  buffer_base_ = snd_nxt_;
  state_ = TcpState::kSynSent;
  retransmit_count_ = 0;
  current_rto_ = stack_->config().initial_rto;
  SendControl(/*syn=*/true, /*ack=*/false, /*fin=*/false, /*rst=*/false, iss_, 0);
  ArmRetransmit();
  return Status::Ok();
}

Status TcpSocket::Send(Bytes data) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return Status(ErrorCode::kNotConnected);
  }
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  TrySendData();
  return Status::Ok();
}

void TcpSocket::Close() {
  switch (state_) {
    case TcpState::kListen:
      stack_->UnregisterListener(this);
      if (bind_registered_) {
        stack_->UnregisterBind(this);
        bind_registered_ = false;
      }
      accept_cb_ = nullptr;
      state_ = TcpState::kClosed;
      break;
    case TcpState::kSynSent:
      connect_cb_ = nullptr;
      Teardown();
      break;
    case TcpState::kSynReceived:
      // Will FIN immediately after establishing.
      fin_queued_ = true;
      break;
    case TcpState::kEstablished:
      fin_queued_ = true;
      state_ = TcpState::kFinWait1;
      TrySendData();
      break;
    case TcpState::kCloseWait:
      fin_queued_ = true;
      state_ = TcpState::kLastAck;
      TrySendData();
      break;
    default:
      break;
  }
}

void TcpSocket::Abort() {
  switch (state_) {
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kCloseWait:
    case TcpState::kClosing:
    case TcpState::kLastAck:
      SendControl(false, true, false, /*rst=*/true, snd_nxt_, rcv_nxt_);
      break;
    case TcpState::kListen:
      Close();
      return;
    default:
      break;
  }
  connect_cb_ = nullptr;
  closed_cb_ = nullptr;
  Teardown();
}

void TcpSocket::SendControl(bool syn, bool ack, bool fin, bool rst, uint32_t seq,
                            uint32_t ack_seq) {
  Packet p;
  p.protocol = IpProtocol::kTcp;
  p.set_src(tuple_.local);
  p.set_dst(tuple_.remote);
  p.tcp.syn = syn;
  p.tcp.ack = ack;
  p.tcp.fin = fin;
  p.tcp.rst = rst;
  p.tcp.seq = seq;
  p.tcp.ack_seq = ack_seq;
  p.tcp.window = kReceiveWindow;
  if (rst) {
    obs::Inc(stack_->metric_rsts_sent_);
  }
  host()->SendFromTransport(std::move(p));
}

void TcpSocket::SendDataSegment(uint32_t seq, Bytes payload, bool fin) {
  Packet p;
  p.protocol = IpProtocol::kTcp;
  p.set_src(tuple_.local);
  p.set_dst(tuple_.remote);
  p.tcp.ack = true;
  p.tcp.fin = fin;
  p.tcp.seq = seq;
  p.tcp.ack_seq = rcv_nxt_;
  p.tcp.window = kReceiveWindow;
  bytes_sent_ += payload.size();
  p.payload = std::move(payload);
  host()->SendFromTransport(std::move(p));
}

void TcpSocket::SendAck() { SendControl(false, true, false, false, snd_nxt_, rcv_nxt_); }

void TcpSocket::EnterEstablished() {
  state_ = TcpState::kEstablished;
  CancelRetransmit();
  retransmit_count_ = 0;
  current_rto_ = stack_->config().initial_rto;

  if (parent_listener_ != nullptr && !accept_delivered_) {
    accept_delivered_ = true;
    TcpSocket* listener = parent_listener_;
    if (listener->state_ == TcpState::kListen && listener->accept_cb_) {
      listener->accept_cb_(this);
    } else {
      // Listener went away before the handshake completed.
      Abort();
      return;
    }
  } else if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(Status::Ok());
  }
  if (fin_queued_ && state_ == TcpState::kEstablished) {
    state_ = TcpState::kFinWait1;
  }
  TrySendData();
}

void TcpSocket::FailConnect(const Status& status) {
  CancelRetransmit();
  Teardown();
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(status);
  }
}

void TcpSocket::HandleRst(const Status& status) {
  const bool was_connecting =
      (state_ == TcpState::kSynSent) ||
      (state_ == TcpState::kSynReceived && parent_listener_ == nullptr);
  CancelRetransmit();
  if (was_connecting) {
    FailConnect(status);
    return;
  }
  const bool notify = state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
                      state_ == TcpState::kFinWait2 || state_ == TcpState::kCloseWait ||
                      state_ == TcpState::kClosing;
  Teardown();
  if (notify && closed_cb_) {
    auto cb = std::move(closed_cb_);
    closed_cb_ = nullptr;
    cb(status);
  }
}

void TcpSocket::HandleSegment(const Packet& p) {
  switch (state_) {
    case TcpState::kSynSent:
      HandleSegmentSynSent(p);
      break;
    case TcpState::kSynReceived:
      HandleSegmentSynReceived(p);
      break;
    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kCloseWait:
    case TcpState::kClosing:
    case TcpState::kLastAck:
    case TcpState::kTimeWait:
      HandleSegmentConnected(p);
      break;
    default:
      break;
  }
}

void TcpSocket::HandleSegmentSynSent(const Packet& p) {
  if (p.tcp.rst) {
    // Accept the reset if it plausibly refers to our SYN.
    if (!p.tcp.ack || p.tcp.ack_seq == snd_nxt_) {
      FailConnect(Status(ErrorCode::kConnectionRefused, "RST in response to SYN"));
    }
    return;
  }
  if (p.tcp.syn && p.tcp.ack) {
    if (p.tcp.ack_seq != snd_nxt_) {
      SendControl(false, false, false, /*rst=*/true, p.tcp.ack_seq, 0);
      return;
    }
    irs_ = p.tcp.seq;
    rcv_nxt_ = p.tcp.seq + 1;
    snd_una_ = p.tcp.ack_seq;
    snd_wnd_ = p.tcp.window;
    SendAck();
    EnterEstablished();
    return;
  }
  if (p.tcp.syn) {
    // Simultaneous open (§4.4): answer with a SYN-ACK whose SYN part replays
    // our original SYN, same sequence number.
    obs::Inc(stack_->metric_simultaneous_opens_);
    irs_ = p.tcp.seq;
    rcv_nxt_ = p.tcp.seq + 1;
    snd_wnd_ = p.tcp.window;
    state_ = TcpState::kSynReceived;
    retransmit_count_ = 0;
    SendControl(/*syn=*/true, /*ack=*/true, false, false, iss_, rcv_nxt_);
    ArmRetransmit();
    return;
  }
  // A stray ACK with nothing useful: reset it.
  if (p.tcp.ack && p.tcp.ack_seq != snd_nxt_) {
    SendControl(false, false, false, /*rst=*/true, p.tcp.ack_seq, 0);
  }
}

void TcpSocket::HandleSegmentSynReceived(const Packet& p) {
  if (p.tcp.rst) {
    HandleRst(Status(ErrorCode::kConnectionReset, "RST during handshake"));
    return;
  }
  if (p.tcp.syn && !p.tcp.ack) {
    if (p.tcp.seq == irs_) {
      // Duplicate of the SYN that got us here; re-send our SYN-ACK.
      SendControl(true, true, false, false, iss_, rcv_nxt_);
    }
    return;
  }
  if (p.tcp.ack) {
    if (p.tcp.ack_seq == snd_nxt_) {
      snd_una_ = p.tcp.ack_seq;
      snd_wnd_ = p.tcp.window;
      if (p.tcp.syn) {
        // The peer's SYN-ACK in a crossed handshake; acknowledge it so the
        // peer's retransmit timer stops.
        SendAck();
      }
      EnterEstablished();
      if (!p.payload.empty() || p.tcp.fin) {
        ProcessPayload(p);
      }
    } else {
      SendControl(false, false, false, /*rst=*/true, p.tcp.ack_seq, 0);
    }
  }
}

void TcpSocket::HandleSegmentConnected(const Packet& p) {
  if (p.tcp.rst) {
    if (state_ == TcpState::kTimeWait) {
      Teardown();
      return;
    }
    HandleRst(Status(ErrorCode::kConnectionReset));
    return;
  }
  if (state_ == TcpState::kTimeWait) {
    if (p.tcp.fin) {
      SendAck();
    }
    return;
  }
  if (p.tcp.syn && !p.tcp.ack) {
    // Stray or duplicate SYN on a live connection: re-acknowledge.
    SendAck();
    return;
  }
  if (p.tcp.ack) {
    snd_wnd_ = p.tcp.window;
    ProcessAck(p.tcp.ack_seq);
    if (state_ == TcpState::kClosed) {
      return;  // LAST_ACK completed inside ProcessAck
    }
  }
  ProcessPayload(p);
  TrySendData();
}

void TcpSocket::ProcessAck(uint32_t ack_seq) {
  if (SeqGt(ack_seq, snd_nxt_)) {
    SendAck();  // ack for data we never sent; resynchronize
    return;
  }
  if (!SeqGt(ack_seq, snd_una_)) {
    return;  // duplicate / old ack
  }
  snd_una_ = ack_seq;

  // Pop acknowledged bytes off the send buffer (clamped: the FIN occupies
  // sequence space but no buffer byte).
  uint32_t advance = ack_seq - buffer_base_;
  if (advance > send_buffer_.size()) {
    advance = static_cast<uint32_t>(send_buffer_.size());
  }
  send_buffer_.erase(send_buffer_.begin(), send_buffer_.begin() + advance);
  buffer_base_ += advance;

  retransmit_count_ = 0;
  current_rto_ = stack_->config().initial_rto;
  if (snd_una_ == snd_nxt_) {
    CancelRetransmit();
  } else {
    ArmRetransmit();
  }

  if (fin_sent_ && SeqGt(snd_una_, fin_seq_)) {
    // Our FIN is acknowledged.
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        EnterTimeWait();
        break;
      case TcpState::kLastAck:
        Teardown();
        break;
      default:
        break;
    }
  }
}

void TcpSocket::ProcessPayload(const Packet& p) {
  bool should_ack = false;
  const uint32_t seg_seq = p.tcp.seq;
  const uint32_t seg_len = static_cast<uint32_t>(p.payload.size());

  if (seg_len > 0) {
    if (SeqGt(seg_seq, rcv_nxt_)) {
      // Future data: stash for reassembly, send a duplicate ACK.
      out_of_order_.emplace(seg_seq, p.payload.ToBytes());
      should_ack = true;
    } else if (SeqGt(seg_seq + seg_len, rcv_nxt_)) {
      const uint32_t offset = rcv_nxt_ - seg_seq;
      Bytes fresh(p.payload.begin() + offset, p.payload.end());
      rcv_nxt_ += static_cast<uint32_t>(fresh.size());
      bytes_received_ += fresh.size();
      should_ack = true;
      if (data_cb_) {
        // Invoke a copy: the callback may replace itself (e.g. a hole
        // puncher handing the socket to the application's stream wrapper).
        auto cb = data_cb_;
        cb(fresh);
      }
      // Drain any now-contiguous out-of-order segments.
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end() && SeqLe(it->first, rcv_nxt_)) {
        const uint32_t o_seq = it->first;
        const Bytes& o_data = it->second;
        if (SeqGt(o_seq + static_cast<uint32_t>(o_data.size()), rcv_nxt_)) {
          const uint32_t skip = rcv_nxt_ - o_seq;
          Bytes extra(o_data.begin() + skip, o_data.end());
          rcv_nxt_ += static_cast<uint32_t>(extra.size());
          bytes_received_ += extra.size();
          if (data_cb_) {
            auto cb = data_cb_;
            cb(extra);
          }
        }
        it = out_of_order_.erase(it);
      }
    } else {
      should_ack = true;  // entirely old data; re-ack
    }
  }

  if (p.tcp.fin) {
    const uint32_t fin_seq = seg_seq + seg_len;
    if (fin_seq == rcv_nxt_ && !peer_fin_seen_) {
      peer_fin_seen_ = true;
      peer_fin_seq_ = fin_seq;
      rcv_nxt_ += 1;
      should_ack = true;
      const bool fin_acked = fin_sent_ && SeqGt(snd_una_, fin_seq_);
      switch (state_) {
        case TcpState::kEstablished:
          state_ = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          if (fin_acked) {
            EnterTimeWait();
          } else {
            state_ = TcpState::kClosing;
          }
          break;
        case TcpState::kFinWait2:
          EnterTimeWait();
          break;
        default:
          break;
      }
      if (closed_cb_) {
        // EOF from the peer.
        auto cb = closed_cb_;
        cb(Status::Ok());
      }
    } else if (SeqLt(fin_seq, rcv_nxt_)) {
      should_ack = true;  // retransmitted FIN
    }
  }

  if (should_ack) {
    SendAck();
  }
}

void TcpSocket::MaybeSendFin() {
  const uint32_t data_end = buffer_base_ + static_cast<uint32_t>(send_buffer_.size());
  const uint32_t unsent = SeqGt(data_end, snd_nxt_) ? data_end - snd_nxt_ : 0;
  if (!fin_queued_ || fin_sent_ || unsent != 0) {
    return;
  }
  if (state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }
  fin_seq_ = snd_nxt_;
  SendControl(false, true, /*fin=*/true, false, snd_nxt_, rcv_nxt_);
  snd_nxt_ += 1;
  fin_sent_ = true;
  ArmRetransmit();
}

void TcpSocket::TrySendData() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }
  for (;;) {
    const uint32_t in_flight = snd_nxt_ - snd_una_;
    const uint32_t buffered = static_cast<uint32_t>(send_buffer_.size());
    const uint32_t data_end = buffer_base_ + buffered;
    // The FIN occupies sequence space past the data, so clamp: once it is
    // sent, snd_nxt_ sits one past data_end.
    const uint32_t unsent = SeqGt(data_end, snd_nxt_) ? data_end - snd_nxt_ : 0;
    if (unsent == 0) {
      break;
    }
    uint32_t can_send = std::min(unsent, kMss);
    const uint32_t window_room = snd_wnd_ > in_flight ? snd_wnd_ - in_flight : 0;
    can_send = std::min(can_send, window_room);
    if (can_send == 0) {
      break;
    }
    const uint32_t offset = snd_nxt_ - buffer_base_;
    Bytes payload(send_buffer_.begin() + offset, send_buffer_.begin() + offset + can_send);
    const bool last_chunk = (unsent == can_send);
    const bool add_fin = fin_queued_ && !fin_sent_ && last_chunk &&
                         (state_ == TcpState::kFinWait1 || state_ == TcpState::kLastAck ||
                          state_ == TcpState::kClosing);
    SendDataSegment(snd_nxt_, std::move(payload), add_fin);
    snd_nxt_ += can_send;
    if (add_fin) {
      fin_seq_ = snd_nxt_;
      snd_nxt_ += 1;
      fin_sent_ = true;
    }
    ArmRetransmit();
  }
  MaybeSendFin();
}

void TcpSocket::ArmRetransmit() {
  CancelRetransmit();
  retransmit_event_ =
      host()->loop().ScheduleAfter(current_rto_, [this] { OnRetransmitTimeout(); });
}

void TcpSocket::CancelRetransmit() {
  if (retransmit_event_ != EventLoop::kInvalidEventId) {
    host()->loop().Cancel(retransmit_event_);
    retransmit_event_ = EventLoop::kInvalidEventId;
  }
}

void TcpSocket::OnRetransmitTimeout() {
  retransmit_event_ = EventLoop::kInvalidEventId;
  ++retransmit_count_;
  obs::Inc(stack_->metric_retransmits_);

  if (state_ == TcpState::kSynSent) {
    if (retransmit_count_ > kSynMaxRetries) {
      FailConnect(Status(ErrorCode::kTimedOut, "SYN retries exhausted"));
      return;
    }
    SendControl(true, false, false, false, iss_, 0);
  } else if (state_ == TcpState::kSynReceived) {
    if (retransmit_count_ > kSynMaxRetries) {
      if (parent_listener_ == nullptr) {
        FailConnect(Status(ErrorCode::kTimedOut, "SYN-ACK retries exhausted"));
      } else {
        Teardown();
      }
      return;
    }
    SendControl(true, true, false, false, iss_, rcv_nxt_);
  } else {
    if (retransmit_count_ > kDataMaxRetries) {
      SendControl(false, true, false, /*rst=*/true, snd_nxt_, rcv_nxt_);
      const bool notify = closed_cb_ != nullptr;
      auto cb = std::move(closed_cb_);
      Teardown();
      if (notify) {
        cb(Status(ErrorCode::kTimedOut, "data retries exhausted"));
      }
      return;
    }
    // Go-back to the first unacknowledged byte.
    const uint32_t buffered = static_cast<uint32_t>(send_buffer_.size());
    const uint32_t data_end = buffer_base_ + buffered;
    if (SeqLt(snd_una_, data_end)) {
      const uint32_t offset = snd_una_ - buffer_base_;
      const uint32_t len = std::min(kMss, data_end - snd_una_);
      Bytes payload(send_buffer_.begin() + offset, send_buffer_.begin() + offset + len);
      const bool with_fin = fin_sent_ && (snd_una_ + len == fin_seq_);
      bytes_sent_ -= payload.size();  // don't double-count retransmissions
      SendDataSegment(snd_una_, std::move(payload), with_fin);
    } else if (fin_sent_ && SeqLe(snd_una_, fin_seq_)) {
      SendControl(false, true, /*fin=*/true, false, fin_seq_, rcv_nxt_);
    } else {
      return;  // nothing outstanding
    }
  }

  current_rto_ = std::min(current_rto_ * 2, kMaxRto);
  ArmRetransmit();
}

void TcpSocket::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  CancelRetransmit();
  if (time_wait_event_ == EventLoop::kInvalidEventId) {
    time_wait_event_ =
        host()->loop().ScheduleAfter(stack_->config().time_wait, [this] { Teardown(); });
  }
}

void TcpSocket::Teardown() {
  CancelRetransmit();
  if (time_wait_event_ != EventLoop::kInvalidEventId) {
    host()->loop().Cancel(time_wait_event_);
    time_wait_event_ = EventLoop::kInvalidEventId;
  }
  if (registered_tuple_) {
    stack_->UnregisterConnection(this);
    registered_tuple_ = false;
  }
  if (bind_registered_) {
    // A fully torn-down connection no longer holds its port (our model has
    // no lingering bind for dead sockets; apps that want the port again
    // simply re-bind).
    stack_->UnregisterBind(this);
    bind_registered_ = false;
  }
  state_ = TcpState::kClosed;
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(Host* host, TcpConfig config) : host_(host), config_(config) {
  if (obs::MetricsRegistry* reg = host->network()->metrics()) {
    char name[96];
    const auto metric = [&](const char* suffix) {
      const int n = std::snprintf(name, sizeof(name), "tcp.%s.%s", host->name().c_str(), suffix);
      return reg->GetCounter(std::string_view(name, static_cast<size_t>(n)));
    };
    metric_retransmits_ = metric("retransmits");
    metric_simultaneous_opens_ = metric("simultaneous_opens");
    metric_rsts_sent_ = metric("rsts_sent");
    socket_pool_.AttachMetrics(reg, "tcp_sockets." + host->name());
  }
}

TcpStack::~TcpStack() {
  for (TcpSocket* socket : sockets_) {
    socket_pool_.Delete(socket);
  }
}

TcpSocket* TcpStack::CreateSocket() {
  sockets_.push_back(socket_pool_.New(this));
  return sockets_.back();
}

bool TcpStack::IsPortBound(uint16_t port) const {
  return bound_.Contains(port) || listeners_.Contains(port);
}

Status TcpStack::RegisterBind(TcpSocket* socket, uint16_t port) {
  std::vector<TcpSocket*>* sharers = bound_.Find(port);
  if (sharers != nullptr) {
    for (TcpSocket* other : *sharers) {
      if (!other->reuse_addr() || !socket->reuse_addr()) {
        return Status(ErrorCode::kAddressInUse, "TCP port " + std::to_string(port));
      }
    }
  }
  bound_.FindOrInsert(port)->push_back(socket);
  return Status::Ok();
}

void TcpStack::UnregisterBind(TcpSocket* socket) {
  std::vector<TcpSocket*>* sharers = bound_.Find(socket->local_port());
  if (sharers == nullptr) {
    return;
  }
  for (auto it = sharers->begin(); it != sharers->end(); ++it) {
    if (*it == socket) {
      sharers->erase(it);
      break;
    }
  }
  if (sharers->empty()) {
    bound_.Erase(socket->local_port());
  }
}

Status TcpStack::RegisterListener(TcpSocket* socket) {
  bool inserted = false;
  TcpSocket** slot = listeners_.FindOrInsert(socket->local_port(), &inserted);
  if (!inserted) {
    return Status(ErrorCode::kAddressInUse,
                  "listener exists on port " + std::to_string(socket->local_port()));
  }
  *slot = socket;
  return Status::Ok();
}

void TcpStack::UnregisterListener(TcpSocket* socket) {
  TcpSocket** slot = listeners_.Find(socket->local_port());
  if (slot != nullptr && *slot == socket) {
    listeners_.Erase(socket->local_port());
  }
}

Status TcpStack::RegisterConnection(TcpSocket* socket) {
  bool inserted = false;
  TcpSocket** slot = connections_.FindOrInsert(socket->tuple_, &inserted);
  if (!inserted) {
    return Status(ErrorCode::kAddressInUse, "4-tuple in use: " + socket->tuple_.ToString());
  }
  *slot = socket;
  return Status::Ok();
}

void TcpStack::UnregisterConnection(TcpSocket* socket) {
  TcpSocket** slot = connections_.Find(socket->tuple_);
  if (slot != nullptr && *slot == socket) {
    connections_.Erase(socket->tuple_);
  }
}

uint32_t TcpStack::GenerateIss() { return static_cast<uint32_t>(host_->rng().NextU64()); }

void TcpStack::SendRstFor(const Packet& packet) {
  if (packet.tcp.rst || !config_.rst_on_closed_port) {
    return;
  }
  Packet rst;
  rst.protocol = IpProtocol::kTcp;
  rst.set_src(packet.dst());
  rst.set_dst(packet.src());
  rst.tcp.rst = true;
  if (packet.tcp.ack) {
    rst.tcp.seq = packet.tcp.ack_seq;
  } else {
    rst.tcp.ack = true;
    rst.tcp.seq = 0;
    rst.tcp.ack_seq = packet.tcp.seq + static_cast<uint32_t>(packet.payload.size()) +
                      (packet.tcp.syn ? 1 : 0) + (packet.tcp.fin ? 1 : 0);
  }
  obs::Inc(metric_rsts_sent_);
  host_->SendFromTransport(std::move(rst));
}

void TcpStack::SpawnFromListener(TcpSocket* listener, const Packet& syn,
                                 std::optional<uint32_t> replay_iss) {
  TcpSocket* child = CreateSocket();
  child->via_accept_ = true;
  child->parent_listener_ = listener;
  child->tuple_ = FourTuple{syn.dst(), syn.src()};
  child->bound_ = true;  // implicitly bound to the listener's port
  Status status = RegisterConnection(child);
  if (!status.ok()) {
    return;  // tuple collision; drop the SYN, peer will retransmit
  }
  child->registered_tuple_ = true;
  child->irs_ = syn.tcp.seq;
  child->rcv_nxt_ = syn.tcp.seq + 1;
  child->iss_ = replay_iss.has_value() ? *replay_iss : GenerateIss();
  child->snd_una_ = child->iss_;
  child->snd_nxt_ = child->iss_ + 1;
  child->buffer_base_ = child->snd_nxt_;
  child->snd_wnd_ = syn.tcp.window;
  child->state_ = TcpState::kSynReceived;
  child->SendControl(true, true, false, false, child->iss_, child->rcv_nxt_);
  child->ArmRetransmit();
}

void TcpStack::HandlePacket(const Packet& packet) {
  const FourTuple tuple{packet.dst(), packet.src()};
  TcpSocket** conn_slot = connections_.Find(tuple);
  TcpSocket* conn = conn_slot != nullptr ? *conn_slot : nullptr;
  TcpSocket** listen_slot = listeners_.Find(packet.dst_port);
  TcpSocket* listener = listen_slot != nullptr ? *listen_slot : nullptr;

  const bool bare_syn = packet.tcp.syn && !packet.tcp.ack && !packet.tcp.rst;
  if (bare_syn) {
    if (conn != nullptr && conn->state() == TcpState::kSynSent && listener != nullptr &&
        config_.accept_policy == TcpAcceptPolicy::kLinuxWindows) {
      // §4.3 behavior 2: the listen socket wins. The in-progress connect is
      // doomed to fail with EADDRINUSE, and the spawned connection replays
      // the doomed socket's ISS so the wire protocol stays coherent.
      const uint32_t replay_iss = conn->iss_;
      TcpSocket* doomed = conn;
      doomed->doomed_ = true;
      doomed->CancelRetransmit();
      UnregisterConnection(doomed);
      doomed->registered_tuple_ = false;
      doomed->state_ = TcpState::kClosed;
      host_->loop().ScheduleAfter(Micros(0), [doomed] {
        if (doomed->connect_cb_) {
          auto cb = std::move(doomed->connect_cb_);
          doomed->connect_cb_ = nullptr;
          cb(Status(ErrorCode::kAddressInUse, "connection taken over by listener"));
        }
      });
      SpawnFromListener(listener, packet, replay_iss);
      return;
    }
    if (conn != nullptr) {
      conn->HandleSegment(packet);
      return;
    }
    if (listener != nullptr) {
      SpawnFromListener(listener, packet, std::nullopt);
      return;
    }
    SendRstFor(packet);
    return;
  }

  if (conn != nullptr) {
    conn->HandleSegment(packet);
    return;
  }
  SendRstFor(packet);
}

void TcpStack::HandleIcmpError(const Packet& icmp) {
  const FourTuple tuple{icmp.icmp.original_src, icmp.icmp.original_dst};
  TcpSocket* const* slot = connections_.Find(tuple);
  if (slot == nullptr) {
    return;
  }
  TcpSocket* conn = *slot;
  if (conn->state() == TcpState::kSynSent) {
    // "Host unreachable" / "port unreachable" style hard errors abort the
    // connection attempt; the hole punching layer retries (§4.2 step 4).
    conn->FailConnect(Status(ErrorCode::kHostUnreachable, "ICMP error"));
  }
}

}  // namespace natpunch
