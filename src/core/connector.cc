#include "src/core/connector.h"

#include "src/util/logging.h"

namespace natpunch {

Status TcpChannel::Send(Bytes payload) {
  if (kind_ == Kind::kStream) {
    return stream_->Send(std::move(payload));
  }
  return relay_->Send(std::move(payload));
}

void TcpChannel::SetReceiveCallback(ReceiveCallback cb) {
  if (kind_ == Kind::kStream) {
    stream_->SetReceiveCallback(std::move(cb));
  } else {
    relay_->SetReceiveCallback(std::move(cb));
  }
}

TcpConnector::TcpConnector(TcpRendezvousClient* rendezvous, TcpPunchConfig punch)
    : puncher_(rendezvous, punch), relay_hub_(rendezvous) {
  puncher_.SetIncomingStreamCallback([this](TcpP2pStream* stream) {
    TcpChannel* channel = WrapStream(stream);
    if (incoming_cb_) {
      incoming_cb_(channel);
    }
  });
  relay_hub_.SetIncomingChannelCallback([this](RelayChannel* relay) {
    TcpChannel* channel = WrapRelay(relay);
    if (incoming_cb_) {
      incoming_cb_(channel);
    }
  });
}

TcpChannel* TcpConnector::WrapStream(TcpP2pStream* stream) {
  channels_.push_back(std::make_unique<TcpChannel>());
  TcpChannel* channel = channels_.back().get();
  channel->kind_ = TcpChannel::Kind::kStream;
  channel->peer_id_ = stream->peer_id();
  channel->stream_ = stream;
  return channel;
}

TcpChannel* TcpConnector::WrapRelay(RelayChannel* relay) {
  channels_.push_back(std::make_unique<TcpChannel>());
  TcpChannel* channel = channels_.back().get();
  channel->kind_ = TcpChannel::Kind::kRelayed;
  channel->peer_id_ = relay->peer_id();
  channel->relay_ = relay;
  return channel;
}

void TcpConnector::Connect(uint64_t peer_id, std::function<void(Result<TcpChannel*>)> cb) {
  puncher_.ConnectToPeer(peer_id, [this, peer_id,
                                   cb = std::move(cb)](Result<TcpP2pStream*> result) {
    if (result.ok()) {
      cb(WrapStream(*result));
      return;
    }
    NP_LOG(Info) << "TCP punch to " << peer_id << " failed ("
                 << result.status().ToString() << "); falling back to relay";
    cb(WrapRelay(relay_hub_.OpenChannel(peer_id)));
  });
}

}  // namespace natpunch
