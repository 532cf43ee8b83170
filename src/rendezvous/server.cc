#include "src/rendezvous/server.h"

#include <string>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace natpunch {
namespace {

// The rate limit's window, and how long a quarantined UDP source is ignored.
constexpr SimDuration kRateWindow = Seconds(1);
constexpr SimDuration kQuarantineDuration = Seconds(30);

}  // namespace

RendezvousServer::RendezvousServer(Host* host, uint16_t port, Options options)
    : host_(host), port_(port), options_(options) {
  if (!options_.shard.shards.empty()) {
    ring_ = ShardRing(options_.shard.shards);
  }
  if (obs::MetricsRegistry* reg = host_->network()->metrics()) {
    metric_rate_limited_ = reg->GetCounter("rendezvous.rate_limited_drops");
    metric_quarantined_ = reg->GetCounter("rendezvous.quarantined_sources");
    client_pool_.AttachMetrics(reg, "rendezvous_clients." + host_->name());
    if (sharded()) {
      const std::string prefix =
          "rendezvous.shard" + std::to_string(options_.shard.index) + ".";
      metric_registrations_ = reg->GetCounter(prefix + "registrations");
      metric_forwards_ = reg->GetCounter(prefix + "forwards");
      metric_promotions_ = reg->GetCounter(prefix + "replica_promotions");
    }
  }
}

Status RendezvousServer::Start() {
  ++epoch_;  // new incarnation: any state a prior one held is gone
  auto udp = host_->udp().Bind(port_);
  if (!udp.ok()) {
    return udp.status();
  }
  udp_socket_ = *udp;
  udp_socket_->SetReceiveCallback(
      [this](const Endpoint& from, const Payload& payload) { OnUdpReceive(from, payload); });

  tcp_listener_ = host_->tcp().CreateSocket();
  tcp_listener_->SetReuseAddr(true);
  Status status = tcp_listener_->Bind(port_);
  if (!status.ok()) {
    return status;
  }
  status = tcp_listener_->Listen([this](TcpSocket* socket) { OnTcpAccept(socket); });
  if (!status.ok()) {
    return status;
  }
  NP_LOG(Info) << "rendezvous server " << host_->name() << " listening on "
               << endpoint().ToString();
  return Status::Ok();
}

void RendezvousServer::Stop() {
  if (udp_socket_ != nullptr) {
    udp_socket_->Close();
    udp_socket_ = nullptr;
  }
  if (tcp_listener_ != nullptr) {
    tcp_listener_->Close();
    tcp_listener_ = nullptr;
  }
  for (auto& peer : tcp_peers_) {
    if (peer->socket != nullptr && peer->socket->state() != TcpState::kClosed) {
      peer->socket->Abort();
    }
  }
  clients_.Clear();
  client_pool_.Reset();  // records are trivially destructible; keep the slabs
  sources_.clear();      // a restarted incarnation starts with a clean slate
}

RendezvousServer::ClientRecord* RendezvousServer::FindClient(uint64_t client_id) {
  ClientRecord** found = clients_.Find(client_id);
  return found == nullptr ? nullptr : *found;
}

RendezvousServer::ClientRecord& RendezvousServer::GetOrCreateClient(uint64_t client_id) {
  bool inserted = false;
  ClientRecord** slot = clients_.FindOrInsert(client_id, &inserted);
  if (inserted) {
    *slot = client_pool_.New();
  }
  return **slot;
}

void RendezvousServer::SendUdp(const Endpoint& to, const RendezvousMessage& msg) {
  RendezvousMessage stamped = msg;
  stamped.epoch = epoch_;
  udp_socket_->SendTo(to, EncodeRendezvousMessage(stamped, options_.obfuscate_addresses));
}

void RendezvousServer::SendTcp(TcpPeer* peer, const RendezvousMessage& msg) {
  RendezvousMessage stamped = msg;
  stamped.epoch = epoch_;
  peer->socket->Send(
      MessageFramer::Frame(EncodeRendezvousMessage(stamped, options_.obfuscate_addresses)));
}

void RendezvousServer::SendShard(uint32_t shard, ShardMessage msg) {
  msg.src_shard = options_.shard.index;
  udp_socket_->SendTo(ring_.endpoint(shard), EncodeShardMessage(msg));
}

void RendezvousServer::ReplicateRecord(uint64_t client_id, const ClientRecord& rec) {
  // The replica is the ring successor of the client's arc. A promoted record
  // already lives on that successor (the client failed over to it), so the
  // copy goes to the next distinct shard instead — the chain a failing-over
  // client walks (ShardRing::NthOwner order).
  uint32_t replica = ring_.ReplicaShard(client_id);
  if (replica == options_.shard.index) {
    replica = ring_.NthOwner(client_id, 2);
  }
  if (replica == options_.shard.index) {
    return;  // two-shard ring and both owners are this shard: nothing to do
  }
  ShardMessage rep;
  rep.type = ShardMsgType::kReplicate;
  rep.client_id = client_id;
  rep.public_ep = rec.udp_public;
  rep.private_ep = rec.udp_private;
  SendShard(replica, rep);
  ++stats_.replications_sent;
}

int RendezvousServer::ForwardToOwners(uint64_t target_id, const ShardMessage& msg) {
  // Stateless replica fallback: ask both shards that can own the record (its
  // ring home and the successor holding the replica). If the home shard is
  // dead the replica still answers, which is what bounds lookup downtime
  // during a shard failure without per-forward timers; when both are alive
  // the duplicate answer is idempotent at the client (its pending-request
  // entry is erased by the first ack).
  int sent = 0;
  const uint32_t owners[2] = {ring_.HomeShard(target_id), ring_.ReplicaShard(target_id)};
  for (const uint32_t owner : owners) {
    if (owner != options_.shard.index) {
      SendShard(owner, msg);
      ++stats_.forwards;
      obs::Inc(metric_forwards_);
      ++sent;
    }
  }
  return sent;
}

void RendezvousServer::HandleShardFrame(const Endpoint& from, const Payload& payload) {
  // Only ring members speak the inter-shard protocol; a client (or attacker)
  // replaying a shard frame from outside the tier is dropped before parsing.
  const int src = ring_.IndexOf(from);
  if (src < 0 || src == static_cast<int>(options_.shard.index)) {
    ++stats_.shard_drops;
    host_->CountMalformedDrop();
    return;
  }
  auto msg = DecodeShardMessage(payload);
  if (!msg) {
    ++stats_.malformed_frames;
    host_->CountMalformedDrop();
    NoteUdpMalformed(from);
    return;
  }
  if (msg->src_shard != static_cast<uint32_t>(src)) {
    ++stats_.shard_drops;  // claimed index disagrees with the source address
    host_->CountMalformedDrop();
    return;
  }
  HandleShardMessage(*msg);
}

void RendezvousServer::HandleShardMessage(const ShardMessage& msg) {
  switch (msg.type) {
    case ShardMsgType::kForwardConnect: {
      ClientRecord* rec = FindClient(msg.target_id);
      ShardMessage reply;
      reply.type = ShardMsgType::kForwardReply;
      reply.client_id = msg.client_id;
      reply.target_id = msg.target_id;
      reply.nonce = msg.nonce;
      reply.strategy = msg.strategy;
      if (rec != nullptr && rec->udp_registered) {
        reply.found = 1;
        reply.public_ep = rec->udp_public;
        reply.private_ep = rec->udp_private;
        // Introduce the target directly from here: this shard is in the
        // target's ring, so the client accepts the forward as server
        // traffic.
        RendezvousMessage fwd;
        fwd.type = RvMsgType::kConnectForward;
        fwd.client_id = msg.client_id;
        fwd.nonce = msg.nonce;
        fwd.strategy = msg.strategy;
        fwd.public_ep = msg.public_ep;
        fwd.private_ep = msg.private_ep;
        fwd.payload = msg.payload;
        SendUdp(rec->udp_public, fwd);
      } else {
        ++stats_.unknown_targets;
      }
      SendShard(msg.src_shard, reply);
      ++stats_.forward_replies;
      return;
    }
    case ShardMsgType::kForwardReply: {
      // The requester registered with us; relay the answer as a kConnectAck.
      // A found=0 reply is dropped rather than surfaced as kConnectError:
      // the other owner (home or replica) may still answer, and the
      // client's request-retry timer bounds the truly-unknown case.
      if (msg.found == 0) {
        return;
      }
      ClientRecord* rec = FindClient(msg.client_id);
      if (rec == nullptr || !rec->udp_registered) {
        return;  // requester vanished while the lookup was in flight
      }
      RendezvousMessage ack;
      ack.type = RvMsgType::kConnectAck;
      ack.client_id = msg.target_id;
      ack.nonce = msg.nonce;
      ack.strategy = msg.strategy;
      ack.public_ep = msg.public_ep;
      ack.private_ep = msg.private_ep;
      SendUdp(rec->udp_public, ack);
      return;
    }
    case ShardMsgType::kReplicate: {
      ClientRecord& rec = GetOrCreateClient(msg.client_id);
      // A copy never clobbers a live local registration (the client may have
      // re-homed here and registered directly since the copy was sent).
      if (!rec.udp_registered || rec.replica) {
        rec.udp_registered = true;
        rec.replica = true;
        rec.udp_public = msg.public_ep;
        rec.udp_private = msg.private_ep;
      }
      ++stats_.replicas_stored;
      return;
    }
    case ShardMsgType::kForwardRelay: {
      // Relays are forwarded to both owners (home + replica) like connects,
      // but only the shard holding the *authoritative* record delivers —
      // normally the home shard; after a failover, the replica that promoted
      // the record. Delivering from un-promoted replica copies too would
      // hand the application every relayed payload twice.
      ClientRecord* rec = FindClient(msg.target_id);
      if (rec == nullptr || !rec->udp_registered) {
        ++stats_.unknown_targets;
        return;
      }
      if (rec->replica) {
        return;  // suppressed copy, not an unknown target
      }
      RendezvousMessage fwd;
      fwd.type = RvMsgType::kRelayForward;
      fwd.client_id = msg.client_id;
      fwd.nonce = msg.nonce;
      fwd.payload = msg.payload;
      ++stats_.relayed_messages;
      stats_.relayed_bytes += msg.payload.size();
      SendUdp(rec->udp_public, fwd);
      return;
    }
  }
}

bool RendezvousServer::AdmitUdp(const Endpoint& from) {
  if (options_.max_msgs_per_window == 0 && options_.quarantine_threshold == 0) {
    return true;
  }
  SourceState& src = sources_[from];
  const SimTime now = host_->loop().now();
  if (now < src.quarantined_until) {
    ++stats_.quarantined_drops;
    return false;
  }
  if (options_.max_msgs_per_window > 0) {
    if (now - src.window_start >= kRateWindow) {
      src.window_start = now;
      src.msgs_in_window = 0;
    }
    if (++src.msgs_in_window > options_.max_msgs_per_window) {
      ++stats_.rate_limited_drops;
      obs::Inc(metric_rate_limited_);
      return false;
    }
  }
  return true;
}

void RendezvousServer::NoteUdpMalformed(const Endpoint& from) {
  if (options_.quarantine_threshold == 0) {
    return;
  }
  SourceState& src = sources_[from];
  if (++src.malformed >= options_.quarantine_threshold) {
    src.quarantined_until = host_->loop().now() + kQuarantineDuration;
    src.malformed = 0;
    ++stats_.quarantined_sources;
    obs::Inc(metric_quarantined_);
  }
}

void RendezvousServer::OnUdpReceive(const Endpoint& from, const Payload& payload) {
  if (!AdmitUdp(from)) {
    return;
  }
  if (sharded() && !payload.empty() && payload[0] == kShardMagic) {
    HandleShardFrame(from, payload);
    return;
  }
  auto msg = DecodeRendezvousMessage(payload, options_.obfuscate_addresses);
  if (!msg) {
    ++stats_.malformed_frames;
    host_->CountMalformedDrop();
    NoteUdpMalformed(from);
    return;
  }
  HandleMessage(*msg, &from, nullptr);
}

void RendezvousServer::OnTcpAccept(TcpSocket* socket) {
  tcp_peers_.push_back(std::make_unique<TcpPeer>());
  TcpPeer* peer = tcp_peers_.back().get();
  peer->socket = socket;
  // The rendezvous connection doubles as the relay data path (kRelayData
  // carries application chunks), so it gets the data-tier frame cap.
  peer->framer.set_max_frame(MessageFramer::kMaxDataFrame);
  socket->SetDataCallback([this, peer](const Bytes& data) { OnTcpData(peer, data); });
  socket->SetClosedCallback([this, peer](const Status&) {
    // Connection gone; drop the TCP registration but keep any UDP one.
    ClientRecord* rec = FindClient(peer->client_id);
    if (rec != nullptr && rec->tcp == peer) {
      rec->tcp = nullptr;
      if (!rec->udp_registered) {
        clients_.Erase(peer->client_id);
        client_pool_.Delete(rec);
      }
    }
  });
}

void RendezvousServer::OnTcpData(TcpPeer* peer, const Bytes& data) {
  for (const Bytes& body : peer->framer.Append(data)) {
    auto msg = DecodeRendezvousMessage(body, options_.obfuscate_addresses);
    if (!msg) {
      ++stats_.malformed_frames;
      host_->CountMalformedDrop();
      if (options_.quarantine_threshold > 0 &&
          ++peer->malformed >= options_.quarantine_threshold) {
        // A TCP peer is already authenticated by its connection; quarantine
        // means hanging up on it.
        ++stats_.quarantined_sources;
        obs::Inc(metric_quarantined_);
        peer->socket->Abort();
        return;
      }
      continue;
    }
    HandleMessage(*msg, nullptr, peer);
  }
  if (peer->framer.poisoned()) {
    // Oversize length prefix: the stream can never resynchronize. Count it
    // once and drop the connection.
    ++stats_.malformed_frames;
    host_->CountMalformedDrop();
    peer->socket->Abort();
  }
}

void RendezvousServer::HandleMessage(const RendezvousMessage& msg, const Endpoint* via_udp_from,
                                     TcpPeer* peer) {
  switch (msg.type) {
    case RvMsgType::kRegister: {
      ClientRecord& rec = GetOrCreateClient(msg.client_id);
      RendezvousMessage reply;
      reply.type = RvMsgType::kRegisterOk;
      reply.client_id = msg.client_id;
      reply.private_ep = msg.private_ep;
      if (via_udp_from != nullptr) {
        if (sharded() && rec.replica) {
          // A direct registration claiming a replica copy is a failover: the
          // client's home shard died and it walked its ladder to us.
          rec.replica = false;
          ++stats_.replica_promotions;
          obs::Inc(metric_promotions_);
        }
        rec.udp_registered = true;
        rec.udp_public = *via_udp_from;  // observed from the packet header
        rec.udp_private = msg.private_ep;
        ++stats_.udp_registrations;
        obs::Inc(metric_registrations_);
        if (sharded()) {
          ReplicateRecord(msg.client_id, rec);
        }
        reply.public_ep = *via_udp_from;
        SendUdp(*via_udp_from, reply);
      } else {
        peer->client_id = msg.client_id;
        rec.tcp = peer;
        rec.tcp_public = peer->socket->remote_endpoint();  // observed
        rec.tcp_private = msg.private_ep;
        ++stats_.tcp_registrations;
        obs::Inc(metric_registrations_);
        reply.public_ep = rec.tcp_public;
        SendTcp(peer, reply);
      }
      return;
    }
    case RvMsgType::kKeepAlive: {
      // The traffic refreshed the NAT mapping; additionally track the
      // observed endpoint, which can change when the client's NAT reboots
      // or renumbers — later introductions must use the live mapping.
      if (via_udp_from != nullptr) {
        ClientRecord* rec = FindClient(msg.client_id);
        if (rec != nullptr && rec->udp_registered) {
          const bool moved = rec->udp_public != *via_udp_from;
          rec->udp_public = *via_udp_from;
          if (moved && sharded() && !rec->replica) {
            // The NAT renumbered the client: the replica copy is stale until
            // re-sent.
            ReplicateRecord(msg.client_id, *rec);
          }
        }
        // Ack every keepalive, even from clients we no longer know: the
        // epoch stamp is how a client behind a live NAT mapping learns the
        // server restarted and must re-register.
        RendezvousMessage ack;
        ack.type = RvMsgType::kKeepAliveAck;
        ack.client_id = msg.client_id;
        ack.public_ep = *via_udp_from;  // observed endpoint, as a free refresh
        SendUdp(*via_udp_from, ack);
      }
      return;
    }
    case RvMsgType::kConnectRequest: {
      ++stats_.connect_requests;
      ClientRecord* target_rec = FindClient(msg.target_id);
      // A replica copy is not authoritative for a direct lookup: the target
      // has no NAT mapping toward this shard, so a kConnectForward sent from
      // here would be filtered at its NAT. Forward to the home shard, which
      // introduces the target through its live mapping. (Once the target
      // fails over here the record is promoted and becomes authoritative.)
      const bool have_target =
          target_rec != nullptr &&
          (via_udp_from != nullptr ? target_rec->udp_registered && !target_rec->replica
                                   : target_rec->tcp != nullptr);
      if (!have_target && sharded() && via_udp_from != nullptr) {
        // The target is homed on (or failed over to) another shard: forward
        // the lookup over the inter-shard protocol. The kConnectAck comes
        // back through us via kForwardReply — it must, because the client
        // only accepts rendezvous traffic from ring members. TCP lookups
        // stay shard-local (the connection pins the client to one shard).
        ClientRecord* req_rec = FindClient(msg.client_id);
        if (req_rec != nullptr && req_rec->udp_registered) {
          ShardMessage fwd;
          fwd.type = ShardMsgType::kForwardConnect;
          fwd.client_id = msg.client_id;
          fwd.target_id = msg.target_id;
          fwd.nonce = msg.nonce;
          fwd.strategy = msg.strategy;
          fwd.public_ep = req_rec->udp_public;
          fwd.private_ep = req_rec->udp_private;
          fwd.payload = msg.payload;
          if (ForwardToOwners(msg.target_id, fwd) > 0) {
            return;  // answered asynchronously by the owning shard
          }
        }
      }
      if (!have_target) {
        ++stats_.unknown_targets;
        RendezvousMessage err;
        err.type = RvMsgType::kConnectError;
        err.target_id = msg.target_id;
        err.nonce = msg.nonce;
        if (via_udp_from != nullptr) {
          SendUdp(*via_udp_from, err);
        } else {
          SendTcp(peer, err);
        }
        return;
      }
      const ClientRecord& target = *target_rec;
      // Look up the requester's own record to tell the target about it.
      const ClientRecord* req_rec = FindClient(msg.client_id);
      if (req_rec == nullptr) {
        return;
      }
      const ClientRecord& requester = *req_rec;

      RendezvousMessage ack;
      ack.type = RvMsgType::kConnectAck;
      ack.client_id = msg.target_id;
      ack.nonce = msg.nonce;
      ack.strategy = msg.strategy;

      RendezvousMessage fwd;
      fwd.type = RvMsgType::kConnectForward;
      fwd.client_id = msg.client_id;
      fwd.nonce = msg.nonce;
      fwd.strategy = msg.strategy;
      fwd.payload = msg.payload;  // opaque rider (e.g. predicted endpoint)

      if (via_udp_from != nullptr) {
        ack.public_ep = target.udp_public;
        ack.private_ep = target.udp_private;
        fwd.public_ep = requester.udp_public;
        fwd.private_ep = requester.udp_private;
        SendUdp(*via_udp_from, ack);
        SendUdp(target.udp_public, fwd);
      } else {
        ack.public_ep = target.tcp_public;
        ack.private_ep = target.tcp_private;
        fwd.public_ep = requester.tcp_public;
        fwd.private_ep = requester.tcp_private;
        SendTcp(peer, ack);
        SendTcp(target.tcp, fwd);
      }
      return;
    }
    case RvMsgType::kRelayData: {
      ClientRecord* rec = FindClient(msg.target_id);
      if (rec == nullptr) {
        if (sharded() && via_udp_from != nullptr) {
          ShardMessage fwd;
          fwd.type = ShardMsgType::kForwardRelay;
          fwd.client_id = msg.client_id;
          fwd.nonce = msg.nonce;
          fwd.target_id = msg.target_id;
          fwd.payload = msg.payload;
          if (ForwardToOwners(msg.target_id, fwd) > 0) {
            return;
          }
        }
        ++stats_.unknown_targets;
        return;
      }
      RendezvousMessage fwd;
      fwd.type = RvMsgType::kRelayForward;
      fwd.client_id = msg.client_id;
      fwd.nonce = msg.nonce;
      fwd.payload = msg.payload;
      ++stats_.relayed_messages;
      stats_.relayed_bytes += msg.payload.size();
      if (via_udp_from != nullptr && rec->udp_registered) {
        SendUdp(rec->udp_public, fwd);
      } else if (rec->tcp != nullptr) {
        SendTcp(rec->tcp, fwd);
      }
      return;
    }
    case RvMsgType::kSequentialReady: {
      ClientRecord* rec = FindClient(msg.target_id);
      if (rec == nullptr || rec->tcp == nullptr) {
        ++stats_.unknown_targets;
        return;
      }
      RendezvousMessage fwd = msg;
      fwd.client_id = msg.client_id;
      SendTcp(rec->tcp, fwd);
      return;
    }
    default:
      return;  // client-bound message types are ignored by the server
  }
}

}  // namespace natpunch
