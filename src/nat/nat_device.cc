#include "src/nat/nat_device.h"

#include "src/util/logging.h"

namespace natpunch {

namespace {
constexpr SimDuration kSweepInterval = Seconds(5);
}  // namespace

NatDevice::NatDevice(Network* network, std::string name, NatConfig config)
    : Node(network, std::move(name)),
      config_(config),
      table_(config.mapping, config.port_allocation, config.port_base, network->rng().Fork(),
             config.symmetric_on_port_contention) {
  if (obs::MetricsRegistry* reg = network->metrics()) {
    char name[96];
    const auto metric = [&](const char* suffix) {
      const int n = std::snprintf(name, sizeof(name), "nat.%s.%s", name_.c_str(), suffix);
      return reg->GetCounter(std::string_view(name, static_cast<size_t>(n)));
    };
    metric_mappings_created_ = metric("mappings_created");
    metric_mappings_expired_ = metric("mappings_expired");
    metric_filtered_ = metric("filtered_drops");
    metric_hairpins_ = metric("hairpins");
    metric_rejections_ = metric("rejections");
  }
  ScheduleSweep();
}

void NatDevice::ScheduleSweep() {
  sweep_timer_.Bind<&NatDevice::SweepTick>(this);
  network_->event_loop().ScheduleTimerAfter(kSweepInterval, &sweep_timer_);
}

void NatDevice::SweepTick() {
  CountExpired(table_.Expire(network_->now(), CurrentTimeouts()));
  if (config_.basic_nat) {
    ExpireBasicSessions();
  }
  ScheduleSweep();
}

NatTable::Timeouts NatDevice::CurrentTimeouts() const {
  return NatTable::Timeouts{config_.udp_timeout, config_.tcp_established_timeout,
                            config_.tcp_transitory_timeout};
}

SimDuration NatDevice::SessionTimeoutFor(const NatTable::Entry& entry) const {
  if (entry.protocol == IpProtocol::kTcp) {
    return (entry.tcp_established && !entry.tcp_closing) ? config_.tcp_established_timeout
                                                         : config_.tcp_transitory_timeout;
  }
  return config_.udp_timeout;
}

bool NatDevice::EntryExpired(const NatTable::Entry& entry) const {
  return network_->now() - entry.NewestActivity() >= SessionTimeoutFor(entry);
}

NatTable::Entry* NatDevice::LookupInboundFresh(IpProtocol protocol, uint16_t public_port) {
  NatTable::Entry* entry = table_.FindByPublicPort(protocol, public_port);
  if (entry != nullptr && EntryExpired(*entry)) {
    // The stale hit still triggers a sweep (now O(expired), and this entry
    // is by definition among the expired), preserving the exact port-free
    // timing of the old full-scan path.
    CountExpired(table_.Expire(network_->now(), CurrentTimeouts()));
    return nullptr;
  }
  return entry;
}

NatTable::Entry* NatDevice::MapOutbound(IpProtocol protocol, const Endpoint& private_ep,
                                        const Endpoint& remote) {
  const size_t mappings_before = table_.size();
  NatTable::Entry* entry = table_.MapOutbound(protocol, private_ep, remote, network_->now());
  if (table_.size() > mappings_before) {
    CountMappingCreated();
  }
  return entry;
}

int NatDevice::AttachInside(Lan* lan, Ipv4Address ip, int prefix_length) {
  return AttachTo(lan, ip, prefix_length);
}

int NatDevice::AttachOutside(Lan* lan, Ipv4Address ip, int prefix_length) {
  outside_iface_ = AttachTo(lan, ip, prefix_length);
  public_ip_ = ip;
  if (config_.basic_nat) {
    // Claim the address pool on the public segment so inbound traffic to
    // any pool address is delivered to us.
    for (int i = 1; i <= config_.basic_pool_size; ++i) {
      lan->Attach(this, outside_iface_, Ipv4Address(ip.bits() + static_cast<uint32_t>(i)));
    }
  }
  return outside_iface_;
}

void NatDevice::SetUpstream(std::optional<Ipv4Address> gateway) {
  AddRoute(Ipv4Prefix(Ipv4Address(0), 0), outside_iface_, gateway);
}

void NatDevice::FlushMappings() {
  CountExpired(table_.size());
  table_.Clear();
  basic_out_.clear();
  basic_in_.clear();
  basic_sessions_.clear();
  basic_lru_.clear();
}

void NatDevice::Reboot() {
  ++stats_.reboots;
  network_->trace().RecordEvent(network_->now(), trace_id_, TraceEvent::kFault, "nat reboot");
  FlushMappings();
}

void NatDevice::HandlePacket(int iface, Packet&& packet) {
  if (iface == outside_iface_) {
    if (config_.basic_nat && basic_in_.count(packet.dst_ip) != 0) {
      HandleInboundBasic(std::move(packet));
      return;
    }
    if (packet.dst_ip != public_ip_) {
      return;  // not addressed to one of our translated endpoints
    }
    HandleInbound(std::move(packet));
    return;
  }
  // From a private interface.
  if (config_.basic_nat) {
    if (basic_in_.count(packet.dst_ip) != 0) {
      HandleHairpinBasic(std::move(packet));
      return;
    }
    if (OwnsAddress(packet.dst_ip) || packet.dst_ip == public_ip_) {
      return;
    }
    HandleOutboundBasic(std::move(packet));
    return;
  }
  if (packet.dst_ip == public_ip_) {
    HandleHairpin(std::move(packet));
    return;
  }
  if (OwnsAddress(packet.dst_ip)) {
    return;  // addressed to the NAT's private-side interface itself
  }
  HandleOutbound(std::move(packet));
}

void NatDevice::TrackTcpOutbound(NatTable::Entry* entry, const Packet& packet) {
  if (packet.protocol != IpProtocol::kTcp) {
    return;
  }
  if (packet.tcp.syn && !packet.tcp.ack) {
    // Fresh (or restarted) connection attempt through this mapping.
    entry->tcp_closing = false;
    entry->tcp_established = false;
  }
  if (packet.tcp.rst || packet.tcp.fin) {
    entry->tcp_closing = true;
  }
  if (packet.tcp.ack && entry->tcp_inbound_seen && !entry->tcp_closing) {
    entry->tcp_established = true;
  }
  table_.Reclassify(entry);
}

void NatDevice::TrackTcpInbound(NatTable::Entry* entry, const Packet& packet) {
  if (packet.protocol != IpProtocol::kTcp) {
    return;
  }
  entry->tcp_inbound_seen = true;
  if (packet.tcp.rst || packet.tcp.fin) {
    entry->tcp_closing = true;
  }
  table_.Reclassify(entry);
}

void NatDevice::RewritePayloadAddress(Packet* packet, Ipv4Address from, Ipv4Address to) {
  if (packet->payload.size() < 4) {
    return;
  }
  const uint32_t needle = from.bits();
  const uint32_t replacement = to.bits();
  for (size_t i = 0; i + 4 <= packet->payload.size(); ++i) {
    const uint32_t value = static_cast<uint32_t>(packet->payload[i]) << 24 |
                           static_cast<uint32_t>(packet->payload[i + 1]) << 16 |
                           static_cast<uint32_t>(packet->payload[i + 2]) << 8 |
                           static_cast<uint32_t>(packet->payload[i + 3]);
    if (value == needle) {
      packet->payload[i] = static_cast<uint8_t>(replacement >> 24);
      packet->payload[i + 1] = static_cast<uint8_t>(replacement >> 16);
      packet->payload[i + 2] = static_cast<uint8_t>(replacement >> 8);
      packet->payload[i + 3] = static_cast<uint8_t>(replacement);
      ++stats_.payload_rewrites;
      if (network_->trace().enabled()) {
        network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatPayloadRewrite,
                                 *packet, Detail(from, "->", to));
      }
      i += 3;
    }
  }
}

void NatDevice::HandleOutbound(Packet&& packet) {
  if (--packet.ttl <= 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropTtl, packet);
    return;
  }
  if (packet.protocol == IpProtocol::kIcmp) {
    HandleOutboundIcmp(std::move(packet));
    return;
  }
  const Endpoint private_ep = packet.src();
  NatTable::Entry* entry = MapOutbound(packet.protocol, private_ep, packet.dst());
  if (entry == nullptr) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropNoRoute, packet,
                             "port pool exhausted");
    return;
  }
  TrackTcpOutbound(entry, packet);
  if (config_.rewrite_payload_addresses) {
    RewritePayloadAddress(&packet, private_ep.ip, public_ip_);
  }
  packet.set_src(Endpoint(public_ip_, entry->public_port));
  ++stats_.translated_out;
  // Guarded so the (allocation-free but snprintf-heavy) detail formatting is
  // skipped entirely when tracing is off — this is the NAT's hottest line.
  if (network_->trace().enabled()) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatTranslateOut, packet,
                             Detail(private_ep, "=>", packet.src()));
  }
  SendPacket(std::move(packet));
}

void NatDevice::RejectUnsolicitedTcp(const Packet& packet) {
  switch (config_.unsolicited_tcp) {
    case NatUnsolicitedTcp::kDrop:
      CountDropUnsolicited();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropUnsolicited, packet);
      return;
    case NatUnsolicitedTcp::kRst: {
      CountRejection(stats_.rst_rejections);
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatRejectRst, packet);
      Packet rst;
      rst.protocol = IpProtocol::kTcp;
      rst.set_src(packet.dst());
      rst.set_dst(packet.src());
      rst.tcp.rst = true;
      rst.tcp.ack = true;
      rst.tcp.seq = 0;
      rst.tcp.ack_seq = packet.tcp.seq + (packet.tcp.syn ? 1 : 0) +
                        static_cast<uint32_t>(packet.payload.size());
      SendPacket(std::move(rst));
      return;
    }
    case NatUnsolicitedTcp::kIcmp: {
      CountRejection(stats_.icmp_rejections);
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatRejectIcmp, packet);
      Packet icmp;
      icmp.protocol = IpProtocol::kIcmp;
      icmp.icmp.type = IcmpType::kDestinationUnreachable;
      icmp.icmp.code = 13;  // administratively prohibited
      icmp.icmp.original_protocol = IpProtocol::kTcp;
      icmp.icmp.original_src = packet.src();
      icmp.icmp.original_dst = packet.dst();
      icmp.set_dst(Endpoint(packet.src_ip, 0));
      icmp.src_ip = public_ip_;
      SendPacket(std::move(icmp));
      return;
    }
  }
}

void NatDevice::HandleInbound(Packet&& packet) {
  if (--packet.ttl <= 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropTtl, packet);
    return;
  }
  if (packet.protocol == IpProtocol::kIcmp) {
    HandleInboundIcmp(std::move(packet));
    return;
  }
  NatTable::Entry* entry = LookupInboundFresh(packet.protocol, packet.dst_port);
  if (entry == nullptr) {
    if (packet.protocol == IpProtocol::kTcp && packet.tcp.syn && !packet.tcp.ack) {
      RejectUnsolicitedTcp(packet);
    } else {
      CountDropNoMapping();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropNoMapping, packet);
    }
    return;
  }
  if (!table_.AllowsInbound(*entry, config_.filtering, packet.src(), network_->now(),
                            SessionTimeoutFor(*entry))) {
    if (packet.protocol == IpProtocol::kTcp && packet.tcp.syn && !packet.tcp.ack) {
      RejectUnsolicitedTcp(packet);
    } else {
      CountDropUnsolicited();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropUnsolicited, packet);
    }
    return;
  }
  if (config_.refresh_on_inbound) {
    table_.Touch(entry, packet.src(), network_->now());
  }
  TrackTcpInbound(entry, packet);
  if (config_.rewrite_payload_addresses) {
    RewritePayloadAddress(&packet, public_ip_, entry->private_ep.ip);
  }
  packet.set_dst(entry->private_ep);
  ++stats_.translated_in;
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatTranslateIn, packet);
  SendPacket(std::move(packet));
}

void NatDevice::HandleHairpin(Packet&& packet) {
  if (--packet.ttl <= 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropTtl, packet);
    return;
  }
  const bool supported = packet.protocol == IpProtocol::kUdp   ? config_.hairpin_udp
                         : packet.protocol == IpProtocol::kTcp ? config_.hairpin_tcp
                                                               : false;
  if (!supported) {
    CountDropNoMapping();
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropNoMapping, packet,
                             "hairpin unsupported");
    return;
  }
  NatTable::Entry* target = LookupInboundFresh(packet.protocol, packet.dst_port);
  if (target == nullptr) {
    if (packet.protocol == IpProtocol::kTcp && packet.tcp.syn && !packet.tcp.ack) {
      RejectUnsolicitedTcp(packet);
    } else {
      CountDropNoMapping();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropNoMapping, packet,
                               "hairpin: no mapping");
    }
    return;
  }
  // Translate the source exactly as an outbound packet would be (a
  // well-behaved hairpin per §3.5: the receiver sees the sender's public
  // endpoint).
  NatTable::Entry* source = MapOutbound(packet.protocol, packet.src(), packet.dst());
  if (source == nullptr) {
    return;
  }
  TrackTcpOutbound(source, packet);
  const Endpoint translated_src(public_ip_, source->public_port);
  if (config_.hairpin_filtered &&
      !table_.AllowsInbound(*target, config_.filtering, translated_src, network_->now(),
                            SessionTimeoutFor(*target))) {
    // §6.3: some NATs treat traffic at their public ports as untrusted even
    // when it originates inside.
    if (packet.protocol == IpProtocol::kTcp && packet.tcp.syn && !packet.tcp.ack) {
      RejectUnsolicitedTcp(packet);
    } else {
      CountDropUnsolicited();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropUnsolicited, packet,
                               "hairpin filtered");
    }
    return;
  }
  table_.Touch(target, translated_src, network_->now());
  TrackTcpInbound(target, packet);
  packet.set_src(translated_src);
  packet.set_dst(target->private_ep);
  CountHairpin();
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatHairpin, packet);
  SendPacket(std::move(packet));
}

// ---------------------------------------------------------------------------
// Basic NAT (§2.1): IP-address-only translation
// ---------------------------------------------------------------------------

std::optional<Ipv4Address> NatDevice::AssignBasicAddress(Ipv4Address private_ip) {
  auto it = basic_out_.find(private_ip);
  if (it != basic_out_.end()) {
    return it->second;
  }
  for (int i = 1; i <= config_.basic_pool_size; ++i) {
    const Ipv4Address candidate(public_ip_.bits() + static_cast<uint32_t>(i));
    if (basic_in_.count(candidate) == 0) {
      basic_out_[private_ip] = candidate;
      basic_in_[candidate] = private_ip;
      return candidate;
    }
  }
  return std::nullopt;  // pool exhausted
}

bool NatDevice::BasicSessionAllows(Ipv4Address private_ip, const Endpoint& remote) const {
  if (config_.filtering == NatFiltering::kEndpointIndependent) {
    return true;
  }
  auto host_it = basic_sessions_.find(private_ip);
  if (host_it == basic_sessions_.end()) {
    return false;
  }
  const SimTime now = network_->now();
  for (const auto& [ep, last] : host_it->second) {
    if (now - last >= config_.udp_timeout) {
      continue;
    }
    if (config_.filtering == NatFiltering::kAddressDependent ? ep.ip == remote.ip
                                                             : ep == remote) {
      return true;
    }
  }
  return false;
}

void NatDevice::TouchBasicSession(Ipv4Address private_ip, const Endpoint& remote) {
  const SimTime now = network_->now();
  basic_sessions_[private_ip][remote] = now;
  basic_lru_.emplace(now, std::make_pair(private_ip, remote));
}

void NatDevice::ExpireBasicSessions() {
  // Pop queue nodes until the head is fresh — O(expired + superseded), not
  // O(sessions). A node whose authoritative session time moved forward is a
  // superseded duplicate (the session was refreshed after this node was
  // logged) and is skipped; the refresh logged a newer node.
  const SimTime now = network_->now();
  while (!basic_lru_.empty() && now - basic_lru_.begin()->first >= config_.udp_timeout) {
    const auto [private_ip, remote] = basic_lru_.begin()->second;
    basic_lru_.erase(basic_lru_.begin());
    auto host = basic_sessions_.find(private_ip);
    if (host == basic_sessions_.end()) {
      continue;
    }
    auto session = host->second.find(remote);
    if (session == host->second.end() || now - session->second < config_.udp_timeout) {
      continue;
    }
    host->second.erase(session);
    if (host->second.empty()) {
      // Reclaim the public address once the host goes fully idle.
      auto binding = basic_out_.find(host->first);
      if (binding != basic_out_.end()) {
        basic_in_.erase(binding->second);
        basic_out_.erase(binding);
        CountExpired(1);
      }
      basic_sessions_.erase(host);
    }
  }
}

void NatDevice::HandleOutboundBasic(Packet&& packet) {
  if (--packet.ttl <= 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropTtl, packet);
    return;
  }
  if (packet.protocol == IpProtocol::kIcmp) {
    HandleOutboundIcmp(std::move(packet));
    return;
  }
  auto assigned = AssignBasicAddress(packet.src_ip);
  if (!assigned.has_value()) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropNoRoute, packet,
                             "basic NAT pool exhausted");
    return;
  }
  TouchBasicSession(packet.src_ip, packet.dst());
  packet.src_ip = *assigned;  // port untouched — the defining Basic NAT property
  ++stats_.translated_out;
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatTranslateOut, packet,
                           "basic");
  SendPacket(std::move(packet));
}

void NatDevice::HandleInboundBasic(Packet&& packet) {
  if (--packet.ttl <= 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropTtl, packet);
    return;
  }
  const Ipv4Address private_ip = basic_in_.at(packet.dst_ip);
  if (packet.protocol == IpProtocol::kIcmp) {
    packet.icmp.original_src = Endpoint(private_ip, packet.icmp.original_src.port);
    packet.dst_ip = private_ip;
    SendPacket(std::move(packet));
    return;
  }
  if (!BasicSessionAllows(private_ip, packet.src())) {
    if (packet.protocol == IpProtocol::kTcp && packet.tcp.syn && !packet.tcp.ack) {
      RejectUnsolicitedTcp(packet);
    } else {
      CountDropUnsolicited();
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropUnsolicited, packet,
                               "basic");
    }
    return;
  }
  if (config_.refresh_on_inbound) {
    TouchBasicSession(private_ip, packet.src());
  }
  packet.dst_ip = private_ip;
  ++stats_.translated_in;
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatTranslateIn, packet,
                           "basic");
  SendPacket(std::move(packet));
}

void NatDevice::HandleHairpinBasic(Packet&& packet) {
  if (--packet.ttl <= 0) {
    return;
  }
  const bool supported = packet.protocol == IpProtocol::kUdp   ? config_.hairpin_udp
                         : packet.protocol == IpProtocol::kTcp ? config_.hairpin_tcp
                                                               : false;
  if (!supported) {
    CountDropNoMapping();
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropNoMapping, packet,
                             "basic hairpin unsupported");
    return;
  }
  auto assigned = AssignBasicAddress(packet.src_ip);
  if (!assigned.has_value()) {
    return;
  }
  const Ipv4Address target = basic_in_.at(packet.dst_ip);
  TouchBasicSession(packet.src_ip, packet.dst());
  if (config_.hairpin_filtered &&
      !BasicSessionAllows(target, Endpoint(*assigned, packet.src_port))) {
    CountDropUnsolicited();
    return;
  }
  TouchBasicSession(target, Endpoint(*assigned, packet.src_port));
  packet.src_ip = *assigned;
  packet.dst_ip = target;
  CountHairpin();
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatHairpin, packet, "basic");
  SendPacket(std::move(packet));
}

void NatDevice::HandleInboundIcmp(Packet&& packet) {
  // The quoted original packet was sent by an inside host through one of our
  // mappings: original_src is the mapping's public endpoint.
  if (packet.icmp.original_src.ip != public_ip_) {
    return;
  }
  NatTable::Entry* entry =
      LookupInboundFresh(packet.icmp.original_protocol, packet.icmp.original_src.port);
  if (entry == nullptr) {
    CountDropNoMapping();
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatDropNoMapping, packet,
                             "icmp: no mapping");
    return;
  }
  packet.icmp.original_src = entry->private_ep;
  packet.set_dst(Endpoint(entry->private_ep.ip, 0));
  ++stats_.translated_in;
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kNatTranslateIn, packet, "icmp");
  SendPacket(std::move(packet));
}

void NatDevice::HandleOutboundIcmp(Packet&& packet) {
  // An inside host is reporting an error about a packet it received. The
  // quoted original_dst is the inside host's private endpoint; the outside
  // world knows that endpoint by its public mapping, so translate the
  // quotation on the way out (otherwise the remote can't match the error to
  // a session).
  NatTable::Entry* entry =
      table_.FindByPrivateEndpoint(packet.icmp.original_protocol, packet.icmp.original_dst);
  if (entry != nullptr) {
    packet.icmp.original_dst = Endpoint(public_ip_, entry->public_port);
  }
  packet.src_ip = public_ip_;
  ++stats_.translated_out;
  SendPacket(std::move(packet));
}

}  // namespace natpunch
