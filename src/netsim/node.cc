#include "src/netsim/node.h"

#include "src/netsim/lan.h"
#include "src/netsim/network.h"

namespace natpunch {

Node::Node(Network* network, std::string name) : network_(network), name_(std::move(name)) {
  trace_id_ = network_->trace().Intern(name_);
}

Node::~Node() = default;

int Node::AttachTo(Lan* lan, Ipv4Address ip, int prefix_length) {
  const int index = static_cast<int>(ifaces_.size());
  ifaces_.push_back(Iface{lan, ip});
  lan->Attach(this, index, ip);
  AddRoute(Ipv4Prefix(ip, prefix_length), index);
  return index;
}

void Node::AddRoute(Ipv4Prefix prefix, int iface, std::optional<Ipv4Address> gateway) {
  routes_.push_back(Route{prefix, iface, gateway});
}

void Node::AddDefaultRoute(int iface, Ipv4Address gateway) {
  AddRoute(Ipv4Prefix(Ipv4Address(0), 0), iface, gateway);
}

int Node::RouteLookup(Ipv4Address dst, Ipv4Address* next_hop) const {
  int best = -1;
  int best_len = -1;
  const Route* best_route = nullptr;
  for (const auto& route : routes_) {
    if (route.prefix.length > best_len && route.prefix.Contains(dst)) {
      best = route.iface;
      best_len = route.prefix.length;
      best_route = &route;
    }
  }
  if (best >= 0 && next_hop != nullptr) {
    *next_hop = best_route->gateway.value_or(dst);
  }
  return best;
}

bool Node::OwnsAddress(Ipv4Address a) const {
  for (const auto& iface : ifaces_) {
    if (iface.ip == a) {
      return true;
    }
  }
  return false;
}

bool Node::SendPacket(Packet&& packet) {
  if (packet.id == 0) {
    packet.id = network_->NextPacketId();
  }
  Ipv4Address next_hop;
  const int iface = RouteLookup(packet.dst_ip, &next_hop);
  if (iface < 0) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropNoRoute, packet);
    return false;
  }
  if (packet.src_ip.IsUnspecified()) {
    packet.src_ip = ifaces_[static_cast<size_t>(iface)].ip;
  }
  network_->trace().Record(network_->now(), trace_id_, TraceEvent::kSend, packet);
  ifaces_[static_cast<size_t>(iface)].lan->Transmit(this, next_hop, std::move(packet));
  return true;
}

}  // namespace natpunch
