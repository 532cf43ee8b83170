// Base class for simulated network devices.
//
// A Node owns a set of interfaces, each attached to a Lan with an IPv4
// address, plus a small longest-prefix-match routing table. Hosts, NAT
// boxes, and the rendezvous servers are all Node subclasses; the only
// virtual is HandlePacket, invoked by the Lan when a packet is delivered to
// one of the node's interfaces.

#ifndef SRC_NETSIM_NODE_H_
#define SRC_NETSIM_NODE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/packet.h"
#include "src/netsim/trace.h"

namespace natpunch {

class Lan;
class Network;

class Node {
 public:
  Node(Network* network, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Attach an interface to `lan` with address `ip`; installs the connected
  // (on-link) route for ip/prefix_length. Returns the interface index.
  int AttachTo(Lan* lan, Ipv4Address ip, int prefix_length = 24);

  // Static routes. A route without a gateway treats the destination itself
  // as the on-link next hop.
  void AddRoute(Ipv4Prefix prefix, int iface, std::optional<Ipv4Address> gateway = std::nullopt);
  void AddDefaultRoute(int iface, Ipv4Address gateway);

  // Called by the Lan when a packet is delivered to interface `iface`.
  // Takes the packet by rvalue reference: forwarding devices mutate it in
  // place and re-emit it, so the delivery→translate→transmit chain moves the
  // Packet exactly twice (out of the Network's delivery pool and back in)
  // instead of once per call frame.
  virtual void HandlePacket(int iface, Packet&& packet) = 0;

  // Route `packet` by destination and emit it on the selected interface.
  // Fills in src_ip from the egress interface when unset. Returns false
  // (and records a trace drop) when no route matches.
  bool SendPacket(Packet&& packet);

  // Longest-prefix-match lookup. Returns the interface index and sets
  // *next_hop, or -1 when no route matches.
  int RouteLookup(Ipv4Address dst, Ipv4Address* next_hop) const;

  Ipv4Address iface_ip(int iface) const { return ifaces_[static_cast<size_t>(iface)].ip; }
  Lan* iface_lan(int iface) const { return ifaces_[static_cast<size_t>(iface)].lan; }
  size_t iface_count() const { return ifaces_.size(); }
  bool OwnsAddress(Ipv4Address a) const;

  const std::string& name() const { return name_; }
  // Interned name for allocation-free trace recording.
  TraceNodeId trace_id() const { return trace_id_; }
  Network* network() const { return network_; }

 protected:
  Network* network_;
  std::string name_;
  TraceNodeId trace_id_ = 0;

 private:
  struct Iface {
    Lan* lan;
    Ipv4Address ip;
  };
  struct Route {
    Ipv4Prefix prefix;
    int iface;
    std::optional<Ipv4Address> gateway;
  };

  std::vector<Iface> ifaces_;
  std::vector<Route> routes_;
};

}  // namespace natpunch

#endif  // SRC_NETSIM_NODE_H_
