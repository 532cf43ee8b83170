// NatDevice: a NAPT box between one or more private ("inside") LANs and a
// public ("outside") LAN.
//
// Implements outbound translation with configurable mapping behavior,
// inbound de-translation with configurable filtering, the unsolicited-TCP
// response policy, hairpin translation, idle expiry, ICMP error translation
// in both directions, and the §5.3 payload-address-rewriting misbehavior.
// In multi-level deployments (Fig. 6) the "public" side of an inner NAT is
// itself a private realm of the outer NAT; nothing in this class cares.

#ifndef SRC_NAT_NAT_DEVICE_H_
#define SRC_NAT_NAT_DEVICE_H_

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/nat/nat_config.h"
#include "src/nat/nat_table.h"
#include "src/netsim/network.h"
#include "src/netsim/node.h"

namespace natpunch {

class NatDevice : public Node {
 public:
  NatDevice(Network* network, std::string name, NatConfig config);

  // Topology. AttachOutside must be called exactly once.
  int AttachInside(Lan* lan, Ipv4Address ip, int prefix_length = 24);
  int AttachOutside(Lan* lan, Ipv4Address ip, int prefix_length = 24);

  // Route everything non-local out the public interface, optionally via a
  // gateway (used when this NAT sits behind another NAT).
  void SetUpstream(std::optional<Ipv4Address> gateway = std::nullopt);

  void HandlePacket(int iface, Packet&& packet) override;

  const NatConfig& config() const { return config_; }
  NatConfig& mutable_config() { return config_; }
  Ipv4Address public_ip() const { return public_ip_; }

  struct Stats {
    uint64_t translated_out = 0;
    uint64_t translated_in = 0;
    uint64_t hairpinned = 0;
    uint64_t dropped_unsolicited = 0;
    uint64_t rst_rejections = 0;
    uint64_t icmp_rejections = 0;
    uint64_t dropped_no_mapping = 0;
    uint64_t expired_mappings = 0;
    uint64_t payload_rewrites = 0;
    uint64_t reboots = 0;
  };
  const Stats& stats() const { return stats_; }

  // Registry names (when the Network has metrics enabled):
  //   nat.<name>.mappings_created / mappings_expired / filtered_drops /
  //   hairpins / rejections
  // filtered_drops folds the two silent-drop reasons (unsolicited inbound,
  // no mapping); rejections folds the §5.2 bad behaviors (RST + ICMP).

  size_t active_mapping_count() const { return table_.size(); }

  // Failure injection: drop every translation, as a consumer router reboot
  // or a DHCP renumbering would. Established peer-to-peer sessions die
  // until the applications re-punch (§3.6's on-demand recovery).
  void FlushMappings();
  // FlushMappings plus reboot accounting and a kFault trace event; what the
  // chaos engine schedules for NAT reboot / mapping churn faults.
  void Reboot();

 private:
  void HandleOutbound(Packet&& packet);
  void HandleInbound(Packet&& packet);
  void HandleHairpin(Packet&& packet);
  void HandleInboundIcmp(Packet&& packet);
  void HandleOutboundIcmp(Packet&& packet);

  // Basic NAT (§2.1): address-only translation with a public address pool.
  void HandleOutboundBasic(Packet&& packet);
  void HandleInboundBasic(Packet&& packet);
  void HandleHairpinBasic(Packet&& packet);
  // nullopt when the pool is exhausted.
  std::optional<Ipv4Address> AssignBasicAddress(Ipv4Address private_ip);
  bool BasicSessionAllows(Ipv4Address private_ip, const Endpoint& remote) const;
  // Refresh the (private_ip, remote) session and log it in the expiry queue.
  void TouchBasicSession(Ipv4Address private_ip, const Endpoint& remote);
  void ExpireBasicSessions();

  // Inbound lookup by public port with lazy expiry of the hit entry.
  NatTable::Entry* LookupInboundFresh(IpProtocol protocol, uint16_t public_port);
  // Outbound find-or-create (table_.MapOutbound) that counts a newly made
  // mapping. nullptr when the port pool is exhausted.
  NatTable::Entry* MapOutbound(IpProtocol protocol, const Endpoint& private_ep,
                               const Endpoint& remote);
  SimDuration SessionTimeoutFor(const NatTable::Entry& entry) const;
  bool EntryExpired(const NatTable::Entry& entry) const;
  NatTable::Timeouts CurrentTimeouts() const;

  void TrackTcpOutbound(NatTable::Entry* entry, const Packet& packet);
  void TrackTcpInbound(NatTable::Entry* entry, const Packet& packet);

  // Respond to an unsolicited inbound TCP SYN per policy; returns true if a
  // response (RST/ICMP) was sent.
  void RejectUnsolicitedTcp(const Packet& packet);

  // §5.3: rewrite 4-byte payload substrings equal to `from` into `to`.
  void RewritePayloadAddress(Packet* packet, Ipv4Address from, Ipv4Address to);

  void ScheduleSweep();
  void SweepTick();

  // Single increment points for Stats fields that also mirror into the
  // metrics registry; every stat site goes through these.
  void CountMappingCreated() {
    obs::Inc(metric_mappings_created_);
  }
  void CountExpired(uint64_t n) {
    stats_.expired_mappings += n;
    obs::Inc(metric_mappings_expired_, n);
  }
  void CountDropUnsolicited() {
    ++stats_.dropped_unsolicited;
    obs::Inc(metric_filtered_);
  }
  void CountDropNoMapping() {
    ++stats_.dropped_no_mapping;
    obs::Inc(metric_filtered_);
  }
  void CountHairpin() {
    ++stats_.hairpinned;
    obs::Inc(metric_hairpins_);
  }
  void CountRejection(uint64_t& stat) {
    ++stat;
    obs::Inc(metric_rejections_);
  }

  NatConfig config_;
  NatTable table_;
  Ipv4Address public_ip_;
  int outside_iface_ = -1;
  // Periodic mapping-expiry sweep; intrusive so 100k+ NAT devices in the
  // swarm bench cost no allocation per sweep round.
  TimerHandle sweep_timer_;
  Stats stats_;

  // Null when the owning Network has no metrics registry.
  obs::Counter* metric_mappings_created_ = nullptr;
  obs::Counter* metric_mappings_expired_ = nullptr;
  obs::Counter* metric_filtered_ = nullptr;
  obs::Counter* metric_hairpins_ = nullptr;
  obs::Counter* metric_rejections_ = nullptr;

  // Basic NAT state: 1:1 address bindings plus per-host session activity
  // (for filtering and idle reclamation; idle timing uses udp_timeout for
  // both transports — Basic NAT has no per-port state to be cleverer with).
  std::map<Ipv4Address, Ipv4Address> basic_out_;  // private -> public
  std::map<Ipv4Address, Ipv4Address> basic_in_;   // public -> private
  std::map<Ipv4Address, std::map<Endpoint, SimTime>> basic_sessions_;  // by private ip
  // Lazy expiry queue over basic sessions: every refresh logs a node; the
  // sweep pops stale nodes and consults basic_sessions_ (authoritative) so
  // it only ever touches O(expired + superseded) nodes, never the whole
  // session population.
  std::multimap<SimTime, std::pair<Ipv4Address, Endpoint>> basic_lru_;
};

}  // namespace natpunch

#endif  // SRC_NAT_NAT_DEVICE_H_
