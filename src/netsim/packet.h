// The simulator's packet model.
//
// One Packet struct covers UDP datagrams, TCP segments, and the ICMP error
// reports some NATs send in response to unsolicited SYNs (§5.2). The TCP
// header carries just the fields the RFC 793 state machine needs; options,
// checksums, and fragmentation are out of scope because no experiment in the
// paper depends on them.

#ifndef SRC_NETSIM_PACKET_H_
#define SRC_NETSIM_PACKET_H_

#include <cstdint>
#include <string>

#include "src/netsim/address.h"
#include "src/netsim/payload.h"
#include "src/util/bytes.h"

namespace natpunch {

enum class IpProtocol : uint8_t {
  kUdp = 17,
  kTcp = 6,
  kIcmp = 1,
};

std::string_view IpProtocolName(IpProtocol p);

struct TcpHeader {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  uint32_t seq = 0;
  uint32_t ack_seq = 0;
  uint32_t window = 0;

  std::string FlagsString() const;
};

enum class IcmpType : uint8_t {
  kDestinationUnreachable = 3,
};

// ICMP error payloads embed enough of the original packet to let the sender
// match the error to a session, mirroring the real ICMP quotation rule.
struct IcmpHeader {
  IcmpType type = IcmpType::kDestinationUnreachable;
  uint8_t code = 0;  // 3 = port unreachable, 13 = administratively prohibited
  IpProtocol original_protocol = IpProtocol::kUdp;
  Endpoint original_src;
  Endpoint original_dst;
};

// Field order is deliberate: the fixed-size header fields pack ahead of the
// 72-byte payload so the whole struct lands on 136 bytes — every in-flight
// packet sits in a slot of its Network's delivery pool, so swarm-scale
// bursts multiply this size by tens of thousands.
struct Packet {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  IpProtocol protocol = IpProtocol::kUdp;
  TcpHeader tcp;    // meaningful iff protocol == kTcp
  IcmpHeader icmp;  // meaningful iff protocol == kIcmp
  int ttl = 64;
  uint64_t id = 0;  // unique per packet, assigned by Network, for tracing
  Payload payload;  // small-buffer optimized: no heap for messages <= 64 bytes

  Endpoint src() const { return Endpoint(src_ip, src_port); }
  Endpoint dst() const { return Endpoint(dst_ip, dst_port); }
  void set_src(Endpoint e) {
    src_ip = e.ip;
    src_port = e.port;
  }
  void set_dst(Endpoint e) {
    dst_ip = e.ip;
    dst_port = e.port;
  }

  // Total size in bytes as a real packet would be (IP + transport headers +
  // payload); used by benchmarks that account bandwidth.
  size_t WireSize() const;

  std::string Summary() const;
};

static_assert(sizeof(Packet) <= 136, "Packet footprint budget; see DESIGN.md Memory footprint");

}  // namespace natpunch

#endif  // SRC_NETSIM_PACKET_H_
