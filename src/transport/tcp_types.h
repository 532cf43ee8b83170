// Shared TCP types: connection states, the 4-tuple session key (§2.1), and
// modulo-2^32 sequence arithmetic.

#ifndef SRC_TRANSPORT_TCP_TYPES_H_
#define SRC_TRANSPORT_TCP_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/netsim/address.h"
#include "src/netsim/sim_time.h"

namespace natpunch {

// RFC 793 connection states.
enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

std::string_view TcpStateName(TcpState s);

// Which OS-observed behavior a host's TCP exhibits when a SYN arrives whose
// 4-tuple matches an in-progress outbound connect AND a listen socket exists
// on the same local port (paper §4.3).
enum class TcpAcceptPolicy {
  // The SYN is matched to the connecting socket: the application's
  // connect() succeeds; nothing appears on the listen socket. Observed on
  // BSD-derived stacks.
  kBsd,
  // The SYN is handed to the listen socket: accept() yields a new working
  // socket, and the original connect() later fails with EADDRINUSE.
  // Observed on Linux and Windows.
  kLinuxWindows,
};

struct TcpConfig {
  TcpAcceptPolicy accept_policy = TcpAcceptPolicy::kBsd;
  SimDuration initial_rto = Seconds(1);   // RFC 6298 initial retransmission timeout
  SimDuration time_wait = Seconds(10);    // 2*MSL, shortened for simulation
  // Whether this host answers segments for closed ports with RST (real hosts
  // do; disabling models a host-firewall DROP policy).
  bool rst_on_closed_port = true;
};

// A TCP/UDP session from the perspective of one host: (local, remote)
// endpoint pair.
struct FourTuple {
  Endpoint local;
  Endpoint remote;

  constexpr auto operator<=>(const FourTuple&) const = default;
  std::string ToString() const { return local.ToString() + "<->" + remote.ToString(); }
};

struct FourTupleHash {
  size_t operator()(const FourTuple& t) const {
    const EndpointHash h;
    return h(t.local) * 1000003u ^ h(t.remote);
  }
};

// Serial-number arithmetic on 32-bit sequence space.
inline bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
inline bool SeqLe(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }
inline bool SeqGt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) > 0; }
inline bool SeqGe(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) >= 0; }

}  // namespace natpunch

#endif  // SRC_TRANSPORT_TCP_TYPES_H_
