// NatCheckClient: the client side of the §6.1 test method.
//
// Runs, in order: the UDP consistency/filter test against servers 1 and 2,
// the UDP hairpin probe from a second socket, the TCP consistency test, the
// staged simultaneous open with server 3, and the TCP hairpin probe. All
// verdicts are derived from what the *client* can observe, like the real
// tool (the servers' stats are only used by tests for corroboration).

#ifndef SRC_NATCHECK_CLIENT_H_
#define SRC_NATCHECK_CLIENT_H_

#include <functional>
#include <memory>

#include "src/natcheck/messages.h"
#include "src/natcheck/report.h"
#include "src/rendezvous/messages.h"
#include "src/transport/host.h"

namespace natpunch {

struct NatCheckClientConfig {
  // Later NAT Check versions added these (§6.2 explains the differing
  // denominators in Table 1); the fleet harness toggles them per report.
  bool test_udp_hairpin = true;
  bool test_tcp = true;
  bool test_tcp_hairpin = true;
};

struct NatCheckServerAddrs {
  Endpoint udp1;
  Endpoint udp2;
  Endpoint tcp1;
  Endpoint tcp2;
  Endpoint tcp3;
};

class NatCheckClient {
 public:
  NatCheckClient(Host* host, NatCheckServerAddrs servers,
                 NatCheckClientConfig config = NatCheckClientConfig{});

  // Run the full check from `local_port` (used for both the UDP socket and
  // the TCP listen/connect port). One run per client instance.
  void Run(uint16_t local_port, std::function<void(Result<NatCheckReport>)> cb);

 private:
  struct AcceptedConn {
    TcpSocket* socket = nullptr;
    MessageFramer framer;
  };

  void OnUdpReceive(const Endpoint& from, const Payload& payload);
  void SendUdpPing(int server_index);
  void StartUdpHairpin();
  void StartTcpPhase();
  void TcpHelloTo(int server_index);
  void OnTcpReply(const NcMessage& msg);
  void StartServer3Connect();
  void StartTcpHairpin();
  void Finish();
  void Fail(const Status& status);

  Host* host_;
  NatCheckServerAddrs servers_;
  NatCheckClientConfig config_;
  uint16_t local_port_ = 0;
  uint64_t session_ = 0;
  std::function<void(Result<NatCheckReport>)> cb_;
  NatCheckReport report_;
  bool done_ = false;

  // UDP state.
  UdpSocket* udp_socket_ = nullptr;
  UdpSocket* udp_hairpin_socket_ = nullptr;
  int udp_phase_ = 0;  // 1 = pinging s1, 2 = pinging s2
  int udp_attempts_ = 0;
  EventLoop::EventId udp_timer_ = EventLoop::kInvalidEventId;
  EventLoop::EventId deadline_timer_ = EventLoop::kInvalidEventId;

  // TCP state.
  TcpSocket* tcp_listener_ = nullptr;
  TcpSocket* tcp_conn_[2] = {nullptr, nullptr};  // to servers 1 and 2
  MessageFramer tcp_framer_[2];
  TcpSocket* tcp_hairpin_socket_ = nullptr;
  MessageFramer tcp_hairpin_framer_;
  std::vector<std::unique_ptr<AcceptedConn>> accepted_;
};

}  // namespace natpunch

#endif  // SRC_NATCHECK_CLIENT_H_
