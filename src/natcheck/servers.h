// The three NAT Check servers (§6.1, Fig. 8).
//
//   server 1: answers UDP pings and TCP hellos with the observed endpoint.
//   server 2: same, plus forwards UDP pings to server 3 and, for TCP,
//             delays its reply until server 3 reports a verdict on its
//             unsolicited inbound connection attempt.
//   server 3: probes clients — an unsolicited UDP datagram for the filter
//             test, and an unsolicited TCP connect for the §5.2 test. Per
//             the paper it waits up to five seconds before giving server 2
//             the go-ahead, then keeps the attempt alive for 20 more.

#ifndef SRC_NATCHECK_SERVERS_H_
#define SRC_NATCHECK_SERVERS_H_

#include <map>
#include <memory>

#include "src/natcheck/messages.h"
#include "src/rendezvous/messages.h"
#include "src/transport/host.h"

namespace natpunch {

struct NatCheckServerConfig {
  uint16_t port = 1234;  // UDP and TCP, on every server
};

class NatCheckServers {
 public:
  NatCheckServers(Host* server1, Host* server2, Host* server3,
                  NatCheckServerConfig config = NatCheckServerConfig{});

  Status Start();

  Endpoint udp_endpoint(int index) const;  // index 1..3
  Endpoint tcp_endpoint(int index) const;

  struct Stats {
    uint64_t udp_pings = 0;
    uint64_t udp_probes_sent = 0;
    uint64_t tcp_hellos = 0;
    uint64_t tcp_probe_connected = 0;
    uint64_t tcp_probe_refused = 0;
    uint64_t tcp_probe_in_progress = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct TcpConn {
    TcpSocket* socket = nullptr;
    MessageFramer framer;
    int server_index = 0;
    uint64_t session = 0;
    EventLoop::EventId verdict_timer = EventLoop::kInvalidEventId;
    bool replied = false;
  };

  void StartUdp(Host* host, int index);
  void StartTcp(Host* host, int index);
  void OnUdp(int index, const Endpoint& from, const Payload& payload);
  void OnTcpMessage(TcpConn* conn, const NcMessage& msg);
  void Server3UdpControl(const NcMessage& msg);
  void Server3TcpProbe(uint64_t session, const Endpoint& client);
  void SendVerdict(uint64_t session, NcProbeVerdict verdict);
  void ReplyTcp(TcpConn* conn, NcProbeVerdict verdict);

  Host* hosts_[3];
  NatCheckServerConfig config_;
  UdpSocket* udp_[3] = {nullptr, nullptr, nullptr};
  std::vector<std::unique_ptr<TcpConn>> tcp_conns_;
  // server 2: sessions waiting for server 3's go-ahead.
  std::map<uint64_t, TcpConn*> waiting_go_ahead_;
  Stats stats_;
};

}  // namespace natpunch

#endif  // SRC_NATCHECK_SERVERS_H_
