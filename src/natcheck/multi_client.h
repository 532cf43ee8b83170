// The multi-client NAT Check extension the paper planned (§6.3):
//
//   "NAT implementations exist that consistently translate the client's
//    private endpoint as long as only one client behind the NAT is using a
//    particular private port number, but switch to symmetric NAT or even
//    worse behaviors if two or more clients ... communicate through the NAT
//    from the same private port number. NAT Check could only detect this
//    behavior by requiring the user to run it on two or more client hosts
//    behind the NAT at the same time. ... we plan to implement this testing
//    functionality as an option in a future version."
//
// This is that option: client 1 runs the UDP consistency test alone, then
// client 2 (same private port, different host) joins, then client 1
// re-tests under contention. A contention-switching NAT is consistent solo
// and inconsistent contended — invisible to the single-client tool.

#ifndef SRC_NATCHECK_MULTI_CLIENT_H_
#define SRC_NATCHECK_MULTI_CLIENT_H_

#include <functional>
#include <memory>

#include "src/natcheck/messages.h"
#include "src/transport/host.h"
#include "src/util/result.h"

namespace natpunch {

struct MultiClientReport {
  // Phase 1: client 1 alone.
  bool solo_consistent = false;
  Endpoint solo_public;
  // Phase 2: client 2 from the same private port on another host.
  bool client2_consistent = false;
  // Phase 3: client 1 again, now under port contention.
  bool contended_consistent = false;
  Endpoint contended_public_1;
  Endpoint contended_public_2;

  // The §6.3 misbehavior signature.
  bool SwitchesUnderContention() const { return solo_consistent && !contended_consistent; }
  std::string ToString() const;
};

class MultiClientNatCheck {
 public:
  // client1/client2: two hosts behind the NAT under test; udp1/udp2: the
  // NAT Check servers' UDP endpoints.
  MultiClientNatCheck(Host* client1, Host* client2, Endpoint udp1, Endpoint udp2);

  void Run(std::function<void(Result<MultiClientReport>)> cb);

 private:
  struct Probe;

  // Ping server1 then server2 from `socket`; yields (e1, e2) or an error.
  void ConsistencyProbe(UdpSocket* socket,
                        std::function<void(Result<std::pair<Endpoint, Endpoint>>)> cb);
  void SendStage(const std::shared_ptr<Probe>& probe);
  void Advance();

  Host* client1_;
  Host* client2_;
  Endpoint udp1_;
  Endpoint udp2_;
  std::function<void(Result<MultiClientReport>)> cb_;
  MultiClientReport report_;
  int phase_ = 0;
  UdpSocket* socket1_ = nullptr;
  UdpSocket* socket2_ = nullptr;
  std::shared_ptr<Probe> active_probe_;
};

}  // namespace natpunch

#endif  // SRC_NATCHECK_MULTI_CLIENT_H_
