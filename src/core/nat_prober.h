// NatProber: STUN-style NAT behavior discovery (§5.1 mentions using "a
// protocol such as STUN" to probe NAT behavior before attempting
// prediction-based punching).
//
// Using two StunLikeServers (server1 configured with server2 as partner),
// the prober classifies, from a single local socket:
//   * mapping behavior — by comparing the public endpoints observed by
//     server1's main socket, server1's alternate port, and server2;
//   * filtering behavior — by whether replies arrive from a never-contacted
//     address (server2, via partner forwarding) and from a never-contacted
//     port (server1's alternate port);
//   * the port allocation stride of a symmetric NAT (prediction input).
//
// Probe order matters and is chosen so each filtering test fires before the
// client has contacted the endpoint the reply comes from.

#ifndef SRC_CORE_NAT_PROBER_H_
#define SRC_CORE_NAT_PROBER_H_

#include <functional>

#include "src/core/probe_server.h"
#include "src/nat/nat_config.h"

namespace natpunch {

struct NatProbeReport {
  bool behind_nat = false;
  NatMapping mapping = NatMapping::kEndpointIndependent;
  NatFiltering filtering = NatFiltering::kAddressAndPortDependent;
  Endpoint public_endpoint;  // as seen by server1 main
  // Port difference between the mappings created by two successive
  // new-destination flows; 0 for a cone NAT. Feed to prediction (§5.1).
  int port_delta = 0;
  std::string ToString() const;
};

class NatProber {
 public:
  // server1 must have server2 configured as its partner.
  NatProber(Host* host, Endpoint server1, Endpoint server2);

  // Runs the probe sequence from a fresh socket bound to local_port
  // (0 = ephemeral). The socket is closed afterwards.
  void Probe(uint16_t local_port, std::function<void(Result<NatProbeReport>)> cb);

 private:
  struct Run;

  void StepEcho(std::shared_ptr<Run> run, int step);
  void FinishRun(std::shared_ptr<Run> run);

  Host* host_;
  Endpoint server1_;
  Endpoint server2_;
};

}  // namespace natpunch

#endif  // SRC_CORE_NAT_PROBER_H_
