// Network: the root object owning the event loop, RNG, trace recorder,
// every Lan and Node in a simulation, and the one pool that holds every
// Lan's in-flight packets.
//
// Typical use:
//   Network net(/*seed=*/42);
//   Lan* internet = net.CreateLan("internet", {.latency = Millis(20), .is_global = true});
//   auto* host = net.Create<Host>("A");
//   host->AttachTo(internet, Ipv4Address::FromOctets(18, 181, 0, 31));
//   net.RunFor(Seconds(5));

#ifndef SRC_NETSIM_NETWORK_H_
#define SRC_NETSIM_NETWORK_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/netsim/event_loop.h"
#include "src/netsim/lan.h"
#include "src/netsim/node.h"
#include "src/netsim/trace.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace natpunch {

class Network {
 public:
  explicit Network(uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& event_loop() { return loop_; }
  SimTime now() const { return loop_.now(); }
  Rng& rng() { return rng_; }
  TraceRecorder& trace() { return trace_; }

  // Observability. EnableMetrics creates the registry (idempotent) and wires
  // the event loop's dispatch counter and heap-depth gauge; it must run
  // BEFORE nodes are created so they can register their metrics at
  // construction (Scenario::Options.metrics does this). metrics() is null
  // until then — instrumented components treat null as "disabled" and skip
  // recording entirely.
  obs::MetricsRegistry* EnableMetrics();
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  Lan* CreateLan(std::string name, LanConfig config = LanConfig{});

  // Construct a node of type T (constructor signature T(Network*, args...))
  // owned by this Network.
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    auto node = std::make_unique<T>(this, std::forward<Args>(args)...);
    T* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  uint64_t NextPacketId() { return next_packet_id_++; }

  // Every Lan's in-flight packets: one pool sized by the most packets ever
  // in flight at once across the network (mem.deliveries.live/peak/bytes).
  DeliveryPool& deliveries() { return deliveries_; }

  // Tear down every Node and Lan and return to the state of a freshly
  // constructed Network(seed) — clock at 0, packet ids restarting at 1, no
  // trace records or interned names — while keeping the event loop's, the
  // delivery pool's and the trace recorder's warmed-up capacities. A reused
  // arena runs the next simulation bit-identically to a fresh Network but
  // without the per-run allocation storm; the fleet runner leans on this.
  void Reset(uint64_t seed);

  void RunFor(SimDuration d) { loop_.RunFor(d); }
  void RunUntil(SimTime t) { loop_.RunUntil(t); }
  size_t RunUntilIdle(size_t max_events = 10'000'000) { return loop_.RunUntilIdle(max_events); }

 private:
  EventLoop loop_;
  Rng rng_;
  TraceRecorder trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  DeliveryPool deliveries_;
  std::vector<std::unique_ptr<Lan>> lans_;
  std::vector<std::unique_ptr<Node>> nodes_;
  uint64_t next_packet_id_ = 1;
};

}  // namespace natpunch

#endif  // SRC_NETSIM_NETWORK_H_
