#include "src/netsim/network.h"

#include "src/util/logging.h"

namespace natpunch {

Network::Network(uint64_t seed) : rng_(seed) {
  SetLogTimeSource([this] { return loop_.now().micros(); });
}

Network::~Network() { SetLogTimeSource(nullptr); }

Lan* Network::CreateLan(std::string name, LanConfig config) {
  lans_.push_back(std::make_unique<Lan>(this, std::move(name), config));
  return lans_.back().get();
}

obs::MetricsRegistry* Network::EnableMetrics() {
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    loop_.AttachMetrics(metrics_->GetCounter("loop.events_dispatched"),
                        metrics_->GetGauge("loop.heap_depth"),
                        metrics_->GetCounter("loop.timers_wheel"),
                        metrics_->GetCounter("loop.timers_heap"),
                        metrics_->GetCounter("loop.wheel_cascades"));
    deliveries_.AttachMetrics(metrics_->GetGauge("mem.deliveries.live"),
                              metrics_->GetGauge("mem.deliveries.peak"),
                              metrics_->GetGauge("mem.deliveries.bytes"));
  }
  return metrics_.get();
}

void Network::Reset(uint64_t seed) {
  // Pending event closures may capture nodes/lans; destroy them first.
  loop_.Reset();
  // Nodes reference Lans (attachments), so nodes go before lans.
  nodes_.clear();
  lans_.clear();
  trace_.ClearAll();
  // Values restart per run; registrations (and their capacity) survive so
  // the next run's nodes re-register without allocating.
  if (metrics_ != nullptr) {
    metrics_->Reset();
  }
  // The Lans' parked deliveries go with them; the pool keeps its capacity.
  // Cleared after the registry so mem.deliveries.bytes reads that capacity.
  deliveries_.Clear();
  rng_ = Rng(seed);
  next_packet_id_ = 1;
}

}  // namespace natpunch
