#include "src/netsim/lan.h"

#include <algorithm>
#include <cstdio>

#include "src/netsim/network.h"
#include "src/netsim/node.h"
#include "src/obs/metrics.h"

namespace natpunch {

PendingDelivery* DeliveryPool::Park(Node* node, int iface, Packet&& packet) {
  if (free_head_ == nullptr) {
    Grow();
  }
  PendingDelivery* d = free_head_;
  free_head_ = d->next;
  d->node = node;
  d->iface = iface;
  d->packet = std::move(packet);
  if (++live_ > peak_) {
    peak_ = live_;
    obs::Set(metric_peak_, peak_);
  }
  obs::Set(metric_live_, live_);
  return d;
}

void DeliveryPool::Release(PendingDelivery* slot) {
  slot->next = free_head_;
  free_head_ = slot;
  obs::Set(metric_live_, --live_);
}

void DeliveryPool::Clear() {
  free_head_ = nullptr;
  for (size_t c = chunks_.size(); c-- > 0;) {
    for (PendingDelivery& d : *chunks_[c]) {
      d.packet.payload = Payload();  // frees a payload still parked here
    }
    FreeChunk(*chunks_[c]);
  }
  live_ = peak_ = 0;
  SetBytesGauge();  // the chunks stay
}

void DeliveryPool::AttachMetrics(obs::Gauge* live, obs::Gauge* peak, obs::Gauge* bytes) {
  metric_live_ = live;
  metric_peak_ = peak;
  metric_bytes_ = bytes;
  obs::Set(metric_live_, live_);
  obs::Set(metric_peak_, peak_);
  SetBytesGauge();
}

void DeliveryPool::Grow() {
  chunks_.push_back(std::make_unique<Chunk>());
  FreeChunk(*chunks_.back());
  SetBytesGauge();
}

void DeliveryPool::FreeChunk(Chunk& chunk) {
  for (size_t i = kChunkSlots; i-- > 0;) {
    chunk[i].next = free_head_;
    free_head_ = &chunk[i];
  }
}

void DeliveryPool::SetBytesGauge() {
  obs::Set(metric_bytes_, static_cast<int64_t>(chunks_.size() * sizeof(Chunk)));
}

Lan::Lan(Network* network, std::string name, LanConfig config)
    : network_(network), name_(std::move(name)), config_(config) {
  trace_id_ = network_->trace().Intern(name_);
  if (obs::MetricsRegistry* reg = network_->metrics()) {
    char metric_name[96];
    const auto metric = [&](const char* suffix) {
      const int n =
          std::snprintf(metric_name, sizeof(metric_name), "lan.%s.%s", name_.c_str(), suffix);
      return reg->GetCounter(std::string_view(metric_name, static_cast<size_t>(n)));
    };
    metric_corrupted_ = metric("corrupted");
    metric_duplicated_ = metric("duplicated");
    metric_reordered_ = metric("reordered");
    metric_truncated_ = metric("truncated");
  }
  queue_timer_.Bind<&Lan::DeliverQueued>(this);
}

void Lan::Attach(Node* node, int iface, Ipv4Address ip) {
  const auto index = static_cast<uint32_t>(attachments_.size());
  attachments_.push_back(Attachment{node, iface, ip, kNoAttachment});
  bool inserted = false;
  uint32_t* owner = owners_.FindOrInsert(ip.bits(), &inserted);
  if (inserted) {
    *owner = index;
    return;
  }
  uint32_t last = *owner;
  while (attachments_[last].next_owner != kNoAttachment) {
    last = attachments_[last].next_owner;
  }
  attachments_[last].next_owner = index;
}

bool Lan::HasAddress(Ipv4Address ip) const { return owners_.Contains(ip.bits()); }

void Lan::Transmit(Node* sender, Ipv4Address next_hop, Packet&& packet) {
  ++packets_;
  const size_t wire_size = packet.WireSize();
  bytes_ += wire_size;

  if (!up_) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kLinkDown, packet);
    return;
  }

  if (config_.loss > 0.0 && network_->rng().NextBool(config_.loss)) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropLoss, packet);
    return;
  }

  if (config_.burst.enabled) {
    // Advance the Gilbert-Elliott channel one step per transmitted packet,
    // then apply the current state's loss probability.
    burst_bad_ = burst_bad_ ? !network_->rng().NextBool(config_.burst.p_bad_to_good)
                            : network_->rng().NextBool(config_.burst.p_good_to_bad);
    const double p = burst_bad_ ? config_.burst.loss_bad : config_.burst.loss_good;
    if (p > 0.0 && network_->rng().NextBool(p)) {
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropBurst, packet,
                               burst_bad_ ? "bad" : "good");
      return;
    }
  }

  // Prefer an attachment owning next_hop on another node, but fall back to
  // the first owner of any kind so a node may legitimately address itself
  // (loopback-style) when nothing else matches.
  const Attachment* target = nullptr;
  if (const uint32_t* first = owners_.Find(next_hop.bits())) {
    target = &attachments_[*first];
    for (uint32_t i = *first; i != kNoAttachment; i = attachments_[i].next_owner) {
      if (attachments_[i].node != sender) {
        target = &attachments_[i];
        break;
      }
    }
  }
  if (target == nullptr) {
    const TraceEvent event = (config_.is_global && packet.dst_ip.IsPrivate())
                                 ? TraceEvent::kDropPrivateLeak
                                 : TraceEvent::kDropNoNextHop;
    network_->trace().Record(network_->now(), trace_id_, event, packet,
                             Detail("next_hop=", next_hop));
    return;
  }

  SimDuration delay = config_.latency;
  if (config_.jitter.micros() > 0) {
    delay = delay + Micros(network_->rng().NextInRange(0, config_.jitter.micros()));
  }
  if (config_.bandwidth_bps > 0) {
    // Serialization on a shared medium: wait for the segment to go idle,
    // then occupy it for the frame's transmission time.
    const double tx_seconds = static_cast<double>(wire_size) * 8 / config_.bandwidth_bps;
    const SimDuration tx_time = Micros(static_cast<int64_t>(tx_seconds * 1e6));
    const SimTime start = std::max(network_->now(), medium_free_at_);
    medium_free_at_ = start + tx_time;
    delay = delay + (medium_free_at_ - network_->now());
  }

  // Adversarial mangling happens after the loss models and target resolution
  // so a mangled packet is always one that would otherwise have been
  // delivered intact. Corruption/truncation mutate the payload in place
  // (the duplicate, if any, carries the same damage — real duplication
  // happens downstream of the corrupting link).
  SimDuration extra_hold = Micros(0);
  bool duplicate = false;
  if (config_.mangle.any()) {
    Mangle(packet, extra_hold, duplicate);
  }

  DeliveryPool& pool = network_->deliveries();
  if (duplicate) {
    Schedule(delay, pool.Park(target->node, target->iface, Packet(packet)));  // a copy
  }
  Schedule(delay + extra_hold, pool.Park(target->node, target->iface, std::move(packet)));
}

void Lan::Schedule(SimDuration delay, PendingDelivery* slot) {
  EventLoop& loop = network_->event_loop();
  const SimTime at = loop.now() + delay;
  if (queue_head_ != nullptr && at.micros() < queue_tail_->time) {
    // Lands before the tail (jitter, a reorder hold): its own closure.
    loop.ScheduleAt(at, [this, slot] { Deliver(slot); });
    return;
  }
  slot->time = at.micros();
  slot->id = loop.ReserveSequence();
  slot->next = nullptr;
  if (queue_head_ == nullptr) {
    queue_head_ = slot;
    loop.ScheduleReserved(at, slot->id, &queue_timer_);
  } else {
    queue_tail_->next = slot;
  }
  queue_tail_ = slot;
}

void Lan::DeliverQueued() {
  // Re-arm for the next head before delivering: HandlePacket may transmit
  // on this same Lan, appending behind it.
  PendingDelivery* const slot = queue_head_;
  queue_head_ = slot->next;
  if (queue_head_ != nullptr) {
    network_->event_loop().ScheduleReserved(SimTime(queue_head_->time), queue_head_->id,
                                            &queue_timer_);
  }
  Deliver(slot);
}

void Lan::Mangle(Packet& packet, SimDuration& extra, bool& duplicate) {
  const MangleConfig& m = config_.mangle;
  Rng& rng = network_->rng();
  // Fixed draw order (corrupt, truncate, duplicate, reorder), each kind
  // drawing only when its probability is non-zero: replays are bit-identical
  // per seed and disabling a kind never shifts the stream of the others.
  if (m.corrupt > 0.0 && !packet.payload.empty() && rng.NextBool(m.corrupt)) {
    const uint64_t max_bits = m.corrupt_max_bits < 1 ? 1 : static_cast<uint64_t>(m.corrupt_max_bits);
    const uint64_t bits = 1 + rng.NextBelow(max_bits);
    for (uint64_t i = 0; i < bits; ++i) {
      const uint64_t bit = rng.NextBelow(static_cast<uint64_t>(packet.payload.size()) * 8);
      packet.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kCorrupt, packet,
                             Detail("bits=", bits));
    obs::Inc(metric_corrupted_);
  }
  if (m.truncate > 0.0 && !packet.payload.empty() && rng.NextBool(m.truncate)) {
    const size_t new_size = static_cast<size_t>(rng.NextBelow(packet.payload.size()));
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kTruncate, packet,
                             Detail(uint64_t{packet.payload.size()}, "=>", uint64_t{new_size}));
    packet.payload.resize(new_size);
    obs::Inc(metric_truncated_);
  }
  if (m.duplicate > 0.0 && rng.NextBool(m.duplicate)) {
    duplicate = true;
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDuplicate, packet);
    obs::Inc(metric_duplicated_);
  }
  if (m.reorder > 0.0 && rng.NextBool(m.reorder)) {
    const int64_t max_us = std::max<int64_t>(1, m.reorder_hold.micros());
    extra = Micros(rng.NextInRange(1, max_us));
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kReorder, packet,
                             Detail("hold_us=", static_cast<uint64_t>(extra.micros())));
    obs::Inc(metric_reordered_);
  }
}

void Lan::Deliver(PendingDelivery* slot) {
  // Move everything out and release the slot first: HandlePacket may
  // transmit, and the LIFO free list hands this slot to the next Park.
  Node* const node = slot->node;
  const int iface = slot->iface;
  Packet packet = std::move(slot->packet);
  network_->deliveries().Release(slot);
  network_->trace().Record(network_->now(), node->trace_id(), TraceEvent::kDeliver, packet);
  node->HandlePacket(iface, std::move(packet));
}

}  // namespace natpunch
