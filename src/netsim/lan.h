// A Lan is one broadcast domain / address realm segment.
//
// The paper's Figure 1 topology maps directly: each private network is a Lan,
// and the "main" global realm is a Lan with is_global set (which additionally
// drops leaked RFC 1918 destinations, as real inter-domain routing would).
// Latency, jitter, and loss are per-Lan so experiments can, e.g., make one
// client's access link slower to control which SYN arrives first.
//
// A Lan stores no packets itself: an in-flight packet waits in its
// Network's DeliveryPool, and the Lan's in-order delivery queue is a list
// threaded through that pool, so the network holds as many slots as it
// ever had packets in flight at once (rounded up to a chunk), however they
// were spread over Lans.

#ifndef SRC_NETSIM_LAN_H_
#define SRC_NETSIM_LAN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/packet.h"
#include "src/netsim/sim_time.h"
#include "src/netsim/trace.h"
#include "src/util/flat_hash.h"

namespace natpunch {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class Network;
class Node;

// Gilbert-Elliott two-state burst-loss model. The channel wanders between a
// "good" and a "bad" state per transmitted packet; loss probability depends
// on the state, which is what produces the correlated loss bursts real
// access links exhibit (and that independent `loss` cannot). Disabled by
// default so it draws no randomness unless asked for.
struct GilbertElliottConfig {
  bool enabled = false;
  double p_good_to_bad = 0.01;  // per-packet transition probability good->bad
  double p_bad_to_good = 0.25;  // per-packet transition probability bad->good
  double loss_good = 0.0;       // loss probability while in the good state
  double loss_bad = 1.0;        // loss probability while in the bad state
};

// Adversarial in-flight mangling: seeded, deterministic byte-level hostility
// on top of the loss models. Each fault kind is independent and draws
// randomness only while its probability is non-zero, so enabling one (or
// none) never perturbs the RNG stream consumed by the others — golden traces
// for non-hostile configs stay bit-identical. Every applied fault is traced
// (kCorrupt/kDuplicate/kReorder/kTruncate) and counted via obs metrics
// (`lan.<name>.corrupted/duplicated/reordered/truncated`).
struct MangleConfig {
  double corrupt = 0.0;        // per-packet probability of flipping payload bits
  int corrupt_max_bits = 3;    // 1..corrupt_max_bits bits flipped per corruption
  double truncate = 0.0;       // probability of cutting the payload short
  double duplicate = 0.0;      // probability of delivering the packet twice
  double reorder = 0.0;        // probability of holding the packet back
  SimDuration reorder_hold = Millis(50);  // max extra hold; actual in [1us, hold]

  bool any() const { return corrupt > 0.0 || truncate > 0.0 || duplicate > 0.0 || reorder > 0.0; }
};

struct LanConfig {
  SimDuration latency = Millis(5);     // one-way propagation delay
  SimDuration jitter = Micros(0);      // extra uniform delay in [0, jitter]
  double loss = 0.0;                // independent per-packet loss probability
  GilbertElliottConfig burst{};     // correlated burst loss, on top of `loss`
  MangleConfig mangle{};            // adversarial corruption/dup/reorder/truncate
  // Shared-medium capacity in bits/s; 0 = infinite. Packets serialize one
  // at a time, so a saturated segment queues (and delays) everything on it.
  double bandwidth_bps = 0.0;
  bool is_global = false;  // the public Internet realm
};

// An in-flight delivery, parked in a DeliveryPool slot from transmit until
// its Lan hands it to `node`. While the delivery waits in its Lan's queue,
// `time` and `id` hold its due time and the sequence reserved for it, and
// `next` links the next queued slot; a free slot's `next` links the free
// list.
struct PendingDelivery {
  Node* node = nullptr;
  Packet packet;
  int64_t time = 0;  // micros
  EventLoop::EventId id = EventLoop::kInvalidEventId;
  PendingDelivery* next = nullptr;
  int iface = 0;
};

// The in-flight packets of every Lan in one Network: slots in fixed chunks
// of kChunkSlots that never move, recycled through a LIFO free list and
// never freed before the pool. Growing adds a chunk and copies nothing, so
// a slot's address holds from Park to Release whatever is parked
// meanwhile. Free slots stay constructed (a released slot keeps its
// moved-from packet), which lets Clear drop the parked payloads and keep
// the chunks.
class DeliveryPool {
 public:
  static constexpr size_t kChunkSlots = 64;

  // Park `packet` for `iface` of `node`; returns its slot.
  PendingDelivery* Park(Node* node, int iface, Packet&& packet);
  void Release(PendingDelivery* slot);
  // Free every slot and drop the payloads parked in them, keeping the chunks.
  void Clear();
  // Wire the mem.deliveries.live/peak gauges and mem.deliveries.bytes, the
  // memory the chunks hold; recording never allocates.
  void AttachMetrics(obs::Gauge* live, obs::Gauge* peak, obs::Gauge* bytes);

 private:
  using Chunk = std::array<PendingDelivery, kChunkSlots>;

  void Grow();
  // Push `chunk`'s slots onto the free list so Park hands them out in order.
  void FreeChunk(Chunk& chunk);
  void SetBytesGauge();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  PendingDelivery* free_head_ = nullptr;
  int64_t live_ = 0;
  int64_t peak_ = 0;
  obs::Gauge* metric_live_ = nullptr;
  obs::Gauge* metric_peak_ = nullptr;
  obs::Gauge* metric_bytes_ = nullptr;
};

class Lan {
 public:
  Lan(Network* network, std::string name, LanConfig config);

  Lan(const Lan&) = delete;
  Lan& operator=(const Lan&) = delete;

  const std::string& name() const { return name_; }
  const LanConfig& config() const { return config_; }
  void set_config(const LanConfig& config) { config_ = config; }

  // Administrative link state (fault injection: a partition takes the
  // segment down; every Transmit while down is dropped with kLinkDown).
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  // Whether the Gilbert-Elliott channel currently sits in the bad state.
  bool burst_bad_state() const { return burst_bad_; }

  // Registered by Node::AttachTo.
  void Attach(Node* node, int iface, Ipv4Address ip);

  bool HasAddress(Ipv4Address ip) const;

  // Emit `packet` toward `next_hop` on this segment. Applies loss and delay,
  // then delivers to the attachment owning next_hop, if any. The packet is
  // consumed (parked in the Network's DeliveryPool) only when it survives
  // the loss/link checks.
  void Transmit(Node* sender, Ipv4Address next_hop, Packet&& packet);

  uint64_t packets_transmitted() const { return packets_; }
  uint64_t bytes_transmitted() const { return bytes_; }

 private:
  static constexpr uint32_t kNoAttachment = UINT32_MAX;

  struct Attachment {
    Node* node;
    int iface;
    Ipv4Address ip;
    uint32_t next_owner;  // next attachment owning `ip`, in attach order
  };

  // Hand the parked delivery in `slot` to the event loop, due `delay` from
  // now: appended to the link queue when not earlier than its tail, else
  // scheduled as its own closure.
  void Schedule(SimDuration delay, PendingDelivery* slot);
  // Queue head's timer: pop the head, re-arm for the next one, deliver.
  void DeliverQueued();
  void Deliver(PendingDelivery* slot);
  // Applies the MangleConfig to a packet that survived the loss models.
  // Mutates the payload in place (corrupt/truncate) and reports via `extra`
  // how long a reordered packet is held past its computed delay and via
  // `duplicate` whether a second copy must be scheduled.
  void Mangle(Packet& packet, SimDuration& extra, bool& duplicate);

  Network* network_;
  std::string name_;
  LanConfig config_;
  TraceNodeId trace_id_ = 0;
  bool up_ = true;
  bool burst_bad_ = false;  // Gilbert-Elliott channel state
  std::vector<Attachment> attachments_;
  FlatHashMap<uint32_t, uint32_t> owners_;  // ip bits -> first attachment owning it
  SimTime medium_free_at_;  // when the shared medium finishes its last frame
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  // In-order delivery queue: a list of pool slots linked through
  // PendingDelivery::next, sorted by (time, sequence), whose head alone is
  // armed in the loop. The tail is meaningful only while the head is.
  PendingDelivery* queue_head_ = nullptr;
  PendingDelivery* queue_tail_ = nullptr;
  TimerHandle queue_timer_;
  // Null when the Network has no metrics registry (obs::Inc is null-safe).
  obs::Counter* metric_corrupted_ = nullptr;
  obs::Counter* metric_duplicated_ = nullptr;
  obs::Counter* metric_reordered_ = nullptr;
  obs::Counter* metric_truncated_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_NETSIM_LAN_H_
