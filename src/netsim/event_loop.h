// Deterministic discrete-event scheduler.
//
// Events fire in strict (time, insertion-sequence) order, so two events
// scheduled for the same instant run in the order they were scheduled. This
// determinism is load-bearing: the hole-punching experiments depend on
// reproducing exact packet interleavings (e.g. whether A's SYN reaches B's
// NAT before B's SYN leaves it).
//
// Two scheduling tiers share one insertion-sequence counter:
//
//  * ScheduleAt/ScheduleAfter — closure events (packet deliveries, one-shot
//    control work).
//
//  * ScheduleTimerAt/ScheduleTimerAfter — intrusive TimerHandle events for
//    the coarse periodic tier (keepalives, NAT mapping expiry, relay
//    watchdogs, TURN refresh). A handle embeds its list links, deadline, and
//    a member-function thunk in the owning object, so arming a timer
//    allocates nothing and dispatch is one indirect call — no std::function,
//    no type erasure. Timers are parked in a timing wheel, one ring of 4,096
//    buckets of ~16.4 ms, and only migrate into the heap shortly before they
//    are due, so a million armed keepalives cost the heap nothing until
//    their slot comes up. A timer more than one ~67 s lap away waits in its
//    bucket for the lap that holds its deadline.
//
// Both tiers dispatch from one 4-ary min-heap of (time, id) keys with lazy
// cancellation. Every heap-resident event holds a slot in one pool recycled
// through a free list: a closure's slot owns its std::function, a timer's
// slot points at its handle. Each id names its slot, and a slot records the
// sequence of the event it holds, so one rule tells a live key from a stale
// one for both tiers, with no hashing and an allocation-free steady state.
// The pool holds as many slots as closures and heap-resident timers were
// ever pending at once, however long one of them waits.
//
// The wheel is a staging area, never a dispatch path: every timer enters the
// heap carrying its original (time, sequence) key before the clock reaches
// its slot, so the pop sequence is byte-identical to a heap-only scheduler
// (SetTimerWheelEnabled(false) is the differential oracle for exactly that
// claim). Both kinds of event share the sequence counter, so cross-tier ties
// at the same instant also fire in schedule order.
//
// ReserveSequence/ScheduleReserved serve in-order channels (a Lan's delivery
// queue): the channel takes each event's sequence when the event arises but
// keeps only its earliest event armed, as a TimerHandle under that reserved
// key. The heap then holds one entry per busy channel, and the pop sequence
// is still the one a closure per event would give.

#ifndef SRC_NETSIM_EVENT_LOOP_H_
#define SRC_NETSIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/netsim/sim_time.h"

namespace natpunch {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class EventLoop;

// Intrusive timer: the owning object embeds the handle and binds one of its
// member functions; arming, cancelling, and firing never allocate. A handle
// may be re-armed from its own callback (the self-rescheduling keepalive
// pattern) and cancels itself on destruction, so a destroyed session can
// never leave a dangling timer behind. A loop detaches its armed handles
// when it is reset or destroyed, so a handle may outlive its loop: it then
// reads !pending() and never touches the loop again.
class TimerHandle {
 public:
  TimerHandle() = default;
  ~TimerHandle() { Cancel(); }

  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;

  // Bind `obj`'s member function as the callback: Bind<&Foo::Tick>(foo).
  // Rebinding while armed is allowed; the pending firing uses the new thunk.
  // `obj` must be the object this handle is embedded in (directly or via
  // nested members): the handle stores only the 32-bit offset between
  // itself and its owner, which is what keeps it at 56 bytes — at swarm
  // scale every handle byte is multiplied by hundreds of thousands of
  // sessions (see DESIGN.md "Memory footprint").
  template <auto Method, typename T>
  void Bind(T* obj) {
    const ptrdiff_t offset =
        reinterpret_cast<const char*>(obj) - reinterpret_cast<const char*>(this);
    obj_offset_ = static_cast<int32_t>(offset);
    thunk_ = [](TimerHandle* h) {
      auto* owner = reinterpret_cast<T*>(reinterpret_cast<char*>(h) + h->obj_offset_);
      (owner->*Method)();
    };
  }

  bool pending() const { return state_ != State::kIdle; }
  SimTime deadline() const { return SimTime(deadline_); }

  // Cancel if armed. Returns true if the timer was still pending. An idle
  // handle returns false without touching the loop it was last armed on.
  bool Cancel();

 private:
  friend class EventLoop;

  enum class State : uint8_t {
    kIdle,    // not armed
    kInWheel, // linked into its deadline's ring bucket, perhaps laps ahead
    kInHeap,  // migrated to the heap; holds a pool slot that points here
  };

  EventLoop* loop_ = nullptr;
  void (*thunk_)(TimerHandle*) = nullptr;
  int64_t deadline_ = 0;  // micros
  uint64_t id_ = 0;       // full event id (kind bit set; its slot once kInHeap)
  TimerHandle* prev_ = nullptr;
  TimerHandle* next_ = nullptr;
  int32_t obj_offset_ = 0;  // owner address minus handle address (Bind)
  State state_ = State::kIdle;
  uint16_t bucket_ = 0;  // ring bucket while kInWheel
};
static_assert(sizeof(TimerHandle) == 56,
              "TimerHandle is a per-session multiplied cost; keep it tight");

class EventLoop {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEventId = 0;

  EventLoop() = default;
  // Detaches every armed timer, as Reset() does.
  ~EventLoop() { Reset(); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (clamped to now).
  EventId ScheduleAt(SimTime at, std::function<void()> fn);
  // Schedule `fn` to run `delay` from now.
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancel a pending event. Returns true if it was still pending.
  bool Cancel(EventId id);

  // Arm `timer` to fire at `at` (clamped to now) / after `delay`. An already
  // armed handle is re-armed (the old deadline is cancelled first). The
  // handle must stay alive and at a stable address until it fires or is
  // cancelled — it is linked into the loop's structures by pointer.
  void ScheduleTimerAt(SimTime at, TimerHandle* timer);
  void ScheduleTimerAfter(SimDuration delay, TimerHandle* timer) {
    ScheduleTimerAt(now_ + delay, timer);
  }
  // Cancel an armed timer. Returns true if it was still pending.
  bool CancelTimer(TimerHandle* timer);

  // In-order channels (the Lan delivery queues). ReserveSequence takes the
  // insertion sequence a ScheduleAt call would take right now, without
  // scheduling anything. ScheduleReserved later arms `timer` under that
  // reserved (at, sequence) key, straight into the heap: no wheel, no
  // loop.timers_* count. A channel that appends its events in (time,
  // sequence) order and keeps only its head armed therefore dispatches each
  // event exactly where a closure scheduled at reservation time would have.
  // Each reserved sequence may be scheduled once: the pool tells a live key
  // from a stale one by its sequence.
  EventId ReserveSequence();
  void ScheduleReserved(SimTime at, EventId reserved, TimerHandle* timer);

  // Differential oracle switch: with the wheel off, timers go straight to
  // the heap at schedule time. Either mode produces the identical dispatch
  // sequence; tests compare trace dumps across the two to prove it. Flip
  // only while no timers are pending. Survives Reset().
  void SetTimerWheelEnabled(bool enabled) { wheel_enabled_ = enabled; }
  bool timer_wheel_enabled() const { return wheel_enabled_; }

  // Run the single earliest pending event, advancing the clock to it.
  // Returns false if no events are pending.
  bool RunOne();

  // Run all events with time <= deadline, then set the clock to deadline.
  void RunUntil(SimTime deadline);
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  // Run until the queue drains or `max_events` have fired. Returns the
  // number of events processed. A cap guards against runaway feedback loops
  // (e.g. two misconfigured nodes ping-ponging a packet forever).
  size_t RunUntilIdle(size_t max_events = 10'000'000);

  // Events armed in the loop: closures and timers, with a busy in-order
  // channel (ScheduleReserved) counting once however many events it holds.
  bool idle() const { return live_ == 0; }
  size_t pending_count() const { return live_; }
  uint64_t events_processed() const { return events_processed_; }
  // Timers currently parked in the wheel (not yet migrated to the heap).
  size_t wheel_pending() const { return wheel_size_; }

  // Return to the pristine just-constructed state (clock at 0, no pending
  // events, counters zeroed) while KEEPING the heap and slot-pool
  // capacities, so a reused loop schedules without allocating.
  // Ids issued before a Reset must not be passed to Cancel after it. Pending
  // closures are destroyed and armed timers detach (their handles read
  // !pending()). Lets fleet workers run thousands of device simulations on
  // one arena. Attached metrics handles and the wheel-enabled flag survive a
  // Reset (the registry the handles live in is reset separately by
  // Network::Reset).
  void Reset();

  // Observability hookup (Network::EnableMetrics): `dispatched` counts every
  // fired event, `heap_depth` tracks the pending-event level (a busy
  // in-order channel counts once) and its high-water mark, `timers_wheel`/
  // `timers_heap` split ScheduleTimerAt/After arms by which tier admitted
  // them, and `wheel_cascades` counts wheel timers a slot flush walked past
  // because they are due a later lap. Any may be null; recording is
  // allocation-free.
  void AttachMetrics(obs::Counter* dispatched, obs::Gauge* heap_depth,
                     obs::Counter* timers_wheel = nullptr, obs::Counter* timers_heap = nullptr,
                     obs::Counter* wheel_cascades = nullptr) {
    metric_dispatched_ = dispatched;
    metric_heap_depth_ = heap_depth;
    metric_timers_wheel_ = timers_wheel;
    metric_timers_heap_ = timers_heap;
    metric_wheel_cascades_ = wheel_cascades;
  }

 private:
  // Event id layout, high bits to low: the insertion sequence (kSeqBits),
  // the event's pool slot (kSlotBits; zero for a timer until it enters the
  // heap), then the tier bit (0 = closure event, 1 = timer). Both tiers
  // share the sequence counter and it sits above everything else, so
  // (time, id) comparisons order cross-tier ties by schedule order and the
  // heap entry stays 16 bytes. AcquireSlot and NextSequence enforce both
  // widths in every build; DESIGN.md "Closure pool" says why they suffice.
  static constexpr uint64_t kTimerKindBit = 1;
  static constexpr int kSlotBits = 23;
  static constexpr int kSeqShift = kSlotBits + 1;
  static constexpr int kSeqBits = 64 - kSeqShift;
  static uint64_t SeqOf(EventId id) { return id >> kSeqShift; }
  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 1) & ((1u << kSlotBits) - 1);
  }
  static bool IsTimerId(EventId id) { return (id & kTimerKindBit) != 0; }

  struct HeapEntry {
    int64_t time;  // micros
    EventId id;
  };
  static_assert(sizeof(HeapEntry) == 16, "four heap entries share a cache line");
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  // 4-ary min-heap primitives over heap_; the minimum sits at heap_[0].
  void HeapPush(HeapEntry entry);
  void HeapPopTop();

  // A pool slot holds one heap-resident event: a closure (`fn`) or a timer
  // (`timer`, null for a closure). `seq` is that event's sequence, kFreeSeq
  // while the slot is on the free list; a heap key whose sequence differs
  // from its slot's names an event that fired or was cancelled.
  static constexpr uint64_t kFreeSeq = ~uint64_t{0};
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  struct Slot {
    std::function<void()> fn;
    TimerHandle* timer = nullptr;
    uint64_t seq = kFreeSeq;
    uint32_t next_free = kNoSlot;  // free-list link while seq == kFreeSeq
  };

  // --- Timing wheel (timer staging tier) ------------------------------------
  //
  // One ring of 4,096 buckets at a 2^14 us (~16.4 ms) granularity, so a lap
  // spans ~67 s: the hashed wheel of Varghese & Lauck. A timer is filed
  // once, in bucket SlotIndexFor(deadline) & kWheelMask, however many laps
  // away its deadline is. wheel_cursor_ is the absolute index of the next
  // unflushed slot: every wheel timer's slot is at or after it, and a timer
  // whose slot is below it is admitted straight to the heap. wheel_bits_
  // marks the occupied buckets and wheel_summary_ the nonzero words of
  // wheel_bits_, so finding the next occupied bucket takes three bit scans.
  static constexpr int kWheelGranularityBits = 14;
  static constexpr uint64_t kWheelBuckets = 4096;
  static constexpr uint64_t kWheelMask = kWheelBuckets - 1;
  static_assert(kWheelBuckets == 64 * 64, "one summary word covers the bitmap");

  static uint64_t SlotIndexFor(int64_t time_micros) {
    return static_cast<uint64_t>(time_micros) >> kWheelGranularityBits;
  }

  // Link an armed handle into its deadline's bucket.
  void WheelFile(TimerHandle* timer);
  void WheelUnlink(TimerHandle* timer);
  // The first slot at or after the cursor whose bucket is occupied. Its
  // start lower-bounds every wheel timer's deadline. The wheel must not be
  // empty.
  uint64_t WheelNextSlot() const;
  // Migrate the timers due in `slot` into the heap, leave its bucket's
  // timers for later laps parked and move the cursor past it.
  void WheelFlush(uint64_t slot);

  // Point `timer` (re-armed if pending) at `at` under `id` and count it
  // pending; the caller files it into a tier.
  void ArmTimer(SimTime at, EventId id, TimerHandle* timer);
  // Move the timer into the heap tier: give it a pool slot, record the slot
  // in its id and push its (deadline, id) key.
  void TimerToHeap(TimerHandle* timer);

  // Ensure the heap top is the globally next event (all wheel slots at or
  // before its time flushed) and due at or before `limit`. Returns false if
  // nothing is due by `limit`.
  bool PrepareTop(int64_t limit);

  // Take the next insertion sequence.
  uint64_t NextSequence();
  // Whether the event `id` names is still pending in its slot.
  bool Live(EventId id) const { return slots_[SlotOf(id)].seq == SeqOf(id); }
  // Take a slot off the free list, growing the pool if it is empty.
  uint32_t AcquireSlot();
  // Put slot `index` on the free list.
  void FreeSlot(uint32_t index);
  // Free a closure's slot and hand back its closure, so the closure dies (or
  // runs) only once the pool is consistent again.
  std::function<void()> ReleaseClosure(uint32_t index);
  // Pop and run the heap top. Precondition: PrepareTop() returned true (the
  // top is live and every earlier timer has been flushed from the wheel).
  void DispatchTop();
  // Drop dead keys off the heap top: ids whose slot no longer holds their
  // sequence (fired, cancelled or re-armed).
  void PopDead();

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  size_t live_ = 0;  // scheduled, not yet fired or cancelled (both tiers)
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;       // event pool; never shrinks
  uint32_t free_head_ = kNoSlot;  // first free slot in slots_

  // Timer tier state. A heap-resident timer is reachable only through its
  // slot, which its cancel or destructor frees: the orphaned heap key is
  // then stale and can never reach freed memory.
  TimerHandle* wheel_[kWheelBuckets] = {};
  uint64_t wheel_bits_[kWheelBuckets / 64] = {};
  uint64_t wheel_summary_ = 0;
  uint64_t wheel_cursor_ = 0;  // absolute index of the next unflushed slot
  size_t wheel_size_ = 0;
  bool wheel_enabled_ = true;

  obs::Counter* metric_dispatched_ = nullptr;
  obs::Gauge* metric_heap_depth_ = nullptr;
  obs::Counter* metric_timers_wheel_ = nullptr;
  obs::Counter* metric_timers_heap_ = nullptr;
  obs::Counter* metric_wheel_cascades_ = nullptr;
};

inline bool TimerHandle::Cancel() {
  return state_ != State::kIdle && loop_->CancelTimer(this);
}

}  // namespace natpunch

#endif  // SRC_NETSIM_EVENT_LOOP_H_
