#include "src/netsim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/obs/metrics.h"

namespace natpunch {

namespace {
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

int Ctz(uint64_t bits) { return std::countr_zero(bits); }

// An id field overflowed: ids would collide or misorder, so stop the run.
[[noreturn]] void WidthExhausted(const char* field) {
  std::fprintf(stderr, "EventLoop: %s space exhausted (see DESIGN.md \"Closure pool\")\n", field);
  std::abort();
}
}  // namespace

void EventLoop::HeapPush(HeapEntry entry) {
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventLoop::HeapPopTop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first_child = (i << 2) + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

EventLoop::EventId EventLoop::ScheduleAt(SimTime at, std::function<void()> fn) {
  const int64_t t = std::max(at.micros(), now_.micros());
  const uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.seq = NextSequence();
  const EventId id = (slot.seq << kSeqShift) | (uint64_t{index} << 1);
  HeapPush(HeapEntry{t, id});
  ++live_;
  obs::Set(metric_heap_depth_, static_cast<int64_t>(live_));
  return id;
}

uint64_t EventLoop::NextSequence() {
  if (next_seq_ == (uint64_t{1} << kSeqBits)) {
    WidthExhausted("insertion sequence");
  }
  return next_seq_++;
}

uint32_t EventLoop::AcquireSlot() {
  const uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slots_[index].next_free;
    return index;
  }
  if (slots_.size() == (size_t{1} << kSlotBits)) {
    WidthExhausted("slot index");
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::FreeSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.timer = nullptr;
  slot.seq = kFreeSeq;
  slot.next_free = free_head_;
  free_head_ = index;
}

std::function<void()> EventLoop::ReleaseClosure(uint32_t index) {
  std::function<void()> fn = std::move(slots_[index].fn);
  slots_[index].fn = nullptr;
  FreeSlot(index);
  return fn;
}

void EventLoop::Reset() {
  // Detach every armed timer so its handle reads !pending() and a later
  // destructor or re-arm never touches this loop. Heap-resident timers are
  // reachable through their slots, wheel-resident ones through the wheel's
  // lists. Pending closures are destroyed (with anything they own) after
  // their slot is freed.
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.seq == kFreeSeq) {
      continue;
    }
    if (slot.timer != nullptr) {
      slot.timer->state_ = TimerHandle::State::kIdle;
      FreeSlot(i);
    } else {
      ReleaseClosure(i);
    }
  }
  for (int level = 0; level < kWheelLevels; ++level) {
    uint64_t bits = wheel_occupied_[level];
    while (bits != 0) {
      const int slot = Ctz(bits);
      bits &= bits - 1;
      for (TimerHandle* t = wheel_slots_[level][slot]; t != nullptr;) {
        TimerHandle* next = t->next_;
        t->state_ = TimerHandle::State::kIdle;
        t->prev_ = t->next_ = nullptr;
        t = next;
      }
      wheel_slots_[level][slot] = nullptr;
    }
    wheel_occupied_[level] = 0;
  }
  for (TimerHandle* t = overflow_head_; t != nullptr;) {
    TimerHandle* next = t->next_;
    t->state_ = TimerHandle::State::kIdle;
    t->prev_ = t->next_ = nullptr;
    t = next;
  }
  overflow_head_ = nullptr;
  wheel_cursor_ = 0;
  wheel_size_ = 0;
  wheel_lb_cache_ = -1;
  heap_.clear();
  live_ = 0;
  now_ = SimTime();
  next_seq_ = 1;
  events_processed_ = 0;
}

void EventLoop::PopDead() {
  // A key whose slot holds another sequence was cancelled (a closure, or a
  // timer cancelled or re-armed after it entered the heap), and the slot may
  // since hold a newer event. Such a stale key dies here.
  while (!heap_.empty() && !Live(heap_.front().id)) {
    HeapPopTop();
  }
}

bool EventLoop::Cancel(EventId id) {
  if (IsTimerId(id) || SlotOf(id) >= slots_.size() || !Live(id)) {
    return false;
  }
  ReleaseClosure(SlotOf(id));  // the heap entry dies lazily in PopDead
  --live_;
  return true;
}

// --- Timer tier -------------------------------------------------------------

EventLoop::EventId EventLoop::ReserveSequence() {
  return (NextSequence() << kSeqShift) | kTimerKindBit;
}

void EventLoop::ArmTimer(SimTime at, EventId id, TimerHandle* timer) {
  if (timer->state_ != TimerHandle::State::kIdle) {
    CancelTimer(timer);  // re-arm: the old deadline is dropped
  }
  timer->loop_ = this;
  timer->id_ = id;
  timer->deadline_ = std::max(at.micros(), now_.micros());
  ++live_;
  obs::Set(metric_heap_depth_, static_cast<int64_t>(live_));
}

void EventLoop::ScheduleTimerAt(SimTime at, TimerHandle* timer) {
  ArmTimer(at, ReserveSequence(), timer);
  // A deadline landing in an already-flushed slot (or any deadline with the
  // wheel disabled) goes straight to the heap with its original key; the
  // ordering argument never depends on which tier admitted the timer.
  if (!wheel_enabled_ || SlotIndexFor(timer->deadline_) < wheel_cursor_) {
    obs::Inc(metric_timers_heap_);
    TimerToHeap(timer);
  } else {
    obs::Inc(metric_timers_wheel_);
    WheelFile(timer);
  }
}

void EventLoop::ScheduleReserved(SimTime at, EventId reserved, TimerHandle* timer) {
  ArmTimer(at, reserved, timer);
  TimerToHeap(timer);
}

bool EventLoop::CancelTimer(TimerHandle* timer) {
  switch (timer->state_) {
    case TimerHandle::State::kIdle:
      return false;
    case TimerHandle::State::kInWheel:
      WheelUnlink(timer);
      break;
    case TimerHandle::State::kInHeap:
      FreeSlot(SlotOf(timer->id_));  // the heap key dies lazily in PopDead
      break;
  }
  timer->state_ = TimerHandle::State::kIdle;
  --live_;
  return true;
}

void EventLoop::TimerToHeap(TimerHandle* timer) {
  const uint32_t index = AcquireSlot();
  slots_[index].timer = timer;
  slots_[index].seq = SeqOf(timer->id_);
  timer->id_ |= uint64_t{index} << 1;  // an armed id's slot bits are zero
  timer->state_ = TimerHandle::State::kInHeap;
  HeapPush(HeapEntry{timer->deadline_, timer->id_});
}

void EventLoop::WheelFile(TimerHandle* timer) {
  const uint64_t idx = SlotIndexFor(timer->deadline_);
  const uint64_t delta = idx - wheel_cursor_;
  int level = 0;
  uint64_t span = kWheelSlots;
  while (level < kWheelLevels && delta >= span) {
    ++level;
    span <<= kWheelSlotBits;
  }
  timer->state_ = TimerHandle::State::kInWheel;
  timer->prev_ = nullptr;
  if (level == kWheelLevels) {
    // Past the level-3 horizon (~76 h of simulated time): park in the
    // overflow list, rescanned whenever the cursor enters a new level-3
    // window.
    timer->level_ = kOverflowLevel;
    timer->next_ = overflow_head_;
    if (overflow_head_ != nullptr) {
      overflow_head_->prev_ = timer;
    }
    overflow_head_ = timer;
  } else {
    const auto slot = static_cast<uint8_t>((idx >> (kWheelSlotBits * level)) & (kWheelSlots - 1));
    timer->level_ = static_cast<uint8_t>(level);
    timer->slot_ = slot;
    timer->next_ = wheel_slots_[level][slot];
    if (timer->next_ != nullptr) {
      timer->next_->prev_ = timer;
    }
    wheel_slots_[level][slot] = timer;
    wheel_occupied_[level] |= 1ull << slot;
  }
  ++wheel_size_;
  wheel_lb_cache_ = -1;
}

void EventLoop::WheelUnlink(TimerHandle* timer) {
  if (timer->next_ != nullptr) {
    timer->next_->prev_ = timer->prev_;
  }
  if (timer->prev_ != nullptr) {
    timer->prev_->next_ = timer->next_;
  } else if (timer->level_ == kOverflowLevel) {
    overflow_head_ = timer->next_;
  } else {
    wheel_slots_[timer->level_][timer->slot_] = timer->next_;
    if (timer->next_ == nullptr) {
      wheel_occupied_[timer->level_] &= ~(1ull << timer->slot_);
    }
  }
  timer->prev_ = timer->next_ = nullptr;
  --wheel_size_;
  wheel_lb_cache_ = -1;
}

void EventLoop::WheelFlushSlot(uint64_t slot) {
  TimerHandle* t = wheel_slots_[0][slot];
  wheel_slots_[0][slot] = nullptr;
  wheel_occupied_[0] &= ~(1ull << slot);
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    t->prev_ = t->next_ = nullptr;
    --wheel_size_;
    // The heap re-sorts by the original (deadline, id) key, so the arbitrary
    // slot-list order here is invisible to the dispatch sequence.
    TimerToHeap(t);
    t = next;
  }
}

void EventLoop::WheelCascade(int level) {
  const auto slot =
      static_cast<size_t>((wheel_cursor_ >> (kWheelSlotBits * level)) & (kWheelSlots - 1));
  TimerHandle* t = wheel_slots_[level][slot];
  if (t == nullptr) {
    return;
  }
  wheel_slots_[level][slot] = nullptr;
  wheel_occupied_[level] &= ~(1ull << slot);
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    t->prev_ = t->next_ = nullptr;
    --wheel_size_;
    WheelFile(t);  // lands at a lower level: its delta is now < 64^level
    obs::Inc(metric_wheel_cascades_);
    t = next;
  }
}

void EventLoop::WheelRescanOverflow() {
  const uint64_t horizon = kWheelSlots * kWheelSlots * kWheelSlots * kWheelSlots;
  TimerHandle* t = overflow_head_;
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    if (SlotIndexFor(t->deadline_) - wheel_cursor_ < horizon) {
      WheelUnlink(t);
      WheelFile(t);
      obs::Inc(metric_wheel_cascades_);
    }
    t = next;
  }
}

void EventLoop::WheelBoundaryCascade() {
  // Entering a new level-k window cascades that level's covering slot before
  // any of the window's level-0 slots flush; highest level first so a
  // level-3 entry can fall through 2 -> 1 -> 0 in one boundary crossing.
  // Runs the moment the cursor lands on a boundary (not lazily on the next
  // advance): WheelLowerBound relies on the covering slot being empty of
  // current-window entries whenever it looks, so it can classify any
  // occupant at the cursor's own position as next-wrap.
  if ((wheel_cursor_ & (kWheelSlots * kWheelSlots - 1)) == 0) {
    if ((wheel_cursor_ & (kWheelSlots * kWheelSlots * kWheelSlots - 1)) == 0) {
      WheelRescanOverflow();
      WheelCascade(3);
    }
    WheelCascade(2);
  }
  WheelCascade(1);
}

void EventLoop::WheelAdvanceTo(int64_t time_micros) {
  const uint64_t target = SlotIndexFor(time_micros);
  while (wheel_cursor_ <= target) {
    const uint64_t window_base = wheel_cursor_ & ~(kWheelSlots - 1);
    const uint64_t limit_idx = std::min(target, window_base + kWheelSlots - 1);
    uint64_t bits = wheel_occupied_[0] & (~0ull << (wheel_cursor_ & (kWheelSlots - 1)));
    while (bits != 0) {
      const auto pos = static_cast<uint64_t>(Ctz(bits));
      if (window_base + pos > limit_idx) {
        break;
      }
      WheelFlushSlot(pos);
      bits &= bits - 1;
    }
    wheel_cursor_ = limit_idx + 1;
    if ((wheel_cursor_ & (kWheelSlots - 1)) == 0) {
      WheelBoundaryCascade();
    }
  }
  wheel_lb_cache_ = -1;
}

int64_t EventLoop::WheelLowerBound() {
  if (wheel_lb_cache_ >= 0) {
    return wheel_lb_cache_;
  }
  int64_t best = kNever;
  // Level 0: slots at or after the cursor position belong to the current
  // window; occupied slots *below* it are not stale (those were flushed) but
  // wrapped — a delta just under 64 can land past the window boundary, in
  // which case the slot covers cursor+64-aligned time, not cursor-aligned.
  const uint64_t base0 = wheel_cursor_ & ~(kWheelSlots - 1);
  const uint64_t bits0 = wheel_occupied_[0] & (~0ull << (wheel_cursor_ & (kWheelSlots - 1)));
  if (bits0 != 0) {
    best = static_cast<int64_t>((base0 + static_cast<uint64_t>(Ctz(bits0)))
                                << kWheelGranularityBits);
  } else if (wheel_occupied_[0] != 0) {
    best = static_cast<int64_t>(
        (base0 + kWheelSlots + static_cast<uint64_t>(Ctz(wheel_occupied_[0])))
        << kWheelGranularityBits);
  }
  for (int level = 1; level < kWheelLevels; ++level) {
    uint64_t bits = wheel_occupied_[level];
    if (bits == 0) {
      continue;
    }
    const int shift = kWheelSlotBits * level;
    const uint64_t cursor_l = wheel_cursor_ >> shift;
    const uint64_t base_l = cursor_l & ~(kWheelSlots - 1);
    while (bits != 0) {
      const auto pos = static_cast<uint64_t>(Ctz(bits));
      bits &= bits - 1;
      // A position at or behind the cursor's own slot belongs to the next
      // wrap of this level (the covering slot was cascaded empty when the
      // cursor entered it).
      uint64_t abs_idx = base_l + pos;
      if (abs_idx <= cursor_l) {
        abs_idx += kWheelSlots;
      }
      const auto start =
          static_cast<int64_t>(abs_idx << (static_cast<uint64_t>(shift) + kWheelGranularityBits));
      best = std::min(best, start);
    }
  }
  for (TimerHandle* t = overflow_head_; t != nullptr; t = t->next_) {
    best = std::min(best, t->deadline_);
  }
  wheel_lb_cache_ = best;
  return best;
}

// --- Dispatch ---------------------------------------------------------------

bool EventLoop::PrepareTop(int64_t limit) {
  for (;;) {
    PopDead();
    if (wheel_size_ != 0) {
      const int64_t top = heap_.empty() ? kNever : heap_.front().time;
      const int64_t lb = WheelLowerBound();
      // A wheel timer might precede (or tie) the heap top: flush its slot
      // into the heap and re-evaluate. Equal times flush too — the wheel
      // entry may carry a smaller sequence than the heap top.
      if (lb <= top && lb <= limit) {
        WheelAdvanceTo(lb);
        continue;
      }
    }
    return !heap_.empty() && heap_.front().time <= limit;
  }
}

void EventLoop::DispatchTop() {
  const HeapEntry top = heap_.front();
  HeapPopTop();
  const uint32_t index = SlotOf(top.id);
  --live_;
  now_ = SimTime(top.time);
  ++events_processed_;
  obs::Inc(metric_dispatched_);
  if (IsTimerId(top.id)) {
    TimerHandle* timer = slots_[index].timer;
    FreeSlot(index);
    timer->state_ = TimerHandle::State::kIdle;
    timer->thunk_(timer);  // may re-arm the handle
    return;
  }
  std::function<void()> fn = ReleaseClosure(index);
  fn();
}

bool EventLoop::RunOne() {
  if (!PrepareTop(kNever)) {
    return false;
  }
  DispatchTop();
  return true;
}

void EventLoop::RunUntil(SimTime deadline) {
  // One PopDead per dispatch: PrepareTop peeks the live top itself instead
  // of delegating to RunOne (which would re-PopDead an already-clean heap —
  // measurably half the PopDead traffic on the fleet workload).
  const int64_t limit = deadline.micros();
  while (PrepareTop(limit)) {
    DispatchTop();
  }
  now_ = std::max(now_, deadline);
}

size_t EventLoop::RunUntilIdle(size_t max_events) {
  size_t n = 0;
  while (n < max_events && RunOne()) {
    ++n;
  }
  return n;
}

}  // namespace natpunch
