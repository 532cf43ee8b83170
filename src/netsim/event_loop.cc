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
  // reachable through their slots, wheel-resident ones through the ring's
  // occupied buckets. Pending closures are destroyed (with anything they
  // own) after their slot is freed.
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
  while (wheel_size_ != 0) {
    TimerHandle* t = wheel_[WheelNextSlot() & kWheelMask];
    WheelUnlink(t);
    t->state_ = TimerHandle::State::kIdle;
  }
  wheel_cursor_ = 0;
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
  const auto bucket = static_cast<uint16_t>(SlotIndexFor(timer->deadline_) & kWheelMask);
  timer->state_ = TimerHandle::State::kInWheel;
  timer->bucket_ = bucket;
  timer->prev_ = nullptr;
  timer->next_ = wheel_[bucket];
  if (timer->next_ != nullptr) {
    timer->next_->prev_ = timer;
  }
  wheel_[bucket] = timer;
  wheel_bits_[bucket / 64] |= uint64_t{1} << (bucket % 64);
  wheel_summary_ |= uint64_t{1} << (bucket / 64);
  ++wheel_size_;
}

void EventLoop::WheelUnlink(TimerHandle* timer) {
  if (timer->next_ != nullptr) {
    timer->next_->prev_ = timer->prev_;
  }
  if (timer->prev_ != nullptr) {
    timer->prev_->next_ = timer->next_;
  } else {
    const uint16_t bucket = timer->bucket_;
    wheel_[bucket] = timer->next_;
    if (timer->next_ == nullptr) {
      uint64_t& bits = wheel_bits_[bucket / 64];
      bits &= ~(uint64_t{1} << (bucket % 64));
      if (bits == 0) {
        wheel_summary_ &= ~(uint64_t{1} << (bucket / 64));
      }
    }
  }
  timer->prev_ = timer->next_ = nullptr;
  --wheel_size_;
}

uint64_t EventLoop::WheelNextSlot() const {
  // Look from the cursor's bucket to the end of the ring, then wrap round:
  // an occupied bucket before the cursor's holds slots of the next lap.
  const uint64_t pos = wheel_cursor_ & kWheelMask;
  const uint64_t word = pos / 64;
  uint64_t bucket = 0;
  if (const uint64_t bits = wheel_bits_[word] & (~uint64_t{0} << (pos % 64)); bits != 0) {
    bucket = word * 64 + Ctz(bits);
  } else {
    const uint64_t later = wheel_summary_ & ((~uint64_t{0} << word) << 1);
    const uint64_t next_word = Ctz(later != 0 ? later : wheel_summary_);
    bucket = next_word * 64 + Ctz(wheel_bits_[next_word]);
  }
  return wheel_cursor_ - pos + bucket + (bucket < pos ? kWheelBuckets : 0);
}

void EventLoop::WheelFlush(uint64_t slot) {
  for (TimerHandle* t = wheel_[slot & kWheelMask]; t != nullptr;) {
    TimerHandle* next = t->next_;
    if (SlotIndexFor(t->deadline_) == slot) {
      WheelUnlink(t);
      // The heap re-sorts by the original (deadline, id) key, so the
      // bucket's list order is invisible to the dispatch sequence.
      TimerToHeap(t);
    } else {
      obs::Inc(metric_wheel_cascades_);  // due a later lap: stays parked
    }
    t = next;
  }
  wheel_cursor_ = slot + 1;
}

// --- Dispatch ---------------------------------------------------------------

bool EventLoop::PrepareTop(int64_t limit) {
  for (;;) {
    PopDead();
    if (wheel_size_ != 0) {
      const int64_t top = heap_.empty() ? kNever : heap_.front().time;
      const uint64_t slot = WheelNextSlot();
      // A wheel timer might precede (or tie) the heap top: flush its slot
      // into the heap and re-evaluate. Equal times flush too — the wheel
      // entry may carry a smaller sequence than the heap top.
      if (static_cast<int64_t>(slot << kWheelGranularityBits) <= std::min(top, limit)) {
        WheelFlush(slot);
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
