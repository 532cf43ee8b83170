// Typed slab allocator for per-session hot objects.
//
// The swarm workloads keep hundreds of thousands of small, identically-sized
// objects alive at once (punched sessions, TCP connections, TURN
// allocations, rendezvous registration records). Allocating each one with
// operator new costs a malloc header and scatters them across the heap;
// freeing returns the memory to malloc but never to the pool that needs it
// next. A Slab<T> instead carves chunks ("slabs") of objects, hands slots
// out from an intrusive freelist, and recycles every freed slot in O(1) —
// so a steady-state population churning sessions never grows the pool past
// its high-water mark, and sizeof(T) is the whole per-object cost.
//
// Chunks grow geometrically: the first holds one object and each later one
// doubles the pool's capacity, up to kObjectsPerSlab objects per chunk. A
// pool that only ever holds one or two objects (a churn peer's session
// pools) then costs one or two slots, not a chunk of hundreds, while a large
// pool still grows in full kObjectsPerSlab chunks.
//
// Guarantees and limits:
//  * New()/Delete() are O(1); Delete returns the slot to the freelist
//    without releasing memory (a warmed pool allocates nothing).
//  * Object addresses are stable for their lifetime (slabs never move).
//  * Reset() destroys every live object and returns all slots to the
//    freelist while KEEPING the slabs, mirroring the EventLoop/Network
//    Reset idiom: a reused arena reaches steady state with zero allocation.
//    Only the destructor frees the slabs.
//  * Not thread-safe; one pool per owning subsystem, like every other
//    container in this codebase.
//
// Observability: AttachMetrics wires mem.<pool>.live / .peak / .slabs /
// .bytes gauges into the registry (registration may allocate once; the
// alloc/free path never does — the same rule the rest of src/obs follows).
// .bytes is what the chunks hold: their headers plus capacity x slot size.
// scripts/memprof.sh folds those gauges into its per-pool breakdown.

#ifndef SRC_UTIL_SLAB_H_
#define SRC_UTIL_SLAB_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "src/obs/metrics.h"

namespace natpunch {

template <typename T, size_t kObjectsPerSlab = 256>
class Slab {
  static_assert(kObjectsPerSlab > 0, "slab chunk must hold at least one object");

 public:
  Slab() = default;
  ~Slab() {
    while (slab_head_ != nullptr) {
      SlabBlock* next = slab_head_->next;
      ::operator delete(slab_head_);
      slab_head_ = next;
    }
  }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  // Construct a T in a recycled (or fresh) slot. Only allocates when the
  // freelist is empty — once per chunk at the high-water mark, never again
  // after it.
  template <typename... Args>
  T* New(Args&&... args) {
    FreeSlot* slot = free_head_;
    if (slot == nullptr) {
      Grow();
      slot = free_head_;
    }
    free_head_ = slot->next;
    T* obj = new (slot) T(std::forward<Args>(args)...);
    ++live_;
    if (live_ > peak_) {
      peak_ = live_;
      obs::Set(metric_peak_, static_cast<int64_t>(peak_));
    }
    obs::Set(metric_live_, static_cast<int64_t>(live_));
    return obj;
  }

  // Destroy `obj` and return its slot to the freelist. O(1), never releases
  // memory. Passing a pointer that did not come from this pool is undefined.
  void Delete(T* obj) {
    if (obj == nullptr) {
      return;
    }
    obj->~T();
    Recycle(obj);
  }

  // Destroy every live object and rebuild the freelist over the existing
  // slabs. Keeps the memory: a Reset() pool re-reaches its old population
  // without allocating. Requires T to be safely destructible in slab order.
  void Reset() {
    FreeAllSlots</*destroy=*/true>();
  }

  size_t live() const { return live_; }     // objects currently allocated
  size_t peak() const { return peak_; }     // high-water live count
  size_t slab_count() const { return slab_count_; }  // chunks held (never shrinks)
  size_t capacity() const { return capacity_; }      // slots across all slabs
  // Bytes the chunks hold: every header plus capacity() slots.
  size_t bytes() const { return slab_count_ * kHeaderSize + capacity_ * kSlotSize; }

  // Register mem.<pool>.live/peak/slabs/bytes gauges. Null registry detaches.
  void AttachMetrics(obs::MetricsRegistry* registry, std::string_view pool) {
    if (registry == nullptr) {
      metric_live_ = metric_peak_ = metric_slabs_ = metric_bytes_ = nullptr;
      return;
    }
    const std::string base = "mem." + std::string(pool);
    metric_live_ = registry->GetGauge(base + ".live");
    metric_peak_ = registry->GetGauge(base + ".peak");
    metric_slabs_ = registry->GetGauge(base + ".slabs");
    metric_bytes_ = registry->GetGauge(base + ".bytes");
    obs::Set(metric_live_, static_cast<int64_t>(live_));
    obs::Set(metric_peak_, static_cast<int64_t>(peak_));
    obs::Set(metric_slabs_, static_cast<int64_t>(slab_count_));
    obs::Set(metric_bytes_, static_cast<int64_t>(bytes()));
  }

 private:
  // A freed slot doubles as a freelist node; slots are sized/aligned to fit
  // both a T and the link.
  struct FreeSlot {
    FreeSlot* next;
  };
  static constexpr size_t kSlotSize =
      sizeof(T) > sizeof(FreeSlot) ? sizeof(T) : sizeof(FreeSlot);
  static constexpr size_t kSlotAlign =
      alignof(T) > alignof(FreeSlot) ? alignof(T) : alignof(FreeSlot);

  static_assert(kSlotAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "slab chunks come from plain operator new");

  // Return the slot of a destroyed object to the freelist.
  void Recycle(void* raw) {
    FreeSlot* slot = static_cast<FreeSlot*>(raw);
    slot->next = free_head_;
    free_head_ = slot;
    --live_;
    obs::Set(metric_live_, static_cast<int64_t>(live_));
  }

  // A chunk is this header followed by `count` slots, in one allocation.
  struct SlabBlock {
    SlabBlock* next;
    size_t count;
  };
  static constexpr size_t kHeaderSize =
      (sizeof(SlabBlock) + kSlotAlign - 1) / kSlotAlign * kSlotAlign;

  static FreeSlot* SlotAt(SlabBlock* block, size_t i) {
    return reinterpret_cast<FreeSlot*>(reinterpret_cast<unsigned char*>(block) + kHeaderSize +
                                       i * kSlotSize);
  }

  void Grow() {
    const size_t count = std::clamp<size_t>(capacity_, 1, kObjectsPerSlab);
    slab_head_ = new (::operator new(kHeaderSize + count * kSlotSize)) SlabBlock{slab_head_, count};
    ++slab_count_;
    capacity_ += count;
    obs::Set(metric_slabs_, static_cast<int64_t>(slab_count_));
    obs::Set(metric_bytes_, static_cast<int64_t>(bytes()));
    // Thread the new slots onto the freelist back-to-front so allocation
    // walks the block front-to-back (friendlier to the prefetcher).
    for (size_t i = count; i-- > 0;) {
      FreeSlot* slot = SlotAt(slab_head_, i);
      slot->next = free_head_;
      free_head_ = slot;
    }
  }

  // Rebuild the freelist across all slabs, optionally destroying live
  // objects first. Live-object detection: rebuilds from scratch, so every
  // slot is recycled regardless of state; destroy=true runs ~T() on live
  // ones, which requires tracking. To keep the pool header-free we instead
  // require Reset() callers to destroy via the owning container first when
  // T's destructor has effects, or accept destructor-less reclamation for
  // trivially-destructible T.
  template <bool destroy>
  void FreeAllSlots() {
    static_assert(!destroy || std::is_trivially_destructible_v<T>,
                  "Slab::Reset() cannot run non-trivial destructors on live objects; "
                  "Delete() them through the owning container first, then Reset()");
    free_head_ = nullptr;
    for (SlabBlock* block = slab_head_; block != nullptr; block = block->next) {
      for (size_t i = block->count; i-- > 0;) {
        FreeSlot* slot = SlotAt(block, i);
        slot->next = free_head_;
        free_head_ = slot;
      }
    }
    live_ = 0;
    obs::Set(metric_live_, 0);
  }

  FreeSlot* free_head_ = nullptr;
  SlabBlock* slab_head_ = nullptr;
  size_t live_ = 0;
  size_t peak_ = 0;
  size_t slab_count_ = 0;
  size_t capacity_ = 0;  // slots across all slabs
  obs::Gauge* metric_live_ = nullptr;
  obs::Gauge* metric_peak_ = nullptr;
  obs::Gauge* metric_slabs_ = nullptr;
  obs::Gauge* metric_bytes_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_UTIL_SLAB_H_
