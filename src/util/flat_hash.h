// Open-addressing hash map for the per-packet hot paths (NAT translation
// indexes, transport demux tables).
//
// Linear probing over a power-of-two slot array, tombstone-free: Erase uses
// backward-shift deletion (Knuth 6.4 algorithm R), so probe sequences never
// accumulate dead slots and lookups stay O(1 + load) forever regardless of
// churn. Clear() destroys the elements but keeps the slot array, which is
// what lets the steady-state zero-allocation guarantee survive mapping
// churn: once a table has hit its high-water capacity, insert/erase cycles
// never touch the heap.
//
// A slot is just the key and the value: a <uint64_t, T*> slot is 16 bytes.
// Occupancy lives in one byte per slot, stored after the slots in the same
// block, so a table is one allocation and a rehash is one more. Only
// occupied slots hold constructed elements. The load cap is 7/8, so a
// swarm puncher's 1,563 sessions fit in 2,048 slots.
//
// Deliberately minimal: Find / FindOrInsert / InsertOrAssign / Erase /
// Clear. No iterators — every caller in this codebase does point lookups,
// and the NAT expiry path walks its own intrusive lists instead of the
// table (hash order must never drive observable behavior; see
// DESIGN.md "NAT datapath fast path").

#ifndef SRC_UTIL_FLAT_HASH_H_
#define SRC_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <utility>

namespace natpunch {

// splitmix64 finalizer. Applied on top of every user hash so that identity
// hashes (std::hash<uint16_t>) still spread across the masked low bits.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatHashMap {
 public:
  FlatHashMap() = default;
  ~FlatHashMap() { Release(); }

  FlatHashMap(FlatHashMap&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        used_(std::exchange(other.used_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mask_(std::exchange(other.mask_, 0)) {}
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::exchange(other.slots_, nullptr);
      used_ = std::exchange(other.used_, nullptr);
      size_ = std::exchange(other.size_, 0);
      mask_ = std::exchange(other.mask_, 0);
    }
    return *this;
  }
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  Value* Find(const Key& key) {
    const size_t i = ProbeFor(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const Value* Find(const Key& key) const {
    const size_t i = ProbeFor(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  bool Contains(const Key& key) const { return ProbeFor(key) != kNpos; }

  // Value for `key`, default-constructed and inserted when absent;
  // `*inserted` reports which happened.
  Value* FindOrInsert(const Key& key, bool* inserted = nullptr) {
    MaybeGrow();
    size_t i = HomeOf(key);
    while (used_[i] != 0) {
      if (slots_[i].key == key) {
        if (inserted != nullptr) {
          *inserted = false;
        }
        return &slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    ::new (static_cast<void*>(slots_ + i)) Slot{key, Value{}};
    used_[i] = 1;
    ++size_;
    if (inserted != nullptr) {
      *inserted = true;
    }
    return &slots_[i].value;
  }

  template <typename V>
  Value* InsertOrAssign(const Key& key, V&& value) {
    Value* slot = FindOrInsert(key);
    *slot = std::forward<V>(value);
    return slot;
  }

  bool Erase(const Key& key) {
    size_t i = ProbeFor(key);
    if (i == kNpos) {
      return false;
    }
    slots_[i].~Slot();
    // Backward-shift: pull every displaced element of the cluster whose home
    // precedes the hole back over it, leaving no tombstone. The hole at `i`
    // holds no element while the loop looks for the next one to move in.
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (used_[j] == 0) {
        break;
      }
      const size_t home = HomeOf(slots_[j].key);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        ::new (static_cast<void*>(slots_ + i)) Slot(std::move(slots_[j]));
        slots_[j].~Slot();
        i = j;
      }
    }
    used_[i] = 0;
    --size_;
    return true;
  }

  // Visit every (key, value) pair in slot (hash) order. For teardown and
  // stats sweeps only — hash order must never drive observable protocol
  // behavior (see DESIGN.md "NAT datapath fast path"). The callback must not
  // insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    if (size_ == 0) {
      return;
    }
    for (size_t i = 0; i <= mask_; ++i) {
      if (used_[i] != 0) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    for (size_t i = 0; i <= mask_; ++i) {
      if (used_[i] != 0) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

  // Destroys the elements, keeps the slot array (zero-allocation reuse).
  void Clear() {
    if (size_ == 0) {
      return;
    }
    DestroyAll();
    std::memset(used_, 0, capacity());
    size_ = 0;
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "the slot block comes from plain operator new");

  static constexpr size_t kNpos = static_cast<size_t>(-1);
  // 4 slots hold 3 entries under the 7/8 load cap. Most tables are per peer
  // (a host's sockets, a puncher's sessions and callbacks, a manager's
  // sessions), hold 1-3 entries, and exist thousands of times over; a table
  // that outgrows 4 slots doubles through 8, 16 and on.
  static constexpr size_t kMinCapacity = 4;

  size_t HomeOf(const Key& key) const {
    return static_cast<size_t>(HashMix64(static_cast<uint64_t>(Hash{}(key)))) & mask_;
  }

  // Index of `key`'s slot, or kNpos. Probing always terminates: the load
  // factor cap guarantees an empty slot.
  size_t ProbeFor(const Key& key) const {
    if (size_ == 0) {
      return kNpos;
    }
    size_t i = HomeOf(key);
    while (used_[i] != 0) {
      if (slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  void MaybeGrow() {
    if (slots_ == nullptr || (size_ + 1) * 8 > capacity() * 7) {
      Rehash(slots_ == nullptr ? kMinCapacity : capacity() * 2);
    }
  }

  // Move every element into a fresh block of `new_capacity` slots followed
  // by their occupancy bytes, then free the old block.
  void Rehash(size_t new_capacity) {
    Slot* const old_slots = slots_;
    const uint8_t* const old_used = used_;
    const size_t old_capacity = capacity();
    slots_ = static_cast<Slot*>(::operator new(new_capacity * (sizeof(Slot) + 1)));
    used_ = reinterpret_cast<uint8_t*>(slots_ + new_capacity);
    std::memset(used_, 0, new_capacity);
    mask_ = new_capacity - 1;
    for (size_t k = 0; k < old_capacity; ++k) {
      if (old_used[k] == 0) {
        continue;
      }
      size_t i = HomeOf(old_slots[k].key);
      while (used_[i] != 0) {
        i = (i + 1) & mask_;
      }
      ::new (static_cast<void*>(slots_ + i)) Slot(std::move(old_slots[k]));
      used_[i] = 1;
      old_slots[k].~Slot();
    }
    ::operator delete(old_slots);
  }

  void DestroyAll() {
    for (size_t i = 0; i <= mask_; ++i) {
      if (used_[i] != 0) {
        slots_[i].~Slot();
      }
    }
  }

  void Release() {
    if (size_ != 0) {
      DestroyAll();
    }
    ::operator delete(slots_);
    slots_ = nullptr;
    used_ = nullptr;
    size_ = 0;
    mask_ = 0;
  }

  Slot* slots_ = nullptr;    // capacity() slots, then capacity() occupancy bytes
  uint8_t* used_ = nullptr;  // 1 where the slot holds an element
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace natpunch

#endif  // SRC_UTIL_FLAT_HASH_H_
