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
// Deliberately minimal: Find / FindOrInsert / InsertOrAssign / Erase /
// Clear. No iterators — every caller in this codebase does point lookups,
// and the NAT expiry path walks its own intrusive lists instead of the
// table (hash order must never drive observable behavior; see
// DESIGN.md "NAT datapath fast path").

#ifndef SRC_UTIL_FLAT_HASH_H_
#define SRC_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

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

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

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
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        if (inserted != nullptr) {
          *inserted = false;
        }
        return &slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].used = true;
    slots_[i].key = key;
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
    // Backward-shift: pull every displaced element of the cluster whose home
    // precedes the hole back over it, leaving no tombstone.
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) {
        break;
      }
      const size_t home = HomeOf(slots_[j].key);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i].key = std::move(slots_[j].key);
        slots_[i].value = std::move(slots_[j].value);
        i = j;
      }
    }
    slots_[i].key = Key{};
    slots_[i].value = Value{};
    slots_[i].used = false;
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
    for (Slot& slot : slots_) {
      if (slot.used) {
        fn(slot.key, slot.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    for (const Slot& slot : slots_) {
      if (slot.used) {
        fn(slot.key, slot.value);
      }
    }
  }

  // Destroys the elements, keeps the slot array (zero-allocation reuse).
  void Clear() {
    if (size_ == 0) {
      return;
    }
    for (Slot& slot : slots_) {
      if (slot.used) {
        slot.key = Key{};
        slot.value = Value{};
        slot.used = false;
      }
    }
    size_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  static constexpr size_t kNpos = static_cast<size_t>(-1);
  // 4 slots hold 3 entries under the 3/4 load cap. Most tables are per peer
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
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  void MaybeGrow() {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>();
    slots_.resize(new_capacity);  // not assign(): Slot is move-only when Value is
    mask_ = new_capacity - 1;
    for (Slot& slot : old) {
      if (!slot.used) {
        continue;
      }
      size_t i = HomeOf(slot.key);
      while (slots_[i].used) {
        i = (i + 1) & mask_;
      }
      slots_[i].key = std::move(slot.key);
      slots_[i].value = std::move(slot.value);
      slots_[i].used = true;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace natpunch

#endif  // SRC_UTIL_FLAT_HASH_H_
