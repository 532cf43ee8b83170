// Small-buffer-optimized packet payload.
//
// Every protocol in this repo (rendezvous wire, peer wire, TURN, natcheck,
// prediction probes) sends messages well under 64 bytes; only TCP bulk
// transfer produces jumbo segments. Payload stores up to kInlineCapacity
// bytes inline inside the Packet itself and falls back to a heap buffer only
// beyond that, so the steady-state hole-punching hot path — clone at the
// sender, move hop-to-hop, rewrite in the NAT — performs zero heap
// allocations per packet.

#ifndef SRC_NETSIM_PAYLOAD_H_
#define SRC_NETSIM_PAYLOAD_H_

#include <cstdint>
#include <cstring>

#include "src/util/bytes.h"

namespace natpunch {

class Payload {
 public:
  static constexpr size_t kInlineCapacity = 64;

  Payload() = default;

  Payload(const uint8_t* data, size_t size) { assign(data, size); }
  Payload(const Bytes& bytes) { assign(bytes.data(), bytes.size()); }  // NOLINT: implicit
  Payload(Bytes&& bytes) { assign(bytes.data(), bytes.size()); }       // NOLINT: implicit

  Payload(const Payload& other) { assign(other.data(), other.size_); }
  Payload& operator=(const Payload& other) {
    if (this != &other) assign(other.data(), other.size_);
    return *this;
  }

  Payload(Payload&& other) noexcept { Steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }

  ~Payload() { Release(); }

  operator ConstByteSpan() const { return ConstByteSpan(data(), size_); }  // NOLINT: implicit

  const uint8_t* data() const { return is_heap() ? heap_data_ : inline_; }
  uint8_t* data() { return is_heap() ? heap_data_ : inline_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_inline() const { return !is_heap(); }

  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }

  uint8_t& operator[](size_t i) { return data()[i]; }
  const uint8_t& operator[](size_t i) const { return data()[i]; }

  void clear() {
    // Keeps any heap buffer for reuse; a cleared jumbo payload re-filled with
    // a small message stays on its old buffer, which is fine — capacity only
    // ever grows.
    size_ = 0;
  }

  void assign(const uint8_t* data, size_t size) {
    uint8_t* dst = Reserve(size);
    if (size > 0) std::memcpy(dst, data, size);
    size_ = static_cast<uint32_t>(size);
  }

  void append(const uint8_t* data, size_t size) {
    size_t old_size = size_;
    resize(old_size + size);
    if (size > 0) std::memcpy(this->data() + old_size, data, size);
  }

  // Value-preserving; new bytes are zero-filled.
  void resize(size_t new_size) {
    if (new_size > Capacity()) {
      size_t new_cap = Capacity() * 2;
      if (new_cap < new_size) new_cap = new_size;
      uint8_t* buf = new uint8_t[new_cap];
      if (size_ > 0) std::memcpy(buf, data(), size_);
      Release();
      heap_data_ = buf;
      heap_capacity_ = static_cast<uint32_t>(new_cap);
    }
    if (new_size > size_) std::memset(data() + size_, 0, new_size - size_);
    size_ = static_cast<uint32_t>(new_size);
  }

  Bytes ToBytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const Bytes& a, const Payload& b) { return b == a; }

 private:
  // The heap flag is the capacity itself: a heap buffer always has
  // capacity > 0, the inline buffer always reports 0. Folding the bool away
  // (and narrowing capacity to u32) trims Payload from 80 to 72 bytes —
  // which the Lan per-delivery pools multiply by every in-flight packet.
  bool is_heap() const { return heap_capacity_ != 0; }
  size_t Capacity() const { return is_heap() ? heap_capacity_ : kInlineCapacity; }

  // Ensures capacity >= size without preserving contents; returns the
  // buffer to write.
  uint8_t* Reserve(size_t size) {
    if (size <= Capacity()) return data();
    Release();
    heap_data_ = new uint8_t[size];
    heap_capacity_ = static_cast<uint32_t>(size);
    return heap_data_;
  }

  void Release() {
    if (is_heap()) {
      delete[] heap_data_;
      heap_capacity_ = 0;
    }
  }

  void Steal(Payload& other) noexcept {
    if (other.is_heap()) {
      heap_data_ = other.heap_data_;
      heap_capacity_ = other.heap_capacity_;
      other.heap_capacity_ = 0;
    } else {
      heap_capacity_ = 0;
      if (other.size_ > 0) std::memcpy(inline_, other.inline_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  union {
    uint8_t inline_[kInlineCapacity];
    uint8_t* heap_data_;
  };
  // Separate from the union so clear() can keep a heap buffer for reuse.
  uint32_t heap_capacity_ = 0;
  uint32_t size_ = 0;
};

static_assert(sizeof(Payload) == 72, "Payload footprint budget (64 inline + 8 meta)");

}  // namespace natpunch

#endif  // SRC_NETSIM_PAYLOAD_H_
