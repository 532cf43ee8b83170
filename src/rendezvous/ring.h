// Consistent-hash ring over rendezvous shards.
//
// The sharded rendezvous tier splits the peer-ID space across N
// RendezvousServer instances. Every participant — each shard and each
// client — builds the same ShardRing from the same ordered shard list, so
// ownership is a pure function of (shard list, client id) and never needs a
// coordination protocol: a client hashes its own ID to find its home shard,
// a shard hashes a registration to find the replica successor, and a
// forwarding shard hashes a target ID to find where to route a lookup.
//
// Each shard contributes 64 virtual points to the ring (hashed from its
// index, not its endpoint, so renumbering a shard's address never moves
// ownership). The count is a constant: a server and its clients must build
// the same ring to agree on every client's home shard. A key is owned by
// the shard whose point is the first at or after the key's hash, wrapping
// at the top — the classic Karger ring, which is what bounds re-mapping
// when a shard is added: only the arcs adjacent to the new shard's points
// move, unlike modulo placement which reshuffles nearly everything
// (asserted by the differential test against a naive modulo oracle).
//
// A ShardRing is a handle to one immutable state: the shard endpoints, the
// sorted vnode points and each point's ladder of distinct owners. Copies
// share that state by reference count, so a population of clients that
// each hold the ring (as the paper's clients each know S by one endpoint)
// pays for one ring, and a copy stays valid after the ring it came from is
// gone.

#ifndef SRC_RENDEZVOUS_RING_H_
#define SRC_RENDEZVOUS_RING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/netsim/address.h"

namespace natpunch {

class ShardRing {
 public:
  ShardRing() = default;
  explicit ShardRing(std::vector<Endpoint> shards);

  size_t size() const { return state_ == nullptr ? 0 : state_->shards.size(); }
  bool empty() const { return size() == 0; }
  const Endpoint& endpoint(uint32_t shard) const { return state_->shards[shard]; }

  // Shard owning `client_id`'s hash point: where the client registers.
  uint32_t HomeShard(uint64_t client_id) const { return NthOwner(client_id, 0); }

  // The n-th *distinct* shard met walking the ring clockwise from the
  // client's hash point. n = 0 is the home shard, n = 1 the ring successor
  // (the replica), and so on, wrapping modulo the shard count. Servers use
  // n = 1 as the replication target; clients walk n = 1, 2, ... as their
  // deterministic failover ladder.
  uint32_t NthOwner(uint64_t client_id, uint32_t n) const;

  // Ring successor of the client's home arc — where its replica lives.
  uint32_t ReplicaShard(uint64_t client_id) const { return NthOwner(client_id, 1); }

  // True when `ep` is one of the shard endpoints (any ring member may
  // legitimately send rendezvous traffic to a client).
  bool IsShard(const Endpoint& ep) const { return IndexOf(ep) >= 0; }
  // Index of `ep` in the shard list, or -1 when it is not a member.
  int IndexOf(const Endpoint& ep) const;

 private:
  struct State {
    std::vector<Endpoint> shards;
    std::vector<uint64_t> points;  // vnode hashes, sorted; ties broken by shard index
    // ladders[p * shards.size() + k]: the k-th distinct shard met walking
    // clockwise from point p, so NthOwner is a binary search and one index.
    std::vector<uint32_t> ladders;
  };

  std::shared_ptr<const State> state_;  // null for a default-constructed ring
};

}  // namespace natpunch

#endif  // SRC_RENDEZVOUS_RING_H_
