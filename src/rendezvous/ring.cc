#include "src/rendezvous/ring.h"

#include <algorithm>

#include "src/util/flat_hash.h"

namespace natpunch {
namespace {

// Separates vnode points from client-id points in the hash space; without a
// salt, a client whose id equals (shard << 32 | vnode) would land exactly on
// a vnode point, which is harmless but makes the oracle test fiddly.
constexpr uint64_t kVnodeSalt = 0x53484152445250ULL;  // "SHARDRP"

// Virtual points per shard.
constexpr uint32_t kVnodes = 64;

}  // namespace

ShardRing::ShardRing(std::vector<Endpoint> shards) {
  struct Point {
    uint64_t hash;
    uint32_t shard;
  };
  const size_t n = shards.size();
  std::vector<Point> points;
  points.reserve(n * kVnodes);
  for (uint32_t shard = 0; shard < n; ++shard) {
    for (uint32_t vnode = 0; vnode < kVnodes; ++vnode) {
      const uint64_t hash =
          HashMix64(kVnodeSalt ^ (static_cast<uint64_t>(shard) << 32) ^ vnode);
      points.push_back({hash, shard});
    }
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });

  auto state = std::make_shared<State>();
  state->shards = std::move(shards);
  state->points.reserve(points.size());
  state->ladders.reserve(points.size() * n);
  std::vector<char> seen(n);
  for (size_t start = 0; start < points.size(); ++start) {
    state->points.push_back(points[start].hash);
    std::fill(seen.begin(), seen.end(), 0);
    // Every shard has points, so the walk meets all n shards within one lap.
    for (size_t step = 0, distinct = 0; distinct < n; ++step) {
      const uint32_t shard = points[(start + step) % points.size()].shard;
      if (seen[shard] == 0) {
        seen[shard] = 1;
        state->ladders.push_back(shard);
        ++distinct;
      }
    }
  }
  state_ = std::move(state);
}

uint32_t ShardRing::NthOwner(uint64_t client_id, uint32_t n) const {
  if (state_ == nullptr || state_->points.empty()) {
    return 0;
  }
  const std::vector<uint64_t>& points = state_->points;
  size_t start = std::lower_bound(points.begin(), points.end(), HashMix64(client_id)) -
                 points.begin();
  if (start == points.size()) {
    start = 0;  // wrap past the top of the hash space
  }
  const size_t shards = state_->shards.size();
  return state_->ladders[start * shards + n % shards];
}

int ShardRing::IndexOf(const Endpoint& ep) const {
  for (size_t i = 0; i < size(); ++i) {
    if (state_->shards[i] == ep) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace natpunch
