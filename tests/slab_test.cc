// Slab allocator unit tests: a differential check against a plain
// operator-new oracle (same construct/destroy sequence, same observable
// object states), freelist reuse and Reset() reuse guarantees, stats
// accounting, metrics gauges, and the compile-time footprint budgets the
// swarm memory diet relies on (a struct that grows past its budget fails
// the build, not a bench three PRs later).

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/resilient_session.h"
#include "src/core/udp_puncher.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/lan.h"
#include "src/netsim/packet.h"
#include "src/netsim/payload.h"
#include "src/obs/metrics.h"
#include "src/rendezvous/client.h"
#include "src/rendezvous/ring.h"
#include "src/util/slab.h"

namespace natpunch {
namespace {

// ---------------------------------------------------------------------------
// Footprint budgets. These are the struct-packing contracts of the memory
// diet; sizes may shrink freely but growing one is an explicit decision.
// ---------------------------------------------------------------------------
static_assert(sizeof(TimerHandle) == 56, "TimerHandle footprint budget");
static_assert(sizeof(Payload) == 72, "Payload footprint budget (64 inline + 8 meta)");
static_assert(sizeof(Packet) <= 136, "Packet footprint budget");
static_assert(sizeof(UdpP2pSession) <= 120, "UdpP2pSession footprint budget");
static_assert(sizeof(ResilientSession) <= 472, "ResilientSession footprint budget");
static_assert(sizeof(Endpoint) == 8, "Endpoint packs into a single word");
static_assert(sizeof(ShardRing) == 16, "ShardRing is a handle to one shared state");
static_assert(sizeof(UdpRendezvousClient) <= 384, "UdpRendezvousClient footprint budget");
// What a one-host-per-peer population pays per site Lan: no packet storage.
static_assert(sizeof(Lan) <= 360, "Lan footprint budget");
// One delivery-pool slot per packet in flight, network-wide.
static_assert(sizeof(PendingDelivery) <= 176, "PendingDelivery footprint budget");

struct Tracked {
  explicit Tracked(int v) : value(v) { ++constructed; }
  ~Tracked() { ++destroyed; }
  int value;
  uint64_t pad[4] = {};  // big enough that FreeSlot reuse would corrupt it
  static int constructed;
  static int destroyed;
};
int Tracked::constructed = 0;
int Tracked::destroyed = 0;

struct Pod {
  uint64_t a = 0;
  uint32_t b = 0;
};
static_assert(std::is_trivially_destructible_v<Pod>);

TEST(SlabTest, NewConstructsDeleteDestroys) {
  Tracked::constructed = Tracked::destroyed = 0;
  Slab<Tracked, 8> pool;
  Tracked* t = pool.New(42);
  EXPECT_EQ(t->value, 42);
  EXPECT_EQ(Tracked::constructed, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.Delete(t);
  EXPECT_EQ(Tracked::destroyed, 1);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabTest, DeleteNullIsNoop) {
  Slab<Pod, 8> pool;
  pool.Delete(nullptr);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slab_count(), 0u);
}

TEST(SlabTest, FreedSlotIsReusedBeforeGrowing) {
  Slab<Pod, 4> pool;
  Pod* first = pool.New();
  pool.Delete(first);
  Pod* second = pool.New();
  // LIFO freelist: the hot slot comes straight back.
  EXPECT_EQ(first, second);
  EXPECT_EQ(pool.slab_count(), 1u);
}

TEST(SlabTest, AddressesStableAcrossGrowth) {
  Slab<Pod, 4> pool;
  std::vector<Pod*> objs;
  for (int i = 0; i < 64; ++i) {
    Pod* p = pool.New();
    p->a = static_cast<uint64_t>(i);
    objs.push_back(p);
  }
  EXPECT_EQ(pool.slab_count(), 18u);  // 1 + 1 + 2, then fifteen chunks of 4
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(objs[i]->a, static_cast<uint64_t>(i)) << "object " << i << " moved or corrupted";
  }
}

// A pool that only ever holds one object pays for one slot, not a chunk of
// kObjectsPerSlab: each peer of a large population owns session pools that
// hold one session apiece.
TEST(SlabTest, OneObjectPoolHoldsOnlyTheFirstChunk) {
  struct Session {
    uint8_t bytes[472];  // ResilientSession's footprint budget
  };
  Slab<Session, 256> pool;
  ASSERT_NE(pool.New(), nullptr);
  EXPECT_EQ(pool.slab_count(), 1u);
  // One slot: the chunk holds one Session's bytes.
  EXPECT_EQ(pool.capacity(), 1u);
}

// Each new chunk doubles the capacity until chunks reach kObjectsPerSlab,
// then the pool grows by whole chunks.
TEST(SlabTest, ChunksGrowGeometricallyUpToTheChunkSize) {
  Slab<Pod, 8> pool;
  std::vector<size_t> capacities;
  for (int i = 0; i < 40; ++i) {
    pool.New();
    if (capacities.empty() || capacities.back() != pool.capacity()) {
      capacities.push_back(pool.capacity());
    }
  }
  EXPECT_EQ(capacities, (std::vector<size_t>{1, 2, 4, 8, 16, 24, 32, 40}));
}

TEST(SlabTest, WarmedPoolNeverGrowsPastHighWaterMark) {
  Slab<Pod, 8> pool;
  std::vector<Pod*> objs;
  for (int i = 0; i < 24; ++i) {
    objs.push_back(pool.New());
  }
  const size_t slabs_at_peak = pool.slab_count();
  EXPECT_EQ(slabs_at_peak, 6u);  // 1 + 1 + 2 + 4 + 8 + 8
  // Churn the full population many times over: the freelist must absorb it.
  for (int round = 0; round < 10; ++round) {
    for (Pod* p : objs) {
      pool.Delete(p);
    }
    objs.clear();
    for (int i = 0; i < 24; ++i) {
      objs.push_back(pool.New());
    }
    EXPECT_EQ(pool.slab_count(), slabs_at_peak);
  }
  EXPECT_EQ(pool.peak(), 24u);
}

// Differential test: drive the pool and a plain new/delete oracle through
// the same randomized alloc/free/read/write schedule and require identical
// observable values at every step.
TEST(SlabTest, DifferentialAgainstNewDeleteOracle) {
  Slab<Pod, 16> pool;
  struct Pair {
    Pod* pooled;
    std::unique_ptr<Pod> oracle;
  };
  std::vector<Pair> live;
  std::mt19937_64 rng(20260808);
  for (int step = 0; step < 5000; ++step) {
    const bool alloc = live.empty() || (rng() % 100 < 55);
    if (alloc) {
      Pair pair{pool.New(), std::make_unique<Pod>()};
      const uint64_t v = rng();
      pair.pooled->a = v;
      pair.oracle->a = v;
      pair.pooled->b = static_cast<uint32_t>(step);
      pair.oracle->b = static_cast<uint32_t>(step);
      live.push_back(std::move(pair));
    } else {
      const size_t victim = rng() % live.size();
      ASSERT_EQ(live[victim].pooled->a, live[victim].oracle->a) << "step " << step;
      ASSERT_EQ(live[victim].pooled->b, live[victim].oracle->b) << "step " << step;
      pool.Delete(live[victim].pooled);
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    ASSERT_EQ(pool.live(), live.size());
  }
  for (const Pair& pair : live) {
    ASSERT_EQ(pair.pooled->a, pair.oracle->a);
    ASSERT_EQ(pair.pooled->b, pair.oracle->b);
    pool.Delete(pair.pooled);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabTest, ResetKeepsSlabsAndReusesThem) {
  Slab<Pod, 8> pool;
  for (int i = 0; i < 20; ++i) {
    pool.New();
  }
  const size_t slabs = pool.slab_count();
  pool.Reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slab_count(), slabs) << "Reset must keep the slabs";
  // Refill to the same population: zero growth.
  for (int i = 0; i < 20; ++i) {
    pool.New();
  }
  EXPECT_EQ(pool.slab_count(), slabs);
}

TEST(SlabTest, StatsAccounting) {
  Slab<Pod, 8> pool;
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slab_count(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);  // no bytes held

  std::vector<Pod*> objs;
  for (int i = 0; i < 9; ++i) {
    objs.push_back(pool.New());
  }
  EXPECT_EQ(pool.live(), 9u);
  EXPECT_EQ(pool.peak(), 9u);
  EXPECT_EQ(pool.slab_count(), 5u);  // 1 + 1 + 2 + 4 + 8
  EXPECT_EQ(pool.capacity(), 16u);   // 16 Pods' bytes held

  pool.Delete(objs.back());
  objs.pop_back();
  EXPECT_EQ(pool.live(), 8u);
  EXPECT_EQ(pool.peak(), 9u) << "peak is a high-water mark";
}

TEST(SlabTest, MetricsGaugesTrackPool) {
  obs::MetricsRegistry registry;
  Slab<Pod, 4> pool;
  pool.AttachMetrics(&registry, "test_pool");
  EXPECT_EQ(registry.GetGauge("mem.test_pool.live")->value(), 0);
  EXPECT_EQ(registry.GetGauge("mem.test_pool.bytes")->value(), 0);

  std::vector<Pod*> objs;
  for (int i = 0; i < 6; ++i) {
    objs.push_back(pool.New());
  }
  EXPECT_EQ(registry.GetGauge("mem.test_pool.live")->value(), 6);
  EXPECT_EQ(registry.GetGauge("mem.test_pool.peak")->value(), 6);
  EXPECT_EQ(registry.GetGauge("mem.test_pool.slabs")->value(), 4);  // 1 + 1 + 2 + 4
  // Four 16 B chunk headers (a link and a count) and 8 slots of one Pod.
  EXPECT_EQ(pool.bytes(), 4 * 16 + 8 * sizeof(Pod));
  EXPECT_EQ(registry.GetGauge("mem.test_pool.bytes")->value(),
            static_cast<int64_t>(pool.bytes()));
  for (Pod* p : objs) {
    pool.Delete(p);
  }
  EXPECT_EQ(registry.GetGauge("mem.test_pool.live")->value(), 0);
  EXPECT_EQ(registry.GetGauge("mem.test_pool.peak")->value(), 6);
  EXPECT_EQ(registry.GetGauge("mem.test_pool.bytes")->value(),
            static_cast<int64_t>(pool.bytes()));  // Delete keeps the chunks
}

TEST(SlabTest, DestructorsRunOnDeleteOnly) {
  Tracked::constructed = Tracked::destroyed = 0;
  Slab<Tracked, 4> pool;
  std::vector<Tracked*> objs;
  for (int i = 0; i < 10; ++i) {
    objs.push_back(pool.New(i));
  }
  EXPECT_EQ(Tracked::constructed, 10);
  EXPECT_EQ(Tracked::destroyed, 0);
  for (Tracked* t : objs) {
    pool.Delete(t);
  }
  EXPECT_EQ(Tracked::destroyed, 10);
}

}  // namespace
}  // namespace natpunch
