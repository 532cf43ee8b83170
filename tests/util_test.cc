// Unit tests for src/util: Result/Status, Rng, byte serialization, the
// open-addressing hash map.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/util/bytes.h"
#include "src/util/flat_hash.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace natpunch {
namespace {

// A <uint64_t, pointer> slot is the key and the value, nothing more.
static_assert(sizeof(FlatHashMap<uint64_t, void*>) <= 32, "FlatHashMap footprint budget");

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kAddressInUse, "port 80");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kAddressInUse);
  EXPECT_EQ(s.ToString(), "ADDRESS_IN_USE: port 80");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kAborted); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status(ErrorCode::kTimedOut, "slow");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(r.status().message(), "slow");
}

TEST(ResultTest, ImplicitErrorCode) {
  Result<std::string> r = ErrorCode::kClosed;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kClosed);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(BytesTest, RoundTripIntegers) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.WriteU32(0x0a000001);  // 10.0.0.1 — address bytes must appear in wire order
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x0a);
  EXPECT_EQ(w.data()[1], 0x00);
  EXPECT_EQ(w.data()[2], 0x00);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(BytesTest, RoundTripStringsAndBytes) {
  ByteWriter w;
  w.WriteString("hole punching");
  w.WriteBytes(Bytes{1, 2, 3});
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString(), "hole punching");
  EXPECT_EQ(r.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, ShortReadMarksBad) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.data());
  r.ReadU32();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, TruncatedLengthPrefixMarksBad) {
  ByteWriter w;
  w.WriteU16(100);  // claims 100 bytes follow; none do
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, EmptyPayloadRoundTrip) {
  ByteWriter w;
  w.WriteBytes(Bytes{});
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(FlatHashMapTest, RandomizedAgainstUnorderedMap) {
  // Differential against std::unordered_map. Keys come from small ranges so
  // tables stay at 4-32 slots, where a cluster often wraps past the last
  // slot and backward-shift deletion must carry entries across the wrap.
  // After every operation each key in range is looked up, present or not.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const uint32_t key_range = 3 + static_cast<uint32_t>(rng.NextBelow(30));
    FlatHashMap<uint32_t, uint64_t> map;
    std::unordered_map<uint32_t, uint64_t> model;
    for (int step = 0; step < 2000; ++step) {
      const uint32_t key = static_cast<uint32_t>(rng.NextBelow(key_range));
      const uint64_t value = rng.NextU64();
      const uint64_t op = rng.NextBelow(100);
      if (op < 40) {
        bool inserted = false;
        uint64_t* slot = map.FindOrInsert(key, &inserted);
        ASSERT_EQ(inserted, model.count(key) == 0) << "seed " << seed << " step " << step;
        if (inserted) {
          ASSERT_EQ(*slot, 0u);  // a new value is default-constructed
        }
        *slot = value;
        model[key] = value;
      } else if (op < 55) {
        map.InsertOrAssign(key, value);
        model[key] = value;
      } else if (op < 99) {
        ASSERT_EQ(map.Erase(key), model.erase(key) == 1) << "seed " << seed << " step " << step;
      } else {
        map.Clear();
        model.clear();
      }
      ASSERT_EQ(map.size(), model.size()) << "seed " << seed << " step " << step;
      for (uint32_t k = 0; k < key_range; ++k) {
        const uint64_t* found = map.Find(k);
        const auto it = model.find(k);
        ASSERT_EQ(found != nullptr, it != model.end())
            << "seed " << seed << " step " << step << " key " << k;
        ASSERT_EQ(map.Contains(k), found != nullptr);
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "seed " << seed << " step " << step << " key " << k;
        }
      }
      std::map<uint32_t, uint64_t> visited;
      map.ForEach([&](uint32_t k, uint64_t v) { ASSERT_TRUE(visited.emplace(k, v).second); });
      const std::map<uint32_t, uint64_t> expected(model.begin(), model.end());
      ASSERT_EQ(visited, expected) << "seed " << seed << " step " << step;
    }
  }
}

TEST(FlatHashMapTest, MoveOnlyHeapValuesAgainstUnorderedMap) {
  // The same differential with a value that owns heap memory and can only
  // move, so the table's construct-in-place, backward-shift move, rehash
  // move, Clear and destroy paths each run on a live element (ASan and
  // LeakSanitizer catch a missed destructor or a double one). The map is
  // also move-constructed and move-assigned along the way.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const uint32_t key_range = 3 + static_cast<uint32_t>(rng.NextBelow(40));
    FlatHashMap<uint32_t, std::unique_ptr<uint64_t>> map;
    std::unordered_map<uint32_t, uint64_t> model;
    for (int step = 0; step < 1500; ++step) {
      const uint32_t key = static_cast<uint32_t>(rng.NextBelow(key_range));
      const uint64_t value = rng.NextU64();
      const uint64_t op = rng.NextBelow(100);
      if (op < 40) {
        bool inserted = false;
        std::unique_ptr<uint64_t>* slot = map.FindOrInsert(key, &inserted);
        ASSERT_EQ(inserted, model.count(key) == 0) << "seed " << seed << " step " << step;
        if (inserted) {
          ASSERT_EQ(*slot, nullptr);  // a new value is default-constructed
        }
        *slot = std::make_unique<uint64_t>(value);
        model[key] = value;
      } else if (op < 55) {
        map.InsertOrAssign(key, std::make_unique<uint64_t>(value));
        model[key] = value;
      } else if (op < 96) {
        ASSERT_EQ(map.Erase(key), model.erase(key) == 1) << "seed " << seed << " step " << step;
      } else if (op < 97) {
        map.Clear();
        model.clear();
      } else if (op < 98) {
        FlatHashMap<uint32_t, std::unique_ptr<uint64_t>> moved(std::move(map));
        ASSERT_EQ(map.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
        ASSERT_EQ(map.capacity(), 0u);
        map = std::move(moved);
      } else {
        // Move-assign over a table that holds elements of its own.
        FlatHashMap<uint32_t, std::unique_ptr<uint64_t>> other;
        *other.FindOrInsert(key_range + 1) = std::make_unique<uint64_t>(value);
        other = std::move(map);
        map = std::move(other);
      }
      ASSERT_EQ(map.size(), model.size()) << "seed " << seed << " step " << step;
      for (uint32_t k = 0; k < key_range; ++k) {
        const std::unique_ptr<uint64_t>* found = map.Find(k);
        const auto it = model.find(k);
        ASSERT_EQ(found != nullptr, it != model.end())
            << "seed " << seed << " step " << step << " key " << k;
        if (found != nullptr) {
          ASSERT_NE(*found, nullptr);
          ASSERT_EQ(**found, it->second) << "seed " << seed << " step " << step << " key " << k;
        }
      }
    }
  }
}

TEST(FlatHashMapTest, FirstAllocationHasFourSlotsAndDoubles) {
  // Per-peer tables hold 1-3 entries, which fit the first allocation under
  // the 7/8 load cap; the 4th insert doubles it, and so on.
  FlatHashMap<uint64_t, int> map;
  EXPECT_EQ(map.capacity(), 0u);  // nothing is allocated before the first insert
  const size_t expected_capacity[] = {4, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16};
  for (size_t i = 0; i < std::size(expected_capacity); ++i) {
    map.InsertOrAssign(100 + i, static_cast<int>(i));
    EXPECT_EQ(map.capacity(), expected_capacity[i]) << "after insert " << i + 1;
  }
  EXPECT_EQ(map.size(), std::size(expected_capacity));

  // Clear keeps the slot array, so refilling to the same size never grows.
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 16u);
  EXPECT_EQ(map.Find(100), nullptr);
  for (size_t i = 0; i < std::size(expected_capacity); ++i) {
    map.InsertOrAssign(200 + i, static_cast<int>(i));
  }
  EXPECT_EQ(map.capacity(), 16u);
  EXPECT_EQ(*map.Find(212), 12);
}

TEST(FlatHashMapTest, SwarmPuncherSessionsFitInTwoThousandSlots) {
  // A swarm puncher holds 1,563 sessions. Under the 7/8 cap they fit in
  // 2,048 slots, where the old 3/4 cap needed 4,096.
  FlatHashMap<uint64_t, void*> map;
  for (uint64_t nonce = 1; nonce <= 1563; ++nonce) {
    map.InsertOrAssign(HashMix64(nonce), nullptr);
  }
  EXPECT_EQ(map.size(), 1563u);
  EXPECT_EQ(map.capacity(), 2048u);
}

}  // namespace
}  // namespace natpunch
