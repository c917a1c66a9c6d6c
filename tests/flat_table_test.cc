#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace her {
namespace {

// ---------------------------------------------------------------------------
// FlatTable vs std::unordered_map oracle across randomized workloads
// ---------------------------------------------------------------------------

TEST(FlatTableTest, EmptyTable) {
  FlatTable<int> t;
  EXPECT_EQ(t.Size(), 0u);
  EXPECT_TRUE(t.Empty());
  EXPECT_EQ(t.Find(42), nullptr);
  EXPECT_FALSE(t.Erase(42));
  EXPECT_DOUBLE_EQ(t.LoadFactor(), 0.0);
  t.Clear();  // clearing an unallocated table is a no-op
  EXPECT_EQ(t.Size(), 0u);
}

TEST(FlatTableTest, InsertFindBasics) {
  FlatTable<int> t;
  auto [v1, ins1] = t.TryEmplace(7, 70);
  EXPECT_TRUE(ins1);
  EXPECT_EQ(*v1, 70);
  auto [v2, ins2] = t.TryEmplace(7, 99);
  EXPECT_FALSE(ins2);  // try_emplace semantics: resident value untouched
  EXPECT_EQ(*v2, 70);
  EXPECT_EQ(t.Size(), 1u);
  ASSERT_NE(t.Find(7), nullptr);
  EXPECT_EQ(*t.Find(7), 70);
  t.InsertOrAssign(7, 99);
  EXPECT_EQ(*t.Find(7), 99);
  EXPECT_EQ(t.Size(), 1u);
}

TEST(FlatTableTest, KeyZeroAndExtremes) {
  FlatTable<int> t;
  t.TryEmplace(0, 1);
  t.TryEmplace(UINT64_MAX, 2);
  ASSERT_NE(t.Find(0), nullptr);
  EXPECT_EQ(*t.Find(0), 1);
  ASSERT_NE(t.Find(UINT64_MAX), nullptr);
  EXPECT_EQ(*t.Find(UINT64_MAX), 2);
  EXPECT_TRUE(t.Erase(0));
  EXPECT_EQ(t.Find(0), nullptr);
  EXPECT_NE(t.Find(UINT64_MAX), nullptr);
}

/// Randomized insert/find/erase trace replayed against unordered_map.
template <typename MakeValue>
void OracleWorkload(uint64_t seed, size_t ops, uint64_t key_space,
                    MakeValue make_value) {
  using V = decltype(make_value(0u));
  FlatTable<V> t;
  std::unordered_map<uint64_t, V> oracle;
  uint64_t state = seed;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t r = SplitMix64(state);
    const uint64_t key = SplitMix64(state) % key_space;
    switch (r % 4) {
      case 0:
      case 1: {  // insert-if-absent
        const V value = make_value(static_cast<uint32_t>(i));
        auto [slot, inserted] = t.TryEmplace(key, value);
        const auto [it, o_inserted] = oracle.try_emplace(key, value);
        EXPECT_EQ(inserted, o_inserted);
        EXPECT_EQ(*slot, it->second);
        break;
      }
      case 2: {  // find
        const V* found = t.Find(key);
        auto it = oracle.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
      case 3: {  // erase
        EXPECT_EQ(t.Erase(key), oracle.erase(key) != 0);
        break;
      }
    }
    ASSERT_EQ(t.Size(), oracle.size());
  }
  // Full-content audit in both directions.
  size_t visited = 0;
  t.ForEach([&](uint64_t key, const V& value) {
    ++visited;
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, oracle.size());
  for (const auto& [key, value] : oracle) {
    const V* found = t.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

TEST(FlatTableTest, OracleSmallKeySpaceChurn) {
  // Tight key space: heavy erase/reinsert traffic exercises tombstone
  // probing and in-place rehash.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    OracleWorkload(seed, 6000, 128, [](uint32_t i) { return static_cast<int>(i); });
  }
}

TEST(FlatTableTest, OracleLargeKeySpaceGrowth) {
  // Wide key space: mostly fresh inserts, exercises repeated doubling.
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    OracleWorkload(seed, 8000, 1u << 30,
                   [](uint32_t i) { return static_cast<int>(i * 3); });
  }
}

TEST(FlatTableTest, OracleNonTrivialValueType) {
  // std::string slots exceed one cache line -> single-slot buckets, and the
  // destructor/placement-new paths run under churn.
  OracleWorkload(99, 4000, 512, [](uint32_t i) {
    return std::string("value-") + std::to_string(i % 57);
  });
}

TEST(FlatTableTest, OracleVectorValues) {
  OracleWorkload(7, 3000, 256, [](uint32_t i) {
    return std::vector<int>(i % 9, static_cast<int>(i));
  });
}

TEST(FlatTableTest, SharedPtrValuesDropRefsOnClear) {
  auto marker = std::make_shared<int>(5);
  {
    FlatTable<std::shared_ptr<int>> t;
    for (uint64_t k = 0; k < 100; ++k) t.TryEmplace(k, marker);
    EXPECT_EQ(marker.use_count(), 101);
    t.Erase(3);
    EXPECT_EQ(marker.use_count(), 100);
    t.Clear();
    EXPECT_EQ(marker.use_count(), 1);
    for (uint64_t k = 0; k < 10; ++k) t.TryEmplace(k, marker);
  }  // destructor releases the rest
  EXPECT_EQ(marker.use_count(), 1);
}

TEST(FlatTableTest, CopyAndMoveSemantics) {
  FlatTable<std::string> a;
  for (uint64_t k = 0; k < 300; ++k) {
    a.TryEmplace(k * 17, std::string("v") + std::to_string(k));
  }
  FlatTable<std::string> b(a);  // deep copy
  EXPECT_EQ(b.Size(), a.Size());
  b.InsertOrAssign(0, "changed");
  EXPECT_EQ(*a.Find(0), "v0");  // copy is independent
  EXPECT_EQ(*b.Find(0), "changed");

  FlatTable<std::string> c;
  c = a;  // copy assign over an empty table
  EXPECT_EQ(c.Size(), a.Size());
  c = b;  // copy assign over a full table
  EXPECT_EQ(*c.Find(0), "changed");

  FlatTable<std::string> d(std::move(c));
  EXPECT_EQ(d.Size(), a.Size());
  EXPECT_EQ(c.Size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  d = std::move(b);
  EXPECT_EQ(*d.Find(0), "changed");
}

TEST(FlatTableTest, ReserveAvoidsGrowth) {
  FlatTable<int> t;
  t.Reserve(10000);
  const double lf_before = t.LoadFactor();
  EXPECT_DOUBLE_EQ(lf_before, 0.0);
  for (uint64_t k = 0; k < 10000; ++k) t.TryEmplace(k, 1);
  EXPECT_EQ(t.Size(), 10000u);
  EXPECT_GT(t.LoadFactor(), 0.0);
  EXPECT_LE(t.LoadFactor(), 7.0 / 8.0 + 1e-9);
}

TEST(FlatTableTest, EraseDuringForEachIsSafe) {
  FlatTable<int> t;
  for (uint64_t k = 0; k < 500; ++k) t.TryEmplace(k, static_cast<int>(k));
  t.ForEach([&](uint64_t key, int&) {
    if (key % 2 == 0) t.Erase(key);
  });
  EXPECT_EQ(t.Size(), 250u);
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(t.Find(k) != nullptr, k % 2 == 1) << k;
  }
}

// ---------------------------------------------------------------------------
// Batched-vs-scalar probe equivalence
// ---------------------------------------------------------------------------

TEST(FlatTableTest, FindBatchMatchesScalarFind) {
  FlatTable<double> t;
  uint64_t state = 42;
  for (size_t i = 0; i < 5000; ++i) {
    const uint64_t key = SplitMix64(state) % 8192;
    t.TryEmplace(key, static_cast<double>(key) * 0.5);
  }
  for (size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 64u, 1000u}) {
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = SplitMix64(state) % 16384;
    std::vector<double> out(n, -1.0);
    std::vector<uint8_t> found(n, 0xee);
    const size_t hits = t.FindBatch(keys, out.data(), found.data());
    size_t expect_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const double* scalar = t.Find(keys[i]);
      EXPECT_EQ(found[i] != 0, scalar != nullptr) << i;
      if (scalar != nullptr) {
        EXPECT_EQ(out[i], *scalar) << i;
        ++expect_hits;
      } else {
        EXPECT_EQ(out[i], -1.0) << i;  // miss slots untouched
      }
    }
    EXPECT_EQ(hits, expect_hits);
  }
}

TEST(FlatTableTest, FindBatchDuplicateKeys) {
  FlatTable<int> t;
  t.TryEmplace(5, 50);
  const std::vector<uint64_t> keys = {5, 6, 5, 5, 6};
  std::vector<int> out(keys.size(), 0);
  std::vector<uint8_t> found(keys.size(), 0);
  EXPECT_EQ(t.FindBatch(keys, out.data(), found.data()), 3u);
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(found[1], 0);
  EXPECT_EQ(found[2], 1);
  EXPECT_EQ(out[3], 50);
}

// ---------------------------------------------------------------------------
// ShardedFlatMemo: cap eviction + counters + batched probes
// ---------------------------------------------------------------------------

TEST(ShardedFlatMemoTest, FindInsertAndHitCounting) {
  ShardedFlatMemo<double> memo(1 << 10);
  double out = 0.0;
  EXPECT_FALSE(memo.Find(3, &out));
  EXPECT_EQ(memo.Hits(), 0u);
  memo.Insert(3, 1.5);
  EXPECT_TRUE(memo.Find(3, &out));
  EXPECT_EQ(out, 1.5);
  EXPECT_EQ(memo.Hits(), 1u);
  memo.Insert(3, 9.9);  // try_emplace semantics: resident value kept
  EXPECT_TRUE(memo.Find(3, &out));
  EXPECT_EQ(out, 1.5);
  EXPECT_EQ(memo.Size(), 1u);
}

TEST(ShardedFlatMemoTest, CapEvictionResetsOneShardAndCounts) {
  constexpr size_t kCap = 8;
  ShardedFlatMemo<int> memo(kCap);
  // Fill one shard to its cap, then one more insert into the same shard
  // must wholesale-reset it (the CachingVertexScorer eviction policy).
  const size_t target = ShardedFlatMemo<int>::ShardOf(0);
  std::vector<uint64_t> same_shard;
  for (uint64_t k = 0; same_shard.size() < kCap + 1; ++k) {
    if (ShardedFlatMemo<int>::ShardOf(k) == target) same_shard.push_back(k);
  }
  for (size_t i = 0; i < kCap; ++i) {
    memo.Insert(same_shard[i], static_cast<int>(i));
  }
  EXPECT_EQ(memo.Size(), kCap);
  EXPECT_EQ(memo.Evictions(), 0u);
  memo.Insert(same_shard[kCap], 999);
  EXPECT_EQ(memo.Evictions(), 1u);
  EXPECT_EQ(memo.Size(), 1u);  // only the overflowing insert survives
  int out = 0;
  EXPECT_TRUE(memo.Find(same_shard[kCap], &out));
  EXPECT_EQ(out, 999);
  EXPECT_FALSE(memo.Find(same_shard[0], &out));
}

TEST(ShardedFlatMemoTest, FindBatchMatchesScalarAndCounts) {
  ShardedFlatMemo<double> memo(1 << 12);
  uint64_t state = 17;
  for (size_t i = 0; i < 3000; ++i) {
    const uint64_t key = SplitMix64(state) % 4096;
    memo.Insert(key, static_cast<double>(key) + 0.25);
  }
  std::vector<uint64_t> keys(777);
  for (auto& k : keys) k = SplitMix64(state) % 8192;
  std::vector<double> out(keys.size(), -1.0);
  std::vector<uint8_t> found(keys.size(), 0);
  memo.FindBatch(keys, out.data(), found.data());
  EXPECT_EQ(memo.ProbeBatches(), 1u);
  EXPECT_EQ(memo.ProbeLen(), keys.size());
  const size_t hits_after_batch = memo.Hits();
  size_t scalar_hits = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    double v = -1.0;
    const bool hit = memo.Find(keys[i], &v);
    EXPECT_EQ(found[i] != 0, hit) << i;
    if (hit) {
      EXPECT_EQ(out[i], v) << i;
      ++scalar_hits;
    }
  }
  EXPECT_EQ(hits_after_batch, scalar_hits);
  // Scalar probes count toward ProbeLen too (the hit-rate denominator).
  EXPECT_EQ(memo.ProbeBatches(), 1u);
  EXPECT_EQ(memo.ProbeLen(), 2 * keys.size());
  EXPECT_LE(memo.Hits(), memo.ProbeLen());
  EXPECT_GT(memo.LoadFactor(), 0.0);
}

// ---------------------------------------------------------------------------
// Concurrent sharded-memo stress (run under TSan by run_tier1.sh)
// ---------------------------------------------------------------------------

TEST(ShardedFlatMemoTest, ConcurrentStress) {
  ShardedFlatMemo<double> memo(1 << 8);  // small cap: frequent evictions
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<size_t> scalar_finds{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, &scalar_finds, t] {
      uint64_t state = 1000 + static_cast<uint64_t>(t);
      std::vector<uint64_t> batch_keys(32);
      std::vector<double> batch_out(32);
      std::vector<uint8_t> batch_found(32);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t r = SplitMix64(state);
        const uint64_t key = SplitMix64(state) % 4096;
        if (r % 8 == 0) {
          for (auto& k : batch_keys) k = SplitMix64(state) % 4096;
          memo.FindBatch(batch_keys, batch_out.data(), batch_found.data());
          // A hit must deliver the value every inserter wrote for that key.
          for (size_t j = 0; j < batch_keys.size(); ++j) {
            if (batch_found[j] != 0) {
              ASSERT_EQ(batch_out[j], static_cast<double>(batch_keys[j]) * 2.0);
            }
          }
        } else if (r % 8 < 5) {
          double out = 0.0;
          scalar_finds.fetch_add(1, std::memory_order_relaxed);
          if (memo.Find(key, &out)) {
            ASSERT_EQ(out, static_cast<double>(key) * 2.0);
          }
        } else {
          memo.Insert(key, static_cast<double>(key) * 2.0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Counters are coherent: every batch was counted with its length, and
  // every scalar Find as one key.
  EXPECT_EQ(memo.ProbeLen(), memo.ProbeBatches() * 32 + scalar_finds.load());
  EXPECT_LE(memo.Size(), 16u * (1u << 8));
  // A final sweep still sees internally consistent values.
  double out = 0.0;
  for (uint64_t k = 0; k < 4096; ++k) {
    if (memo.Find(k, &out)) ASSERT_EQ(out, static_cast<double>(k) * 2.0);
  }
}

TEST(FlatTableTest, PairKeyPacksHighLow) {
  EXPECT_EQ(PairKey(0, 0), 0u);
  EXPECT_EQ(PairKey(1, 0), uint64_t{1} << 32);
  EXPECT_EQ(PairKey(0, 1), 1u);
  EXPECT_EQ(PairKey(0xffffffffu, 0xffffffffu), UINT64_MAX);
  EXPECT_NE(PairKey(2, 3), PairKey(3, 2));
}

}  // namespace
}  // namespace her
