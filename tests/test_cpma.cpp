// pcq::dyn::Cpma — differential tests against a std::set<Key> oracle,
// structural invariants after every batch, snapshot isolation, and
// concurrent readers racing batch writers (the TSan preset runs these).
#include "dyn/cpma.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace pcq::dyn {
namespace {

using pcq::util::SplitMix64;

std::vector<Key> random_keys(SplitMix64& rng, std::size_t n,
                             std::uint64_t key_space) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.next_below(key_space));
  return keys;
}

/// Snapshot contents == oracle contents, plus structural invariants.
void expect_matches(const Cpma& cpma, const std::set<Key>& oracle) {
  const Cpma::Snapshot snap = cpma.snapshot();
  ASSERT_TRUE(snap.valid());
  ASSERT_TRUE(snap.check_invariants());
  ASSERT_EQ(snap.size(), oracle.size());
  const std::vector<Key> got = snap.keys();
  ASSERT_TRUE(std::equal(got.begin(), got.end(), oracle.begin(), oracle.end()));
}

TEST(Cpma, EmptyState) {
  const Cpma cpma;
  const Cpma::Snapshot snap = cpma.snapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_TRUE(snap.empty());
  EXPECT_FALSE(snap.contains(0));
  EXPECT_FALSE(snap.contains(Cpma::kNoKey - 1));
  EXPECT_TRUE(snap.row(5).empty());
  EXPECT_TRUE(snap.check_invariants());
}

TEST(Cpma, SingleBatchInsert) {
  Cpma cpma;
  SplitMix64 rng(1);
  std::vector<Key> keys = random_keys(rng, 5000, 1u << 20);
  EXPECT_GT(cpma.insert_batch(keys, 4), 0u);
  std::set<Key> oracle(keys.begin(), keys.end());
  expect_matches(cpma, oracle);
  for (const Key k : oracle) EXPECT_TRUE(cpma.contains(k));
  EXPECT_FALSE(cpma.contains(1u << 21));
}

TEST(Cpma, UnsortedDuplicateInput) {
  Cpma cpma;
  const std::vector<Key> keys = {9, 3, 9, 1, 3, 7, 1, 1};
  EXPECT_EQ(cpma.insert_batch(keys, 2), 4u);
  // Re-inserting the same multiset is a no-op.
  EXPECT_EQ(cpma.insert_batch(keys, 2), 0u);
  expect_matches(cpma, {1, 3, 7, 9});
}

TEST(Cpma, EraseBatch) {
  Cpma cpma;
  std::vector<Key> keys;
  for (Key k = 0; k < 3000; ++k) keys.push_back(k * 3);
  cpma.insert_batch(keys, 4);
  std::vector<Key> to_erase;
  for (Key k = 0; k < 3000; k += 2) to_erase.push_back(k * 3);
  to_erase.push_back(1);  // absent — must not count
  EXPECT_EQ(cpma.erase_batch(to_erase, 4), 1500u);
  std::set<Key> oracle;
  for (Key k = 1; k < 3000; k += 2) oracle.insert(k * 3);
  expect_matches(cpma, oracle);
}

TEST(Cpma, EraseEverything) {
  Cpma cpma;
  SplitMix64 rng(2);
  std::vector<Key> keys = random_keys(rng, 8000, 1u << 24);
  cpma.insert_batch(keys, 4);
  const std::size_t live = cpma.size();
  EXPECT_EQ(cpma.erase_batch(keys, 4), live);
  expect_matches(cpma, {});
}

TEST(Cpma, ApplyBatchChangedFlags) {
  Cpma cpma;
  cpma.insert_batch(std::vector<Key>{10, 20, 30}, 1);
  // inserts: 20 exists (no change), 25 fresh. erases: 30 exists, 40 absent.
  const std::vector<Key> ins = {20, 25};
  const std::vector<Key> ers = {30, 40};
  std::vector<std::uint8_t> ci, ce;
  const auto result = cpma.apply_batch(ins, ers, 2, &ci, &ce);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_EQ(result.erased, 1u);
  ASSERT_EQ(ci.size(), 2u);
  ASSERT_EQ(ce.size(), 2u);
  EXPECT_EQ(ci[0], 0u);
  EXPECT_EQ(ci[1], 1u);
  EXPECT_EQ(ce[0], 1u);
  EXPECT_EQ(ce[1], 0u);
  expect_matches(cpma, {10, 20, 25});
}

TEST(Cpma, InterleavedBatchesVsOracle) {
  Cpma cpma;
  std::set<Key> oracle;
  SplitMix64 rng(3);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.next_below(2000);
    std::vector<Key> batch = random_keys(rng, n, 1u << 16);
    if (rng.next_bool(0.6)) {
      const std::size_t added = cpma.insert_batch(batch, 4);
      std::size_t expect_added = 0;
      for (const Key k : std::set<Key>(batch.begin(), batch.end()))
        if (oracle.insert(k).second) ++expect_added;
      EXPECT_EQ(added, expect_added) << "round " << round;
    } else {
      const std::size_t erased = cpma.erase_batch(batch, 4);
      std::size_t expect_erased = 0;
      for (const Key k : std::set<Key>(batch.begin(), batch.end()))
        if (oracle.erase(k) > 0) ++expect_erased;
      EXPECT_EQ(erased, expect_erased) << "round " << round;
    }
    ASSERT_TRUE(cpma.snapshot().check_invariants()) << "round " << round;
    ASSERT_EQ(cpma.size(), oracle.size()) << "round " << round;
  }
  expect_matches(cpma, oracle);
}

TEST(Cpma, GrowAndShrink) {
  Cpma cpma;
  std::vector<Key> keys;
  for (Key k = 0; k < 100'000; ++k) keys.push_back(k);
  cpma.insert_batch(keys, 8);
  const std::size_t grown_leaves = cpma.snapshot().num_leaves();
  EXPECT_GT(grown_leaves, 1u);
  // Drain to 1% — the root byte density falls below min and the array
  // shrinks instead of limping along at ~0 density.
  std::vector<Key> most(keys.begin(), keys.begin() + 99'000);
  cpma.erase_batch(most, 8);
  EXPECT_LT(cpma.snapshot().num_leaves(), grown_leaves);
  std::set<Key> oracle(keys.begin() + 99'000, keys.end());
  expect_matches(cpma, oracle);
}

TEST(Cpma, DenseKeysCompress) {
  // Consecutive keys delta-encode to ~1 byte each; the footprint must be
  // far below the 8 bytes/key of an uncompressed PMA.
  Cpma cpma;
  std::vector<Key> keys;
  for (Key k = 0; k < 50'000; ++k) keys.push_back(1'000'000 + k);
  cpma.insert_batch(keys, 4);
  EXPECT_LT(cpma.size_bytes(), keys.size() * 4);
}

TEST(Cpma, RowScan) {
  Cpma cpma;
  std::vector<Key> keys;
  for (graph::VertexId v = 10; v < 500; v += 7) keys.push_back(key_of(42, v));
  keys.push_back(key_of(41, 9999));
  keys.push_back(key_of(43, 0));
  cpma.insert_batch(keys, 2);
  // A hub of 3000 neighbours (~3 KB of deltas) lands in a second batch and
  // spreads over many leaves; its row scan must stitch them back in order.
  std::vector<graph::VertexId> hub;
  std::vector<Key> hub_keys;
  for (graph::VertexId v = 0; v < 9000; v += 3) {
    hub.push_back(v);
    hub_keys.push_back(key_of(7, v));
  }
  cpma.insert_batch(hub_keys, 2);
  const Cpma::Snapshot snap = cpma.snapshot();
  const auto& heads = snap.state().heads;
  const auto hub_leaves = std::count_if(heads.begin(), heads.end(), [](Key h) {
    return h != Cpma::kNoKey && key_u(h) == 7;
  });
  ASSERT_GT(hub_leaves, 4);
  EXPECT_EQ(snap.row(7), hub);
  std::vector<graph::VertexId> expect;
  for (graph::VertexId v = 10; v < 500; v += 7) expect.push_back(v);
  EXPECT_EQ(snap.row(42), expect);
  EXPECT_TRUE(snap.row(40).empty());
  EXPECT_EQ(snap.row(43), std::vector<graph::VertexId>{0});
}

TEST(Cpma, SnapshotIsolation) {
  Cpma cpma;
  cpma.insert_batch(std::vector<Key>{1, 2, 3}, 1);
  const Cpma::Snapshot before = cpma.snapshot();
  cpma.insert_batch(std::vector<Key>{4, 5}, 1);
  cpma.erase_batch(std::vector<Key>{1}, 1);
  // The pinned epoch still sees exactly {1, 2, 3}.
  EXPECT_EQ(before.size(), 3u);
  EXPECT_TRUE(before.contains(1));
  EXPECT_FALSE(before.contains(4));
  const Cpma::Snapshot after = cpma.snapshot();
  EXPECT_EQ(after.size(), 4u);
  EXPECT_FALSE(after.contains(1));
  EXPECT_GT(after.version(), before.version());
}

TEST(Cpma, ClearResets) {
  Cpma cpma;
  SplitMix64 rng(4);
  std::vector<Key> keys = random_keys(rng, 10'000, 1u << 30);
  cpma.insert_batch(keys, 4);
  cpma.clear();
  expect_matches(cpma, {});
  cpma.insert_batch(std::vector<Key>{7}, 1);
  expect_matches(cpma, {7});
}

TEST(Cpma, TinyLeafConfig) {
  // The minimum 64-byte leaf budget stresses window splits: a handful of
  // wide-delta keys fills a leaf.
  Cpma::Config config;
  config.leaf_bytes = 64;
  Cpma cpma(config);
  std::set<Key> oracle;
  SplitMix64 rng(5);
  for (int round = 0; round < 20; ++round) {
    std::vector<Key> batch = random_keys(rng, 500, ~std::uint64_t{0} >> 1);
    cpma.insert_batch(batch, 4);
    for (const Key k : batch) oracle.insert(k);
    ASSERT_TRUE(cpma.snapshot().check_invariants()) << "round " << round;
  }
  expect_matches(cpma, oracle);
}

// Readers iterate pinned snapshots while a writer lands batches: every
// snapshot must be internally consistent (invariants hold, monotone
// versions) no matter where the writer is. Run under TSan via the tsan
// preset's tests_dyn label.
TEST(Cpma, ConcurrentReadersDuringBatches) {
  Cpma cpma;
  std::atomic<bool> done{false};
  std::atomic<int> checked{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const Cpma::Snapshot snap = cpma.snapshot();
        ASSERT_GE(snap.version(), last_version);
        last_version = snap.version();
        ASSERT_TRUE(snap.check_invariants());
        // The pinned epoch must not change size under us.
        const std::size_t size = snap.size();
        std::size_t seen = 0;
        snap.for_each([&](Key) { ++seen; });
        ASSERT_EQ(seen, size);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  SplitMix64 rng(6);
  std::set<Key> oracle;
  for (int round = 0; round < 30; ++round) {
    std::vector<Key> batch = random_keys(rng, 1500, 1u << 18);
    if (round % 3 == 2) {
      cpma.erase_batch(batch, 2);
      for (const Key k : batch) oracle.erase(k);
    } else {
      cpma.insert_batch(batch, 2);
      for (const Key k : batch) oracle.insert(k);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(checked.load(), 0);
  expect_matches(cpma, oracle);
}

}  // namespace
}  // namespace pcq::dyn
