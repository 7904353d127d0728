// pcq::dyn::Cpma — a compressed Packed Memory Array over 64-bit edge keys.
//
// §II names PCSR/PPCSR as the heavyweight cures for CSR's staticness; the
// CPMA of Wheatman/Buluç (arXiv 2305.05055) goes one step further and
// compresses the PMA itself: each leaf stores its keys as a head plus
// byte-aligned varint deltas, so the mutable tier pays roughly the same
// bytes-per-edge as the gap-encoded static baselines instead of 8 raw
// bytes per key. Density bounds are therefore measured in *bytes*, not
// slots — a leaf is "full" when its encoded payload approaches the leaf
// byte budget, and rebalances redistribute encoded bytes evenly across the
// smallest enclosing power-of-two window still under its density bound
// (growing or shrinking the leaf array when even the root is out of
// bounds).
//
// Mutations are batch-parallel (the paper's headline design point): a
// batch is sorted + deduped with pcq::par, partitioned by leaf with one
// binary search per affected leaf boundary, merged leaf-by-leaf in
// parallel, and the windows an overflow/underflow touches are rebalanced
// bottom-up with the merge/encode work parallelised across leaves.
//
// Reads are snapshot-consistent and never wait on a writer: the entire
// structure is an immutable State published through an atomic shared_ptr
// (an epoch scheme — readers pin the epoch they loaded, writers publish a
// new one, and an old epoch is reclaimed when its last reader drops it).
// A reader holding a Snapshot can iterate, point-query and range-scan
// while any number of insert_batch/erase_batch calls land; it simply keeps
// seeing the version it pinned, never a half-rebalanced window. Writers
// serialize on an internal mutex; untouched leaves are structurally shared
// between epochs (shared_ptr per leaf), so a batch copies only the leaves
// it rewrites plus the O(#leaves) directory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/thread_annotations.hpp"

namespace pcq::dyn {

/// Packed edge key u << 32 | v, ordered by (u, v): a node's neighbour row
/// is the contiguous key range [u << 32, (u + 1) << 32).
using Key = std::uint64_t;

inline constexpr Key key_of(graph::VertexId u, graph::VertexId v) {
  return (static_cast<Key>(u) << 32) | v;
}
inline constexpr graph::VertexId key_u(Key k) {
  return static_cast<graph::VertexId>(k >> 32);
}
inline constexpr graph::VertexId key_v(Key k) {
  return static_cast<graph::VertexId>(k & 0xffffffffu);
}

class Cpma {
 public:
  struct Config {
    /// Byte budget per leaf payload. 256 bytes holds ~60-120 delta-coded
    /// neighbours of a social-network row — big enough to amortise the
    /// head, small enough that a leaf rewrite stays cache-resident.
    std::size_t leaf_bytes = 256;
    /// Root density bounds on used/capacity bytes: grow above max, shrink
    /// below min (leaf-level bounds interpolate toward 1.0 / 0.05).
    double max_root_density = 0.70;
    double min_root_density = 0.20;
  };

  /// One immutable delta-compressed leaf: varint(head) then varint deltas
  /// (strictly positive — keys are unique). Shared between epochs.
  struct Leaf {
    std::uint32_t count = 0;
    std::vector<std::uint8_t> bytes;
  };
  using LeafPtr = std::shared_ptr<const Leaf>;

  static constexpr Key kNoKey = ~Key{0};

  /// One published epoch. Immutable after publication.
  struct State {
    Config config;
    std::vector<LeafPtr> leaves;
    /// heads[i]: first key of leaf i, kNoKey when the leaf is empty.
    std::vector<Key> heads;
    /// search_heads[i]: head of the nearest non-empty leaf at or before i
    /// (0 for a leading run of empties) — non-decreasing, so the leaf
    /// responsible for a key is one upper_bound away.
    std::vector<Key> search_heads;
    std::size_t count = 0;  ///< live keys
    std::size_t bytes = 0;  ///< encoded payload bytes across leaves
    std::uint64_t version = 0;
  };
  using StatePtr = std::shared_ptr<const State>;

  /// A pinned epoch: read-only, stable for the Snapshot's lifetime.
  class Snapshot {
   public:
    Snapshot() = default;
    explicit Snapshot(StatePtr state) : state_(std::move(state)) {}

    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    [[nodiscard]] std::size_t size() const { return state_->count; }
    [[nodiscard]] bool empty() const { return state_->count == 0; }
    [[nodiscard]] std::uint64_t version() const { return state_->version; }
    [[nodiscard]] std::size_t num_leaves() const {
      return state_->leaves.size();
    }
    /// Encoded payload + directory footprint.
    [[nodiscard]] std::size_t size_bytes() const;

    [[nodiscard]] bool contains(Key key) const;

    /// All values v with key_of(u, v) present, ascending.
    [[nodiscard]] std::vector<graph::VertexId> row(graph::VertexId u) const;

    /// Calls fn(Key) for every key in ascending order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      std::vector<Key> buf;
      for (const LeafPtr& leaf : state_->leaves) {
        decode_leaf(*leaf, buf);
        for (const Key k : buf) fn(k);
      }
    }

    /// All keys, ascending (testing / compaction).
    [[nodiscard]] std::vector<Key> keys() const;

    /// Structural invariants: keys strictly increasing across the whole
    /// array, directory consistent with leaf payloads, every leaf within
    /// the byte budget, aggregate count/bytes correct.
    [[nodiscard]] bool check_invariants() const;

    [[nodiscard]] const State& state() const { return *state_; }

   private:
    friend class Cpma;
    StatePtr state_;
  };

  Cpma() : Cpma(Config()) {}
  explicit Cpma(Config config);

  /// Pins the current epoch: one atomic shared_ptr load. Not lock-free —
  /// libstdc++ guards it with a mutex from a hashed pool — but it never
  /// takes write_mu_, so a reader never waits on a batch.
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::size_t size() const { return snapshot().size(); }
  [[nodiscard]] std::size_t size_bytes() const {
    return snapshot().size_bytes();
  }
  [[nodiscard]] bool contains(Key key) const {
    return snapshot().contains(key);
  }

  /// Batch-parallel insert. `keys` need not be sorted or unique; returns
  /// the number of keys that were actually new. Publishes one new epoch.
  std::size_t insert_batch(std::span<const Key> keys, int num_threads);

  /// Batch-parallel erase; returns the number of keys actually removed.
  std::size_t erase_batch(std::span<const Key> keys, int num_threads);

  /// One merged mutation: `inserts` and `erases` must be sorted, unique
  /// and disjoint. Applies both sides and publishes a single epoch —
  /// the primitive HybridGraph's toggle semantics need (an add-edge batch
  /// erases pending removals and inserts fresh additions atomically).
  /// `changed_*` (optional) receive one flag per input key: 1 if the key
  /// was actually inserted / erased.
  struct ApplyResult {
    std::size_t inserted = 0;
    std::size_t erased = 0;
  };
  ApplyResult apply_batch(std::span<const Key> inserts,
                          std::span<const Key> erases, int num_threads,
                          std::vector<std::uint8_t>* changed_inserts = nullptr,
                          std::vector<std::uint8_t>* changed_erases = nullptr)
      PCQ_EXCLUDES(write_mu_);

  /// Drops every key (one empty-epoch publication).
  void clear() PCQ_EXCLUDES(write_mu_);

  /// Sort + dedupe helper shared with callers that pre-normalise batches.
  static void normalize_batch(std::vector<Key>& keys, int num_threads);

  /// Decodes one leaf's keys into `out` (cleared first).
  static void decode_leaf(const Leaf& leaf, std::vector<Key>& out);

 private:
  struct RebalanceStats;

  [[nodiscard]] StatePtr load_state() const {
    return std::atomic_load_explicit(&state_, std::memory_order_acquire);
  }
  void publish(StatePtr next) {
    std::atomic_store_explicit(&state_, std::move(next),
                               std::memory_order_release);
  }

  /// Builds a fresh state from scratch at ~50% root byte density.
  static StatePtr build_state(const Config& config, std::vector<Key> keys,
                              std::uint64_t version, int num_threads,
                              RebalanceStats* stats);

  ApplyResult apply_locked(std::span<const Key> inserts,
                           std::span<const Key> erases, int num_threads,
                           std::vector<std::uint8_t>* changed_inserts,
                           std::vector<std::uint8_t>* changed_erases)
      PCQ_REQUIRES(write_mu_);

  Config config_;
  // pcq:epoch-published — mutate only via std::atomic_store_explicit /
  // atomic_exchange; readers pin epochs with atomic_load and never take
  // write_mu_.
  StatePtr state_;
  util::Mutex write_mu_;  ///< serializes mutators; readers never take it
};

}  // namespace pcq::dyn
