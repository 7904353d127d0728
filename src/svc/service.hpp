// pcq::svc — in-process concurrent batch query service over the packed
// CSR/TCSR.
//
// Architecture (shared-nothing per shard):
//
//   clients ──try_push──► shard 0: [bounded MPMC queue] ──► worker 0 ─┐
//           ──try_push──► shard 1: [bounded MPMC queue] ──► worker 1 ─┤► batch
//                ...                                                  │ kernels
//           ──try_push──► shard S: [bounded MPMC queue] ──► worker S ─┘
//
// Requests are routed to a shard by hash(u); each shard owns its queue,
// its metrics block and one persistent worker (a pcq::par::WorkerPool
// job), so shards never share mutable state — the only cross-thread
// traffic is the queue handoff and the immutable graph reads.
//
// Each worker runs the adaptive micro-batching loop: pop a batch (flush
// on batch-size OR batch-window deadline, whichever first), partition it
// by query kind, and answer every kind with ONE call into the paper's
// parallel batch kernels (Algorithms 6/7 for neighbour/edge queries, the
// temporal variants for TCSR kinds). The batch window adapts to load: a
// size-triggered flush (full batch) relaxes the window back toward the
// configured one, a deadline-triggered flush (partial batch) halves it —
// so a saturated service batches at full size while a lightly-loaded one
// answers at single-request latency.
//
// Backpressure: the queue is bounded and try_push never blocks — a full
// shard rejects (Status::kRejected). A request whose deadline passes
// while queued is answered kExpired without touching the graph.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "csr/bitpacked_csr.hpp"
#include "csr/query.hpp"
#include "svc/metrics.hpp"
#include "svc/mpmc_queue.hpp"
#include "svc/request.hpp"
#include "tcsr/tcsr.hpp"

namespace pcq::par {
class WorkerPool;
}

namespace pcq::dyn {
class HybridGraph;
}

namespace pcq::svc {

struct ServiceConfig {
  int shards = 1;                   ///< queues/workers (>= 1)
  std::size_t queue_capacity = 4096;///< per shard; full queue => kRejected
  std::size_t max_batch = 256;      ///< flush when this many are gathered
  std::chrono::microseconds batch_window{200};  ///< flush deadline
  bool adaptive_window = true;      ///< shrink window under light load
  int kernel_threads = 1;           ///< threads per batch-kernel call
  csr::RowSearch edge_search = csr::RowSearch::kBinary;
  /// Test/CI hook: sleep this long after dispatching each query batch,
  /// before the kernels run, so the added time lands inside the measured
  /// service phase. Deterministically produces slow requests for the
  /// slow-query log and tail-sampling tests. 0 (the default) = off.
  std::chrono::microseconds debug_kernel_delay{0};
};

/// One step of the adaptive batch-window controller (pure, so it is
/// unit-testable without a live service). A near-full batch (>= 7/8 of
/// max_batch — arrivals are keeping up with the window, even if the exact
/// size trigger didn't fire) relaxes the window back toward the configured
/// one; a partial batch means the deadline flushed and the wait was pure
/// added latency, so the window halves — but never below a 1us floor, or
/// an idle spell would decay it to a permanent 0 from which a moderately
/// loaded shard could never re-form batches.
inline std::chrono::microseconds adapt_window(std::chrono::microseconds window,
                                              std::size_t batch_size,
                                              const ServiceConfig& config) {
  const std::size_t near_full = config.max_batch - config.max_batch / 8;
  if (batch_size >= near_full) {
    return std::min(config.batch_window,
                    window + config.batch_window / 8 +
                        std::chrono::microseconds{1});
  }
  return std::max(window / 2, std::chrono::microseconds{1});
}

class QueryService {
 public:
  /// `graph` must outlive the service. `history` may be null (temporal
  /// queries then answer kUnsupported). Mutation kinds answer kUnsupported
  /// on this read-only form.
  QueryService(const csr::BitPackedCsr& graph,
               const tcsr::DifferentialTcsr* history, ServiceConfig config);

  /// Live-ingest form: reads AND mutations flow through `graph`'s CPMA
  /// tier. Reads pin one HybridGraph::View per batch (snapshot-consistent
  /// against concurrent mutations from other shards); a batch's mutations
  /// coalesce into one add_edges/remove_edges call, after which the worker
  /// opportunistically runs the ratio-triggered compaction. Readers never
  /// take the graph's writer mutex and never wait on a batch or
  /// compaction; only co-writers block on it.
  QueryService(dyn::HybridGraph& graph, const tcsr::DifferentialTcsr* history,
               ServiceConfig config);

  /// Stops and drains (see stop()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Callback completion API. Returns true if the request was admitted
  /// (the callback will fire exactly once, on a worker thread); false if
  /// it was rejected by backpressure — the callback is NOT invoked, so
  /// open-loop clients can count rejections synchronously.
  bool submit(const Request& request, Callback callback);

  /// Future completion API. Rejected requests complete the future
  /// immediately with Status::kRejected.
  [[nodiscard]] std::future<Response> submit(const Request& request);

  /// Closes all queues, answers everything still queued, joins workers.
  /// Idempotent; called by the destructor.
  void stop();

  /// Aggregated counters + latency/batch-size percentiles across shards.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Instantaneous queued-request count per shard (telemetry gauges; each
  /// read takes that shard's queue mutex briefly).
  [[nodiscard]] std::vector<std::size_t> queue_depths() const;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Pending {
    Request request;
    Callback callback;
    Clock::time_point enqueued;
  };

  struct Shard {
    explicit Shard(std::size_t capacity) : queue(capacity) {}
    BoundedMpmcQueue<Pending> queue;
    ShardMetrics metrics;
    /// Per-batch context for slow-query capture; written only by the
    /// shard's own worker at dispatch, read by complete() on that same
    /// thread — no synchronisation needed.
    Clock::time_point batch_dispatch{};
    std::size_t batch_n = 0;
    std::uint32_t index = 0;
  };

  std::size_t shard_of(graph::VertexId u) const;
  void shard_loop(Shard& shard);
  void execute_batch(Shard& shard, std::vector<Pending>& batch);
  void execute_mutations(Shard& shard, std::vector<Pending>& batch,
                         const std::vector<std::size_t>& ids, bool add);
  void complete(Shard& shard, Pending& pending, Response&& response,
                Clock::time_point now);
  [[nodiscard]] graph::VertexId num_nodes() const;
  void start_workers();

  /// Exactly one of these is set; the static pair answers reads with the
  /// batch kernels, the dynamic one through per-batch pinned Views.
  const csr::BitPackedCsr* static_graph_ = nullptr;
  dyn::HybridGraph* dynamic_ = nullptr;
  const tcsr::DifferentialTcsr* history_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<par::WorkerPool> pool_;
  Clock::time_point started_;
  /// exchange() makes stop() idempotent under concurrent callers (signal
  /// path vs. destructor) — a plain bool read-modify-write here is a race.
  std::atomic<bool> stopped_{false};
};

}  // namespace pcq::svc
