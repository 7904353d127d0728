// End-to-end tests of the pcq::svc batch query service: every query kind
// must agree with the direct kernel answer for every batching
// configuration, and the admission-control paths (reject / expire /
// invalid / unsupported) must answer without touching the graph.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "tcsr/journeys.hpp"
#include "util/rng.hpp"

namespace pcq::svc {
namespace {

using graph::VertexId;
using namespace std::chrono_literals;

struct Fixture {
  Fixture() {
    graph::EdgeList list =
        graph::rmat(1 << 10, 20'000, 0.57, 0.19, 0.19, 11, 2);
    list.sort(2);
    list.dedupe();
    csr = csr::build_bitpacked_csr_from_sorted(list, 1 << 10, 2);

    graph::TemporalEdgeList events;
    util::SplitMix64 rng(5);
    for (int i = 0; i < 4000; ++i)
      events.push_back({static_cast<VertexId>(rng.next_below(200)),
                        static_cast<VertexId>(rng.next_below(200)),
                        static_cast<graph::TimeFrame>(rng.next_below(8))});
    events.sort(2);
    tcsr = tcsr::DifferentialTcsr::build(events, 0, 0, 2);
  }
  csr::BitPackedCsr csr;
  tcsr::DifferentialTcsr tcsr;
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

Request make(QueryKind kind, VertexId u, VertexId v = 0,
             graph::TimeFrame t = 0) {
  Request r;
  r.kind = kind;
  r.u = u;
  r.v = v;
  r.t = t;
  return r;
}

/// Submits every request via the future API and returns the responses.
std::vector<Response> run_all(QueryService& service,
                              const std::vector<Request>& requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& r : requests) futures.push_back(service.submit(r));
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

/// Every kind answered correctly under the given config.
void check_correctness(ServiceConfig config) {
  const Fixture& f = fixture();
  QueryService service(f.csr, &f.tcsr, config);

  util::SplitMix64 rng(17);
  std::vector<Request> requests;
  for (int i = 0; i < 600; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(f.csr.num_nodes()));
    const auto v = static_cast<VertexId>(rng.next_below(f.csr.num_nodes()));
    const auto tu = static_cast<VertexId>(rng.next_below(f.tcsr.num_nodes()));
    const auto tv = static_cast<VertexId>(rng.next_below(f.tcsr.num_nodes()));
    const auto t =
        static_cast<graph::TimeFrame>(rng.next_below(f.tcsr.num_frames()));
    switch (i % 6) {
      case 0: requests.push_back(make(QueryKind::kDegree, u)); break;
      case 1: requests.push_back(make(QueryKind::kNeighbors, u)); break;
      case 2: requests.push_back(make(QueryKind::kEdgeExists, u, v)); break;
      case 3: requests.push_back(make(QueryKind::kTemporalEdge, tu, tv, t)); break;
      case 4: requests.push_back(make(QueryKind::kTemporalNeighbors, tu, 0, t)); break;
      default: requests.push_back(make(QueryKind::kForemostArrival, tu, tv, 0)); break;
    }
  }
  const std::vector<Response> responses = run_all(service, requests);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    const Response& r = responses[i];
    ASSERT_EQ(r.status, Status::kOk) << i;
    EXPECT_GE(r.latency.count(), 0) << i;
    switch (q.kind) {
      case QueryKind::kDegree:
        EXPECT_EQ(r.degree, f.csr.degree(q.u)) << i;
        break;
      case QueryKind::kNeighbors:
        EXPECT_EQ(r.neighbors, f.csr.neighbors(q.u)) << i;
        break;
      case QueryKind::kEdgeExists:
        EXPECT_EQ(r.exists, f.csr.has_edge(q.u, q.v)) << i;
        break;
      case QueryKind::kTemporalEdge:
        EXPECT_EQ(r.exists, f.tcsr.edge_active(q.u, q.v, q.t)) << i;
        break;
      case QueryKind::kTemporalNeighbors:
        EXPECT_EQ(r.neighbors, f.tcsr.neighbors_at(q.u, q.t)) << i;
        break;
      case QueryKind::kForemostArrival: {
        const auto arrivals = tcsr::foremost_arrival(f.tcsr, q.u, q.t, 1);
        EXPECT_EQ(r.arrival, arrivals[q.v]) << i;
        EXPECT_EQ(r.exists, arrivals[q.v] != tcsr::kNeverReached) << i;
        break;
      }
      case QueryKind::kAddEdges:
      case QueryKind::kRemoveEdges:
        ADD_FAILURE() << "no mutation was submitted, i=" << i;
        break;
    }
  }

  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, requests.size());
  EXPECT_EQ(m.completed, requests.size());
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_GE(m.batches, 1u);
}

TEST(QueryService, AnswersMatchKernels_SingleRequestDispatch) {
  ServiceConfig config;
  config.max_batch = 1;  // degenerate: every request its own batch
  config.batch_window = std::chrono::microseconds(0);
  check_correctness(config);
}

TEST(QueryService, AnswersMatchKernels_MicroBatched) {
  ServiceConfig config;
  config.max_batch = 64;
  config.batch_window = std::chrono::microseconds(200);
  check_correctness(config);
}

TEST(QueryService, AnswersMatchKernels_ShardedAdaptive) {
  ServiceConfig config;
  config.shards = 4;
  config.max_batch = 32;
  config.adaptive_window = true;
  check_correctness(config);
}

TEST(QueryService, AnswersMatchKernels_KernelThreads) {
  ServiceConfig config;
  config.max_batch = 128;
  config.kernel_threads = 4;
  config.edge_search = csr::RowSearch::kLinear;
  check_correctness(config);
}

TEST(QueryService, OutOfRangeNodeIsInvalidNotFatal) {
  const Fixture& f = fixture();
  QueryService service(f.csr, &f.tcsr, ServiceConfig{});
  const VertexId n = f.csr.num_nodes();
  EXPECT_EQ(service.submit(make(QueryKind::kDegree, n)).get().status,
            Status::kInvalid);
  EXPECT_EQ(service.submit(make(QueryKind::kNeighbors, n + 7)).get().status,
            Status::kInvalid);
  EXPECT_EQ(service.submit(make(QueryKind::kEdgeExists, n, 0)).get().status,
            Status::kInvalid);
  // Temporal kinds validate against the history's (smaller) node space.
  EXPECT_EQ(service
                .submit(make(QueryKind::kTemporalNeighbors,
                             f.tcsr.num_nodes(), 0, 0))
                .get()
                .status,
            Status::kInvalid);
  EXPECT_EQ(service
                .submit(make(QueryKind::kTemporalEdge, 0, 0,
                             f.tcsr.num_frames()))
                .get()
                .status,
            Status::kInvalid);
  // The service keeps serving after invalid requests.
  EXPECT_EQ(service.submit(make(QueryKind::kDegree, 0)).get().status,
            Status::kOk);
}

// Regression: an out-of-range *target* must be kInvalid for every edge
// kind, exactly like an out-of-range source. kEdgeExists used to answer
// kOk/absent for these while kDegree on the same id said kInvalid — the
// same nonsense id got two different verdicts depending on which operand
// slot it arrived in.
TEST(QueryService, OutOfRangeTargetIsInvalidForAllEdgeKinds) {
  const Fixture& f = fixture();
  QueryService service(f.csr, &f.tcsr, ServiceConfig{});
  const VertexId n = f.csr.num_nodes();
  const VertexId tn = f.tcsr.num_nodes();
  EXPECT_EQ(service.submit(make(QueryKind::kEdgeExists, 0, n)).get().status,
            Status::kInvalid);
  EXPECT_EQ(service.submit(make(QueryKind::kEdgeExists, 0, n + 123)).get()
                .status,
            Status::kInvalid);
  // Temporal kinds validate v against the history's (smaller) node space.
  EXPECT_EQ(service.submit(make(QueryKind::kTemporalEdge, 0, tn, 0)).get()
                .status,
            Status::kInvalid);
  EXPECT_EQ(service.submit(make(QueryKind::kForemostArrival, 0, tn, 0)).get()
                .status,
            Status::kInvalid);
  // Largest in-range target still answers normally.
  const Response r =
      service.submit(make(QueryKind::kEdgeExists, 0, n - 1)).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.exists, f.csr.has_edge(0, n - 1));
}

TEST(QueryService, TemporalWithoutHistoryIsUnsupported) {
  const Fixture& f = fixture();
  QueryService service(f.csr, nullptr, ServiceConfig{});
  EXPECT_EQ(service.submit(make(QueryKind::kTemporalEdge, 0, 1, 0)).get().status,
            Status::kUnsupported);
  EXPECT_EQ(service.submit(make(QueryKind::kForemostArrival, 0, 1, 0)).get().status,
            Status::kUnsupported);
  EXPECT_EQ(service.submit(make(QueryKind::kNeighbors, 0)).get().status,
            Status::kOk);
}

TEST(QueryService, ExpiredDeadlineSkipsExecution) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.max_batch = 8;
  config.batch_window = std::chrono::microseconds(20'000);
  QueryService service(f.csr, nullptr, config);
  Request r = make(QueryKind::kNeighbors, 1);
  r.deadline = Clock::now() - 1ms;  // already past
  const Response resp = service.submit(r).get();
  EXPECT_EQ(resp.status, Status::kExpired);
  EXPECT_TRUE(resp.neighbors.empty());
  EXPECT_EQ(service.metrics().expired, 1u);
}

TEST(QueryService, BackpressureRejectsWhenQueueFull) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.queue_capacity = 4;
  config.max_batch = 2;
  // Large window so the single worker drains slowly enough to fill the
  // 4-slot queue from a burst.
  config.batch_window = std::chrono::microseconds(50'000);
  config.adaptive_window = false;
  QueryService service(f.csr, nullptr, config);

  std::atomic<int> callbacks{0};
  int rejected = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool ok = service.submit(make(QueryKind::kDegree, 1),
                                   [&callbacks](Response&&) {
                                     callbacks.fetch_add(1);
                                   });
    if (!ok) ++rejected;
  }
  service.stop();
  EXPECT_GT(rejected, 0);  // a 5000-burst must overflow a 4-slot queue
  EXPECT_EQ(callbacks.load(), 5000 - rejected);  // accepted => exactly one cb
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(5000 - rejected));
}

TEST(QueryService, StopDrainsQueuedRequests) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.max_batch = 16;
  config.batch_window = std::chrono::microseconds(5'000);
  QueryService service(f.csr, nullptr, config);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(service.submit(make(QueryKind::kDegree, 2)));
  service.stop();  // must answer everything already admitted
  for (auto& fut : futures) EXPECT_EQ(fut.get().status, Status::kOk);
  // New submissions after stop are rejected, not lost.
  EXPECT_EQ(service.submit(make(QueryKind::kDegree, 2)).get().status,
            Status::kRejected);
}

TEST(QueryService, MetricsRecordBatchSizes) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.max_batch = 32;
  config.batch_window = std::chrono::microseconds(2'000);
  QueryService service(f.csr, nullptr, config);
  run_all(service, std::vector<Request>(500, make(QueryKind::kDegree, 3)));
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed, 500u);
  EXPECT_GE(m.mean_batch_size, 1.0);
  EXPECT_GT(m.qps, 0.0);
  EXPECT_GE(m.latency_p99_us, m.latency_p50_us);
}

// TSan target: many client threads hammering a sharded service.
TEST(QueryService, ConcurrentClientsStress) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.shards = 2;
  config.max_batch = 64;
  config.queue_capacity = 256;
  QueryService service(f.csr, &f.tcsr, config);

  constexpr int kClients = 4;
  constexpr int kPerClient = 1500;
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&service, &answered, &f, c] {
      util::SplitMix64 rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < kPerClient; ++i) {
        Request r = make(i % 2 == 0 ? QueryKind::kDegree
                                    : QueryKind::kEdgeExists,
                         static_cast<VertexId>(
                             rng.next_below(f.csr.num_nodes())),
                         static_cast<VertexId>(
                             rng.next_below(f.csr.num_nodes())));
        while (!service.submit(r, [&answered](Response&&) {
                 answered.fetch_add(1, std::memory_order_relaxed);
               }))
          std::this_thread::yield();
      }
    });
  for (auto& t : clients) t.join();
  service.stop();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
}

// Each shard owns a worker thread (and, with kernel_threads > 1, its own
// fork-join team), so shard loops run side by side: the first callback to
// arrive blocks its shard until a second callback arrives, which only the
// other shard can deliver. stop() then drains both queues.
TEST(QueryService, ShardLoopsRunConcurrentlyAndDrainAtStop) {
  const Fixture& f = fixture();
  ServiceConfig config;
  config.shards = 2;
  config.kernel_threads = 2;
  constexpr int kRequests = 400;
  std::atomic<int> answered{0};
  std::atomic<int> ok{0};
  std::atomic<bool> serialized{false};
  // Declared after the counters, so its destructor drains before they go.
  QueryService service(f.csr, nullptr, config);
  for (int i = 0; i < kRequests; ++i) {
    const auto u = static_cast<VertexId>(i % f.csr.num_nodes());
    ASSERT_TRUE(service.submit(make(QueryKind::kDegree, u),
                               [&](Response&& r) {
      if (r.status == Status::kOk) ok.fetch_add(1);
      if (answered.fetch_add(1) != 0) return;
      const auto give_up = Clock::now() + 10s;
      while (answered.load() < 2 && Clock::now() < give_up)
        std::this_thread::yield();
      if (answered.load() < 2) serialized.store(true);
    }));
  }
  service.stop();
  EXPECT_FALSE(serialized.load());
  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(ok.load(), kRequests);
  EXPECT_EQ(service.metrics().completed, static_cast<std::uint64_t>(kRequests));
}

// TSan target: stop() must be idempotent and safe to race — the TCP
// front-end calls it from a signal-triggered path while the owning thread
// may be tearing the service down. stopped_ is an atomic exchanged once;
// only the winner joins the workers.
TEST(QueryService, ConcurrentStopIsIdempotent) {
  const Fixture& f = fixture();
  for (int round = 0; round < 8; ++round) {
    QueryService service(f.csr, nullptr, ServiceConfig{});
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 64; ++i)
      futures.push_back(service.submit(make(QueryKind::kDegree, 1)));
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t)
      stoppers.emplace_back([&service] { service.stop(); });
    for (auto& t : stoppers) t.join();
    for (auto& fut : futures) EXPECT_EQ(fut.get().status, Status::kOk);
  }
}

}  // namespace
}  // namespace pcq::svc
