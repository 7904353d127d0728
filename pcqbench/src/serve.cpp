// `read` and `mixed` workloads: client socket -> answer through an
// in-process net::TcpServer (2 shards, kernel_threads 1, plus its epoll
// thread), driven by the single-thread open-loop generator on 4
// connections.
//
//   read:  a static packed CSR of the LiveJournal preset at 1/16 scale.
//   mixed: a dyn::HybridGraph over an R-MAT base (n = 2^16, m = 2^18)
//          with 80/20 read/write traffic; writes are 80/20 add/remove.
//          Compaction (delta > 25% of base) fires several times per run,
//          mostly during the flood.
//
// Each run offers a fixed rate first (open loop), then measures the
// latency one caller sees who waits for each reply (closed loop), then
// floods the server to measure the most it answers (capacity). The traced
// run adds the per-layer measurements.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "csr/builder.hpp"
#include "csr/query.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace pcqbench {
namespace {

using pcq::graph::Edge;
using pcq::graph::VertexId;
using pcq::svc::QueryKind;

constexpr int kBuildThreads = 4;
constexpr int kConnections = 4;
// Bounds the generator's outstanding requests below one shard queue's
// capacity (4096), so the service never has to reject: past this many the
// generator holds requests back, and their wait counts from the due time.
constexpr std::size_t kMaxInflight = 4000;

// Offered rates of the fixed-rate phases, requests/s.
constexpr double kReadRate = 100'000;
constexpr double kMixedRate = 50'000;
// Callers of the closed-loop latency phase: one, so a host stall delays
// the one request in flight and not a backlog behind it.
constexpr std::size_t kCallers = 1;

// The served graphs stand for fixed datasets: every run generates the same
// one, and --seed varies the traffic (reads, writes, arrival times). Across
// graph seeds the hubs of an R-MAT differ enough to move capacity by ±8%.
constexpr std::uint64_t kGraphSeed = 42;

// The CPUs the server and the generator run on, kept busy by IdleSpinners
// while a phase is measured.
std::vector<int> serving_cpus() {
  std::vector<int> cpus = cpus_of(Cpus::kServer);
  for (int cpu : cpus_of(Cpus::kGenerator)) cpus.push_back(cpu);
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

pcq::svc::ServiceConfig service_config() {
  pcq::svc::ServiceConfig config;
  config.shards = 2;
  config.kernel_threads = 1;
  return config;
}

// In-process server over either graph kind; stops and joins on
// destruction.
class Server {
 public:
  template <typename Graph>
  explicit Server(Graph& graph)
      : service_(std::make_unique<pcq::svc::QueryService>(graph, nullptr,
                                                          service_config())),
        server_(std::make_unique<pcq::net::TcpServer>(
            *service_, pcq::net::ServerOptions{})),
        thread_([this] { server_->run(); }) {}
  ~Server() {
    server_->request_stop();
    thread_.join();
    service_->stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] pcq::svc::QueryService& service() { return *service_; }
  [[nodiscard]] const pcq::net::ServerStats& stats() const {
    return server_->stats();
  }

 private:
  std::unique_ptr<pcq::svc::QueryService> service_;
  std::unique_ptr<pcq::net::TcpServer> server_;
  std::thread thread_;
};

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = mix64(state); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Reference answers from the sequential builder's plain CSR — a different
// code path from the packed structure being served.
struct Oracle {
  pcq::csr::CsrGraph plain;
  std::vector<std::uint64_t> digest;  // per vertex

  explicit Oracle(pcq::csr::CsrGraph g) : plain(std::move(g)) {
    digest.resize(plain.num_nodes());
    for (VertexId u = 0; u < plain.num_nodes(); ++u)
      digest[u] = row_digest(plain.neighbors(u));
  }
};

// The read mix: 40/30/30 degree / edge-exists / neighbours; half the
// vertices uniform, half degree-proportional; half the edge-exists pairs
// are present edges. `checked(u)` says whether the answer is known.
template <typename Checked>
std::vector<Op> make_reads(std::span<const Edge> edges, const Oracle& oracle,
                           std::size_t count, std::uint64_t seed,
                           Checked checked) {
  const VertexId n = oracle.plain.num_nodes();
  Rng rng{mix64(seed ^ 0x5EAD)};
  auto vertex = [&] {
    return rng.below(2) == 0 ? static_cast<VertexId>(rng.below(n))
                             : edges[rng.below(edges.size())].u;
  };
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    const std::uint64_t r = rng.below(10);
    if (r < 4) {
      op.kind = static_cast<std::uint8_t>(QueryKind::kDegree);
      op.u = vertex();
      op.expect = oracle.plain.degree(op.u);
    } else if (r < 7) {
      op.kind = static_cast<std::uint8_t>(QueryKind::kEdgeExists);
      if (rng.below(2) == 0) {
        const Edge e = edges[rng.below(edges.size())];
        op.u = e.u;
        op.v = e.v;
      } else {
        op.u = vertex();
        op.v = static_cast<VertexId>(rng.below(n));
      }
      op.expect = oracle.plain.has_edge(op.u, op.v) ? 1 : 0;
    } else {
      op.kind = static_cast<std::uint8_t>(QueryKind::kNeighbors);
      op.u = vertex();
      op.expect = oracle.digest[op.u];
    }
    op.check = checked(op.u) ? 1 : 0;
  }
  return ops;
}

// One stderr line per phase, for reading a run by eye.
void log_phase(const char* what, const PhaseStats& st) {
  std::vector<double> lat = st.latency_us, late = st.lateness_us;
  std::sort(lat.begin(), lat.end());
  std::sort(late.begin(), late.end());
  std::fprintf(stderr,
               "pcqbench: %s %.0f/s sent %llu failed %llu%s | latency us "
               "p50 %.0f p90 %.0f p99 %.0f p99.9 %.0f max %.0f | late p99 "
               "%.0f | median host steal %.1f%%\n",
               what, st.rate, static_cast<unsigned long long>(st.sent),
               static_cast<unsigned long long>(st.failed),
               st.capped ? " capped" : "", quantile_sorted(lat, 0.5),
               quantile_sorted(lat, 0.9), quantile_sorted(lat, 0.99),
               quantile_sorted(lat, 0.999), quantile_sorted(lat, 1.0),
               quantile_sorted(late, 0.99), 100 * median(st.steal_per_window));
}

// Other guests on a shared host come and go, and while the hypervisor
// takes CPU time from this one (steal) every latency grows and the answer
// rate falls, whatever the program does. So a phase's figures are medians
// over its half-second windows with no more host steal than the median
// window: a stall moves one window and not the figure, and a noisy spell
// within the phase is left out.
std::vector<std::size_t> quiet_windows(const PhaseStats& st) {
  const double limit = median(st.steal_per_window);
  std::vector<std::size_t> quiet;
  for (std::size_t w = 0; w < st.steal_per_window.size(); ++w)
    if (st.steal_per_window[w] <= limit) quiet.push_back(w);
  return quiet;
}

// Quantile q of the latencies, per window (by due time), median over the
// quiet windows that have any.
double windowed(const PhaseStats& st, const std::vector<double>& latency,
                const std::vector<float>& due, double q) {
  const std::size_t windows = st.steal_per_window.size();
  std::vector<std::vector<double>> buckets(windows);
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, due[i] / kWindowS));
    buckets[std::min(w, windows - 1)].push_back(latency[i]);
  }
  std::vector<double> per_window;
  for (std::size_t w : quiet_windows(st))
    if (!buckets[w].empty())
      per_window.push_back(quantile(std::move(buckets[w]), q));
  return median(std::move(per_window));
}

struct Phase {
  PhaseStats stats;
  double p50_us = 0, p90_us = 0, p99_us = 0, write_p99_us = 0;
  double lateness_p99_us = 0;
};

Phase summarize(const char* what, PhaseStats st) {
  log_phase(what, st);
  Phase f;
  f.p50_us = windowed(st, st.latency_us, st.due_s, 0.50);
  f.p90_us = windowed(st, st.latency_us, st.due_s, 0.90);
  f.p99_us = windowed(st, st.latency_us, st.due_s, 0.99);
  f.write_p99_us = windowed(st, st.write_latency_us, st.write_due_s, 0.99);
  f.lateness_p99_us = quantile(st.lateness_us, 0.99);
  f.stats = std::move(st);
  return f;
}

void account(Result& result, const PhaseStats& st) {
  result.attempted += st.sent;
  result.fail(st.failed);
}

// Capacity: a flood phase offered far above what the server can answer.
// The in-flight cap turns it into a closed loop with kMaxInflight requests
// outstanding and never more than a shard queue holds, so nothing is
// rejected and the answer rate is the most the server sustains for one
// generator thread: the median answer rate over the quiet windows.
double flood_capacity(LoadGen& gen, OpStream& ops, Result& result,
                      double seconds, std::uint64_t seed) {
  PhaseStats st = gen.run(ops, 1e9, seconds, seed, /*samples=*/false);
  account(result, st);
  std::vector<double> rates;
  for (std::size_t w : quiet_windows(st))
    rates.push_back(st.answered_per_window[w] / kWindowS);
  std::fprintf(stderr,
               "pcqbench: flood sent %llu failed %llu | median host steal "
               "%.1f%%\n",
               static_cast<unsigned long long>(st.sent),
               static_cast<unsigned long long>(st.failed),
               100 * median(st.steal_per_window));
  return median(std::move(rates));
}

// In-process replay of the op stream straight into QueryService::submit at
// the same rate: the service's own residence time (submit -> callback) and
// its heap allocations per request.
struct Replay {
  double p50_us = 0, p99_us = 0, allocs_per_req = 0;
  std::uint64_t sent = 0, failed = 0;
};

template <typename Graph>
Replay replay(Graph& graph, OpStream ops, double rate, double seconds,
              std::uint64_t seed) {
  pin_cpus(Cpus::kServer);
  pcq::svc::QueryService service(graph, nullptr, service_config());
  const IdleSpinners spinners(serving_cpus());
  pin_cpus(Cpus::kGenerator);
  const auto count = static_cast<std::size_t>(rate * seconds);
  struct Slot {
    std::int64_t submitted = 0;
    std::int64_t done = 0;
    Op op;
  };
  std::vector<Slot> slots(count);
  for (Slot& s : slots) s.op = ops.next();
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::uint64_t queued = 0;

  std::uint64_t rng = mix64(seed);
  const std::uint64_t allocs0 = allocations();
  std::int64_t due = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    due += poisson_gap_ns(rng, rate);
    while (now_ns() < due) {
    }
    Slot* s = &slots[i];
    pcq::svc::Request req;
    req.kind = static_cast<QueryKind>(s->op.kind);
    req.u = s->op.u;
    req.v = s->op.v;
    s->submitted = now_ns();
    const bool admitted = service.submit(
        req, [s, &completed, &failed](pcq::svc::Response&& r) {
          s->done = now_ns();
          const Op& op = s->op;
          bool ok = r.status == pcq::svc::Status::kOk;
          if (ok && op.check != 0) {
            switch (static_cast<QueryKind>(op.kind)) {
              case QueryKind::kDegree: ok = r.degree == op.expect; break;
              case QueryKind::kEdgeExists: ok = r.exists == (op.expect != 0); break;
              case QueryKind::kNeighbors:
                ok = row_digest(r.neighbors) == op.expect;
                break;
              default: ok = r.exists == (op.expect != 0); break;
            }
          }
          if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_release);
        });
    // A request the service refused never calls back; it counts below as
    // a missing reply.
    if (admitted) ++queued;
  }
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (completed.load(std::memory_order_acquire) < queued &&
         now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  Replay out;
  out.allocs_per_req = static_cast<double>(allocations() - allocs0) /
                       static_cast<double>(std::max<std::size_t>(count, 1));
  service.stop();
  std::vector<double> lat;
  lat.reserve(count);
  for (const Slot& s : slots)
    if (s.done != 0)
      lat.push_back(static_cast<double>(s.done - s.submitted) * 1e-3);
  std::sort(lat.begin(), lat.end());
  out.p50_us = quantile_sorted(lat, 0.50);
  out.p99_us = quantile_sorted(lat, 0.99);
  out.sent = count;
  out.failed = failed.load() + (count - lat.size());
  return out;
}

template <typename F>
double time_ns_per(std::size_t items, F&& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(std::max<std::size_t>(items, 1));
}

// Shared per-layer figures of a served run: service metrics, server
// bytes, trace overhead, replay.
void serve_layers(Result& result, Server& server, const Phase& plain,
                  const Phase& traced) {
  const pcq::svc::MetricsSnapshot m = server.service().metrics();
  result.set_layer("p50_us", plain.p50_us, "us");
  result.set_layer("p99_us", plain.p99_us, "us");
  result.set_layer("svc.queue_wait_p50_us", m.queue_wait_p50_us, "us");
  result.set_layer("svc.mean_batch", m.mean_batch_size, "count");
  const pcq::net::ServerStats& s = server.stats();
  const std::uint64_t frames = s.frames_out.load(std::memory_order_relaxed);
  result.set_layer(
      "net.bytes_out_per_req",
      static_cast<double>(s.bytes_out.load(std::memory_order_relaxed)) /
          static_cast<double>(std::max<std::uint64_t>(frames, 1)),
      "B");
  result.set_layer("loadgen.lateness_p99_us", plain.lateness_p99_us, "us");
  result.set_layer("obs.trace_overhead_frac", traced.p50_us / plain.p50_us - 1.0,
                   "ratio");
}

void replay_layers(Result& result, const Replay& r, double p50_us) {
  result.attempted += r.sent;
  result.fail(r.failed);
  result.set_layer("svc.residence_p50_us", r.p50_us, "us");
  result.set_layer("svc.residence_p99_us", r.p99_us, "us");
  result.set_layer("net.share_p50_us", p50_us - r.p50_us, "us");
  result.set_layer("svc.allocs_per_req", r.allocs_per_req, "count");
}

double layer_value(const Result& result, const std::string& name) {
  for (const Metric& m : result.layer)
    if (m.name == name) return m.value;
  return 0;
}

// Shares of --seconds: the fixed-rate phase a fifth, the closed-loop
// latency phase and the flood two fifths each. The traced run adds a
// traced fixed-rate phase before the closed loop and the per-layer
// measurements after the flood.
struct Phases {
  double fixed_s, closed_s, flood_s;
};

Phases phases_for(const Args& args) {
  return {0.2 * args.seconds, 0.4 * args.seconds, 0.4 * args.seconds};
}

}  // namespace

// ---------------------------------------------------------------------------

Result run_read(const Args& args) {
  Result result;
  const double scale = args.smoke ? 0.002 : 0.0625;
  const std::size_t pool = args.smoke ? 20'000 : 1'000'000;
  const auto& preset = pcq::graph::preset_by_name("LiveJournal");

  std::unique_ptr<pcq::graph::EdgeList> list;
  std::unique_ptr<pcq::csr::BitPackedCsr> packed;
  std::unique_ptr<Oracle> oracle;
  OpStream ops;
  std::unique_ptr<Server> server;
  std::vector<double> setup_times;
  const int setup_reps = args.smoke ? 1 : 3;
  // Set-up runs with every CPU kept busy, as the phases do (IdleSpinners):
  // its parallel steps would otherwise wait on halted CPUs.
  std::optional<IdleSpinners> setup_spinners(std::in_place,
                                             cpus_of(Cpus::kAll));
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    oracle.reset();
    packed.reset();
    list.reset();
    pin_cpus(Cpus::kAll);
    const auto t0 = Clock::now();
    list = std::make_unique<pcq::graph::EdgeList>(
        pcq::graph::make_preset_graph(preset, scale, kGraphSeed, kBuildThreads));
    const VertexId n = list->num_nodes();
    packed = std::make_unique<pcq::csr::BitPackedCsr>(
        pcq::csr::build_bitpacked_csr_from_sorted(*list, n, kBuildThreads));
    oracle = std::make_unique<Oracle>(pcq::csr::build_csr_sequential(*list, n));
    ops = OpStream{};
    ops.rng = mix64(args.seed ^ 0x0b5);
    ops.reads = make_reads(list->edges(), *oracle, pool, args.seed,
                           [](VertexId) { return true; });
    pin_cpus(Cpus::kServer);
    server = std::make_unique<Server>(*packed);
    setup_times.push_back(seconds_since(t0));
  }
  setup_spinners.reset();
  if (args.fault) ops.reads[0].expect ^= 1;
  result.set_e2e("setup_s", median(setup_times), "s");
  result.set_e2e("bits_per_edge",
                 8.0 * static_cast<double>(packed->size_bytes()) /
                     static_cast<double>(packed->num_edges()),
                 "bit");

  const Phases ph = phases_for(args);
  Phase plain, traced, closed;
  double capacity = 0;
  {
    const IdleSpinners spinners(serving_cpus());
    pin_cpus(Cpus::kGenerator);
    LoadGen gen(server->port(), kConnections, kMaxInflight);
    plain = summarize("fixed", gen.run(ops, kReadRate, ph.fixed_s, args.seed));
    account(result, plain.stats);
    if (args.trace) {
      pcq::obs::set_trace_enabled(true);
      traced = summarize("traced",
                         gen.run(ops, kReadRate, ph.fixed_s, args.seed + 10));
      pcq::obs::set_trace_enabled(false);
      account(result, traced.stats);
      serve_layers(result, *server, plain, traced);
    }
    closed = summarize("closed", gen.run_closed(ops, kCallers, ph.closed_s));
    account(result, closed.stats);
    capacity = flood_capacity(gen, ops, result, ph.flood_s, args.seed + 100);
  }
  result.set_e2e("latency_p50_ms", closed.p50_us * 1e-3, "ms");
  result.set_e2e("latency_p90_ms", closed.p90_us * 1e-3, "ms");
  result.set_e2e("capacity_per_s", capacity, "1/s");
  server.reset();
  pin_cpus(Cpus::kAll);

  if (args.trace) {
    OpStream replay_ops = ops;
    replay_ops.next_read = 0;
    const Replay r = replay(*packed, replay_ops, kReadRate, ph.fixed_s,
                            args.seed);
    replay_layers(result, r, plain.p50_us);

    // Batch kernels at the service's observed batch size, 1 thread.
    const auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(layer_value(result, "svc.mean_batch"))));
    std::vector<VertexId> deg_nodes, nbr_nodes;
    std::vector<Edge> edge_pairs;
    for (const Op& op : ops.reads) {
      switch (static_cast<QueryKind>(op.kind)) {
        case QueryKind::kDegree: deg_nodes.push_back(op.u); break;
        case QueryKind::kEdgeExists: edge_pairs.push_back({op.u, op.v}); break;
        default: nbr_nodes.push_back(op.u); break;
      }
    }
    const std::size_t nbr_count = std::min<std::size_t>(nbr_nodes.size(), 100'000);
    std::vector<std::uint32_t> deg_out(batch);
    std::vector<std::uint8_t> edge_out(batch);
    std::vector<std::vector<VertexId>> rows(batch);
    std::uint64_t sink = 0;
    auto chunks = [&](std::size_t total, auto&& fn) {
      for (std::size_t i = 0; i < total; i += batch)
        fn(i, std::min(batch, total - i));
    };
    result.set_layer("csr.query.degree_ns", time_ns_per(deg_nodes.size(), [&] {
      chunks(deg_nodes.size(), [&](std::size_t i, std::size_t k) {
        pcq::csr::batch_degrees_into(*packed, {deg_nodes.data() + i, k},
                                     {deg_out.data(), k}, 1);
        sink += deg_out[0];
      });
    }), "ns");
    result.set_layer("csr.query.edge_ns", time_ns_per(edge_pairs.size(), [&] {
      chunks(edge_pairs.size(), [&](std::size_t i, std::size_t k) {
        pcq::csr::batch_edge_existence_into(*packed, {edge_pairs.data() + i, k},
                                            {edge_out.data(), k}, 1,
                                            pcq::csr::RowSearch::kBinary);
        sink += edge_out[0];
      });
    }), "ns");
    result.set_layer("csr.query.neighbors_ns", time_ns_per(nbr_count, [&] {
      chunks(nbr_count, [&](std::size_t i, std::size_t k) {
        pcq::csr::batch_neighbors_into(*packed, {nbr_nodes.data() + i, k},
                                       {rows.data(), k}, 1);
        sink += rows[0].size();
      });
    }), "ns");

    // Row decode through the bits layer over the requested rows.
    std::vector<std::uint32_t> buf;
    std::uint64_t values = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nbr_count; ++i) {
      const auto rb = packed->row_bounds(nbr_nodes[i]);
      const auto deg = static_cast<std::size_t>(rb.end - rb.begin);
      if (buf.size() < deg) buf.resize(deg);
      packed->packed_columns().get_range_into(rb.begin, deg, buf.data());
      values += deg;
      sink += deg > 0 ? buf[deg - 1] : 0;
    }
    result.set_layer("bits.decode_mvals_per_s",
                     static_cast<double>(values) / seconds_since(t0) * 1e-6,
                     "Mval/s");

    // Wire codec: encode + decode of each request frame and its response.
    const std::size_t frames = std::min<std::size_t>(ops.reads.size(), 200'000);
    std::vector<pcq::net::WireResponse> responses(frames);
    for (std::size_t i = 0; i < frames; ++i) {
      const Op& op = ops.reads[i];
      responses[i].id = i;
      responses[i].degree = static_cast<std::uint32_t>(op.expect);
      if (static_cast<QueryKind>(op.kind) == QueryKind::kNeighbors)
        responses[i].neighbors = packed->neighbors(op.u);
    }
    std::vector<std::uint8_t> wire;
    pcq::net::WireRequest req_in;
    pcq::net::WireResponse resp_in;
    result.set_layer("net.codec_ns_per_frame", time_ns_per(2 * frames, [&] {
      for (std::size_t i = 0; i < frames; ++i) {
        const Op& op = ops.reads[i];
        pcq::net::WireRequest w;
        w.id = i;
        w.kind = op.kind;
        w.u = op.u;
        w.v = op.v;
        std::size_t used = 0;
        wire.clear();
        pcq::net::encode_request(w, wire);
        pcq::net::decode_request(wire.data(), wire.size(), &req_in, &used);
        wire.clear();
        pcq::net::encode_response(responses[i], wire);
        pcq::net::decode_response(wire.data(), wire.size(), &resp_in, &used);
        sink += resp_in.neighbors.size() + req_in.u;
      }
    }), "ns");
    keep(sink);
  }
  result.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

// ---------------------------------------------------------------------------

Result run_mixed(const Args& args) {
  Result result;
  const VertexId n = args.smoke ? (1u << 12) : (1u << 16);
  const std::size_t m = args.smoke ? 16'000 : (1u << 18);
  const std::size_t pool = args.smoke ? 20'000 : 1'000'000;
  // Writes available to one run. A run that used them all would send reads
  // only from then on, and its capacity would rise with the point where
  // that happened, so the pool is sized for a flood of up to ~900k answers/s
  // (a fifth of them writes, for 0.4 × --seconds), twice the measured rate.
  const std::size_t adds_cap =
      args.smoke ? 4'000 : static_cast<std::size_t>(75'000 * args.seconds);
  const std::size_t removes_cap = args.smoke ? 1'000 : 150'000;
  // Rows that writes may touch: a seeded quarter of the vertices. Reads of
  // the other rows must equal the base; reads of these check status only.
  auto writable = [seed = args.seed](VertexId u) {
    return mix64(u ^ (seed << 20)) % 4 == 0;
  };

  std::unique_ptr<pcq::graph::EdgeList> base;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<pcq::dyn::HybridGraph> graph;
  OpStream ops;
  std::unique_ptr<Server> server;
  std::vector<Edge> adds, removes;
  std::vector<double> setup_times;
  const int setup_reps = args.smoke ? 1 : 7;
  // Set-up runs with every CPU kept busy, as the phases do (IdleSpinners):
  // its parallel steps would otherwise wait on halted CPUs.
  std::optional<IdleSpinners> setup_spinners(std::in_place,
                                             cpus_of(Cpus::kAll));
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    graph.reset();
    oracle.reset();
    base.reset();
    pin_cpus(Cpus::kAll);
    const auto t0 = Clock::now();
    base = std::make_unique<pcq::graph::EdgeList>(pcq::graph::rmat(
        n, m, 0.57, 0.19, 0.19, kGraphSeed, kBuildThreads));
    base->sort_radix(kBuildThreads);
    base->dedupe();
    oracle = std::make_unique<Oracle>(pcq::csr::build_csr_sequential(*base, n));
    graph = std::make_unique<pcq::dyn::HybridGraph>(
        pcq::csr::build_bitpacked_csr_from_sorted(*base, n, kBuildThreads));

    // Writes: adds are distinct non-edges, removes distinct base edges, all
    // in writable rows, so every one must report a change.
    Rng rng{mix64(args.seed ^ 0x3417)};
    removes.clear();
    for (const Edge& e : base->edges())
      if (writable(e.u)) removes.push_back(e);
    for (std::size_t i = removes.size(); i > 1; --i)
      std::swap(removes[i - 1], removes[rng.below(i)]);
    if (removes.size() > removes_cap) removes.resize(removes_cap);
    adds.clear();
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(adds_cap);
    while (adds.size() < adds_cap) {
      const Edge e = base->edges()[rng.below(base->size())];
      if (!writable(e.u)) continue;
      const auto v = static_cast<VertexId>(rng.below(n));
      if (oracle->plain.has_edge(e.u, v)) continue;
      if (!seen.insert((std::uint64_t{e.u} << 32) | v).second) continue;
      adds.push_back({e.u, v});
    }
    ops = OpStream{};
    ops.rng = mix64(args.seed ^ 0x0b5);
    ops.write_frac = 0.2;
    ops.reads = make_reads(base->edges(), *oracle, pool, args.seed,
                           [&](VertexId u) { return !writable(u); });
    std::size_t ai = 0, ri = 0;
    while (ai < adds.size() || ri < removes.size()) {
      const bool add = ri >= removes.size() ||
                       (ai < adds.size() && rng.below(5) != 0);
      const Edge e = add ? adds[ai++] : removes[ri++];
      Op op;
      op.kind = static_cast<std::uint8_t>(add ? QueryKind::kAddEdges
                                              : QueryKind::kRemoveEdges);
      op.u = e.u;
      op.v = e.v;
      op.expect = 1;
      op.check = 1;
      ops.writes.push_back(op);
    }
    pin_cpus(Cpus::kServer);
    server = std::make_unique<Server>(*graph);
    setup_times.push_back(seconds_since(t0));
  }
  setup_spinners.reset();
  if (args.fault) {
    for (Op& op : ops.reads) {
      if (op.check != 0) {
        op.expect ^= 1;
        break;
      }
    }
  }
  result.set_e2e("setup_s", median(setup_times), "s");

  pcq::obs::Counter& compactions =
      pcq::obs::MetricsRegistry::global().counter("dyn.hybrid.compactions");
  pcq::obs::LogHistogram& compaction_us =
      pcq::obs::MetricsRegistry::global().histogram("dyn.hybrid.compaction_us");
  const std::uint64_t compactions0 = compactions.value();
  const auto compaction0 = compaction_us.snapshot();

  const Phases ph = phases_for(args);
  Phase plain, traced, closed;
  double capacity = 0;
  {
    const IdleSpinners spinners(serving_cpus());
    pin_cpus(Cpus::kGenerator);
    LoadGen gen(server->port(), kConnections, kMaxInflight);
    plain = summarize("fixed",
                      gen.run(ops, kMixedRate, ph.fixed_s, args.seed));
    account(result, plain.stats);
    // Space of the served graph, base plus delta, after the fixed-rate
    // phase: the same writes on every run of a seed.
    {
      const pcq::dyn::HybridGraph::View view = graph->view();
      result.set_e2e("bits_per_edge",
                     8.0 *
                         static_cast<double>(view.base().size_bytes() +
                                             view.delta().size_bytes()) /
                         static_cast<double>(view.num_edges()),
                     "bit");
    }
    if (args.trace) {
      pcq::obs::set_trace_enabled(true);
      traced = summarize("traced",
                         gen.run(ops, kMixedRate, ph.fixed_s, args.seed + 10));
      pcq::obs::set_trace_enabled(false);
      account(result, traced.stats);
      serve_layers(result, *server, plain, traced);
      result.set_layer("write_p99_us", plain.write_p99_us, "us");
    }
    closed = summarize("closed", gen.run_closed(ops, kCallers, ph.closed_s));
    account(result, closed.stats);
    capacity = flood_capacity(gen, ops, result, ph.flood_s, args.seed + 100);
  }
  result.set_e2e("latency_p50_ms", closed.p50_us * 1e-3, "ms");
  result.set_e2e("latency_p90_ms", closed.p90_us * 1e-3, "ms");
  result.set_e2e("capacity_per_s", capacity, "1/s");
  server.reset();
  pin_cpus(Cpus::kAll);

  const std::uint64_t run_compactions = compactions.value() - compactions0;
  const auto compaction1 = compaction_us.snapshot();

  // End state: base ∪ sent adds ∖ sent removes, row by row.
  std::size_t sent_adds = 0, sent_removes = 0;
  for (std::size_t i = 0; i < ops.next_write; ++i)
    (ops.writes[i].kind == static_cast<std::uint8_t>(QueryKind::kAddEdges)
         ? sent_adds
         : sent_removes)++;
  {
    std::vector<std::vector<VertexId>> extra(n), gone(n);
    for (std::size_t i = 0; i < sent_adds; ++i)
      extra[adds[i].u].push_back(adds[i].v);
    for (std::size_t i = 0; i < sent_removes; ++i)
      gone[removes[i].u].push_back(removes[i].v);
    const pcq::dyn::HybridGraph::View view = graph->view();
    std::uint64_t bad_rows = 0;
    std::vector<VertexId> expect;
    for (VertexId u = 0; u < n; ++u) {
      const auto row = oracle->plain.neighbors(u);
      expect.assign(row.begin(), row.end());
      if (!extra[u].empty() || !gone[u].empty()) {
        std::sort(gone[u].begin(), gone[u].end());
        std::erase_if(expect, [&](VertexId v) {
          return std::binary_search(gone[u].begin(), gone[u].end(), v);
        });
        expect.insert(expect.end(), extra[u].begin(), extra[u].end());
        std::sort(expect.begin(), expect.end());
      }
      if (view.neighbors(u) != expect) ++bad_rows;
    }
    result.attempted += 1;
    if (bad_rows != 0) result.fail();
  }

  if (args.trace) {
    result.set_layer("dyn.compactions", static_cast<double>(run_compactions),
                     "count");
    const auto comp_n =
        static_cast<double>(compaction1.count - compaction0.count);
    double compact_s =
        comp_n > 0 ? static_cast<double>(compaction1.sum - compaction0.sum) /
                         comp_n * 1e-6
                   : 0;

    OpStream replay_ops = ops;
    replay_ops.next_read = 0;
    replay_ops.next_write = 0;
    {
      pcq::dyn::HybridGraph copy(
          pcq::csr::build_bitpacked_csr_from_sorted(*base, n, kBuildThreads));
      const Replay r = replay(copy, replay_ops, kMixedRate, ph.fixed_s,
                              args.seed);
      replay_layers(result, r, plain.p50_us);
    }

    // HybridGraph writes at the service's observed write batch size: one
    // batch's adds (or removes) land in one call.
    const double mean_batch = layer_value(result, "svc.mean_batch");
    pcq::dyn::HybridGraph fresh(
        pcq::csr::build_bitpacked_csr_from_sorted(*base, n, kBuildThreads));
    auto write_ns = [&](const std::vector<Edge>& edges, double share, bool add) {
      const auto b = static_cast<std::size_t>(
          std::max(1.0, std::round(mean_batch * 0.2 * share)));
      const std::size_t total = std::min<std::size_t>(edges.size(), 20'000);
      return time_ns_per(total, [&] {
        for (std::size_t i = 0; i < total; i += b) {
          const std::span<const Edge> chunk(edges.data() + i,
                                            std::min(b, total - i));
          if (add) fresh.add_edges(chunk, 1);
          else fresh.remove_edges(chunk, 1);
        }
      });
    };
    result.set_layer("dyn.add_ns_per_edge", write_ns(adds, 0.8, true), "ns");
    result.set_layer("dyn.remove_ns_per_edge", write_ns(removes, 0.2, false), "ns");

    // Reads through a View at this delta (before folding it in).
    const std::size_t reads = std::min<std::size_t>(ops.reads.size(), 200'000);
    std::uint64_t sink = 0;
    {
      const pcq::dyn::HybridGraph::View view = fresh.view();
      result.set_layer("dyn.view_read_ns", time_ns_per(reads, [&] {
        for (std::size_t i = 0; i < reads; ++i) {
          const Op& op = ops.reads[i];
          switch (static_cast<QueryKind>(op.kind)) {
            case QueryKind::kDegree: sink += view.degree(op.u); break;
            case QueryKind::kEdgeExists: sink += view.has_edge(op.u, op.v); break;
            default: sink += view.neighbors(op.u).size(); break;
          }
        }
      }), "ns");
    }
    const std::size_t pins = 1'000'000;
    result.set_layer("dyn.view_pin_ns", time_ns_per(pins, [&] {
      for (std::size_t i = 0; i < pins; ++i) sink += fresh.view().version();
    }), "ns");
    if (compact_s == 0) {
      const auto t0 = Clock::now();
      fresh.compact(1);
      compact_s = seconds_since(t0);
    }
    result.set_layer("dyn.compact_s", compact_s, "s");
    keep(sink);
  }
  result.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace pcqbench
