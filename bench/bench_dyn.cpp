// Supplementary bench **S16**: ingest throughput of the dynamic tier.
//
// Two measurements on the same shuffled edge stream:
//
//   cpma batch — Cpma::insert_batch, the batch-parallel compressed PMA:
//     the whole stream lands in --batch-sized batches (default: one batch)
//     across --threads, and again on one thread for scaling attribution.
//   hybrid live ingest — HybridGraph::add_edges batches against a packed
//     CSR base with opportunistic compaction after every batch: what the
//     serving layer actually runs, so the reported rate includes toggle
//     resolution against the base and any compactions the ratio triggers.
//
// Also reports the erase path (batch removal of half the stream) and the
// resident bytes of the CPMA, since its delta encoding is the point of
// carrying it instead of a plain PMA.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "csr/builder.hpp"
#include "dyn/hybrid.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using pcq::dyn::Cpma;
using pcq::dyn::HybridGraph;
using pcq::dyn::Key;
using pcq::graph::Edge;
using pcq::graph::VertexId;

double rate(std::size_t n, double seconds) {
  return static_cast<double>(n) / std::max(seconds, 1e-12);
}

}  // namespace

int main(int argc, char** argv) {
  pcq::util::Flags flags(
      argc, argv,
      {
          {"nodes", "vertex-id space (default 1048576)"},
          {"edges", "edges in the ingest stream (default 1000000)"},
          {"batch", "batch size; 0 = the whole stream as one batch "
                    "(default 0)"},
          {"threads", "threads for batch calls; 0 = hardware (default 0)"},
          {"base-edges", "base CSR size for the hybrid experiment "
                         "(default 2000000)"},
          {"seed", "R-MAT seed (default 42)"},
          {"json", "write the results as a JSON document to this file"},
      });
  const auto nodes =
      static_cast<VertexId>(flags.get_int("nodes", 1 << 20));
  const auto want_edges =
      static_cast<std::size_t>(flags.get_int("edges", 1'000'000));
  std::size_t batch = static_cast<std::size_t>(flags.get_int("batch", 0));
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const auto base_edges =
      static_cast<std::size_t>(flags.get_int("base-edges", 2'000'000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // Unique skewed edges, then shuffled: R-MAT dedupe undershoots the asked
  // count, so over-ask and trim. The shuffle matters — sorted input would
  // hand every insert pure append behaviour.
  std::fprintf(stderr, "[bench_dyn] building %zu-edge R-MAT stream...\n",
               want_edges);
  pcq::graph::EdgeList list = pcq::graph::rmat(
      nodes, want_edges + want_edges / 4, 0.57, 0.19, 0.19, seed, 0);
  list.sort(0);
  list.dedupe();
  std::vector<Edge> stream(list.edges().begin(), list.edges().end());
  if (stream.size() > want_edges) stream.resize(want_edges);
  {
    pcq::util::SplitMix64 rng(seed ^ 0xabcdef12345ull);
    for (std::size_t i = stream.size(); i > 1; --i)
      std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  const std::size_t n = stream.size();
  if (batch == 0 || batch > n) batch = n;
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = pcq::dyn::key_of(stream[i].u, stream[i].v);

  std::printf("ingest stream: %zu unique edges, batch %zu, threads %d\n", n,
              batch, threads);

  // --- cpma batch-parallel ----------------------------------------------
  double cpma_insert_s, cpma_erase_s, cpma_bytes;
  {
    Cpma cpma;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      cpma.insert_batch({keys.data() + off, len}, threads);
    }
    cpma_insert_s = t.seconds();
    cpma_bytes = static_cast<double>(cpma.size_bytes());
    if (cpma.size() != n) std::abort();
    // Erase every other key, batch-parallel.
    std::vector<Key> victims;
    victims.reserve(n / 2);
    for (std::size_t i = 0; i < n; i += 2) victims.push_back(keys[i]);
    pcq::util::Timer te;
    for (std::size_t off = 0; off < victims.size(); off += batch) {
      const std::size_t len = std::min(batch, victims.size() - off);
      cpma.erase_batch({victims.data() + off, len}, threads);
    }
    cpma_erase_s = te.seconds();
    if (cpma.size() != n - victims.size()) std::abort();
  }
  std::printf("cpma  batch insert        %10.0f edges/s  (%.3fs, %.1f B/edge)\n",
              rate(n, cpma_insert_s), cpma_insert_s,
              cpma_bytes / static_cast<double>(n));
  std::printf("cpma  batch erase         %10.0f edges/s  (%.3fs)\n",
              rate(n / 2, cpma_erase_s), cpma_erase_s);

  // --- cpma single-thread batches (scaling attribution) -----------------
  double cpma_t1_insert_s;
  {
    Cpma cpma;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      cpma.insert_batch({keys.data() + off, len}, 1);
    }
    cpma_t1_insert_s = t.seconds();
    std::printf("cpma  batch insert (t=1)  %10.0f edges/s  (%.3fs)\n",
                rate(n, cpma_t1_insert_s), cpma_t1_insert_s);
  }

  // --- hybrid live ingest ------------------------------------------------
  double hybrid_s;
  std::size_t hybrid_compactions, hybrid_delta_keys;
  {
    std::fprintf(stderr, "[bench_dyn] building %zu-edge base CSR...\n",
                 base_edges);
    pcq::graph::EdgeList base_list =
        pcq::graph::rmat(nodes, base_edges, 0.57, 0.19, 0.19, seed + 1, 0);
    base_list.sort(0);
    base_list.dedupe();
    HybridGraph hybrid(
        pcq::csr::build_bitpacked_csr_from_sorted(base_list, nodes, 0));
    const std::size_t before = hybrid.num_edges();
    std::size_t compactions = 0;
    pcq::util::Timer t;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t len = std::min(batch, n - off);
      hybrid.add_edges({stream.data() + off, len}, threads);
      if (hybrid.maybe_compact(threads)) ++compactions;
    }
    hybrid_s = t.seconds();
    hybrid_compactions = compactions;
    hybrid_delta_keys = hybrid.delta_keys();
    std::printf("hybrid live ingest        %10.0f edges/s  (%.3fs, %zu "
                "compactions, %zu -> %zu edges, %zu delta keys pending)\n",
                rate(n, hybrid_s), hybrid_s, compactions, before,
                hybrid.num_edges(), hybrid_delta_keys);
  }

  // --- consolidated JSON document (--json FILE) --------------------------
  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    std::ofstream out(json, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    char buf[512];
    out << "{\"bench\":\"bench_dyn\",";
    std::snprintf(buf, sizeof buf,
                  "\"config\":{\"nodes\":%llu,\"edges\":%zu,\"batch\":%zu,"
                  "\"threads\":%d,\"base_edges\":%zu,\"seed\":%llu},",
                  static_cast<unsigned long long>(nodes), n, batch, threads,
                  base_edges, static_cast<unsigned long long>(seed));
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "\"cpma\":{\"insert_edges_per_s\":%.1f,\"insert_s\":%.6f,"
                  "\"erase_edges_per_s\":%.1f,\"erase_s\":%.6f,"
                  "\"bytes_per_edge\":%.2f,\"t1_insert_edges_per_s\":%.1f},",
                  rate(n, cpma_insert_s), cpma_insert_s,
                  rate(n / 2, cpma_erase_s), cpma_erase_s,
                  cpma_bytes / static_cast<double>(n),
                  rate(n, cpma_t1_insert_s));
    out << buf;
    std::snprintf(buf, sizeof buf,
                  "\"hybrid\":{\"ingest_edges_per_s\":%.1f,\"elapsed_s\":%.6f,"
                  "\"compactions\":%zu,\"delta_keys_pending\":%zu}}\n",
                  rate(n, hybrid_s), hybrid_s, hybrid_compactions,
                  hybrid_delta_keys);
    out << buf;
    if (!out) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench_dyn] wrote results %s\n", json.c_str());
  }
  return 0;
}
