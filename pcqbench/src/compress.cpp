// `compress` workload: the paper's Table II path, edge-list text file ->
// packed CSR file, exactly as `pcq compress` runs it with 4 threads:
//   graph::load_snap_text -> EdgeList::sort_radix ->
//   csr::build_bitpacked_csr_from_sorted -> csr::save_bitpacked_csr.
//
// Set-up writes a LiveJournal-preset R-MAT (1/4 scale) as a SNAP text file
// and builds the oracle with the sequential reference builder. Every pass's
// output must equal the reference, pass check::validate_csr and re-load
// equal from the saved file.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "check/validate.hpp"
#include "common.hpp"
#include "csr/builder.hpp"
#include "csr/serialize.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/trace.hpp"

namespace pcqbench {
namespace {

constexpr int kThreads = 4;

struct Reference {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> columns;
};

struct PassTimes {
  double load = 0, sort = 0, build = 0, save = 0, wall = 0;
  double steal = 0;  // host steal during the pass
  pcq::csr::CsrBuildTimings phases;
};

bool equals_reference(const pcq::csr::BitPackedCsr& packed,
                      const Reference& ref) {
  if (packed.num_nodes() + std::size_t{1} != ref.offsets.size() ||
      packed.num_edges() != ref.columns.size())
    return false;
  const pcq::csr::CsrGraph plain = packed.to_csr(kThreads);
  return std::ranges::equal(plain.offsets(), ref.offsets) &&
         std::ranges::equal(plain.columns(), ref.columns);
}

}  // namespace

Result run_compress(const Args& args) {
  Result result;
  namespace fs = std::filesystem;
  const std::string text_path = args.workdir + "/compress.txt";
  const std::string csr_path = args.workdir + "/compress.csr";
  const double scale = args.smoke ? 0.002 : 0.25;
  const auto& preset = pcq::graph::preset_by_name("LiveJournal");

  // Set-up, repeated so its median is steady: generate, write the text
  // file, build the reference.
  Reference ref;
  std::vector<double> setup_times;
  const int setup_reps = args.smoke ? 1 : 3;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    Reference fresh;
    {
      const pcq::graph::EdgeList list =
          pcq::graph::make_preset_graph(preset, scale, args.seed, kThreads);
      pcq::graph::save_snap_text(list, text_path);
      const pcq::csr::CsrGraph plain =
          pcq::csr::build_csr_sequential(list, list.num_nodes());
      fresh.offsets.assign(plain.offsets().begin(), plain.offsets().end());
      fresh.columns.assign(plain.columns().begin(), plain.columns().end());
    }
    ref = std::move(fresh);
    setup_times.push_back(seconds_since(t0));
  }
  if (args.fault && !ref.columns.empty()) ref.columns[0] ^= 1;
  flush_file(text_path);

  auto run_pass = [&](PassTimes& t) {
    const CpuTimes c0 = cpu_times();
    const auto t0 = Clock::now();
    pcq::graph::EdgeList list = pcq::graph::load_snap_text(text_path);
    const auto t1 = Clock::now();
    list.sort_radix(kThreads);
    const auto t2 = Clock::now();
    const pcq::csr::BitPackedCsr packed =
        pcq::csr::build_bitpacked_csr_from_sorted(list, 0, kThreads,
                                                  &t.phases);
    const auto t3 = Clock::now();
    pcq::csr::save_bitpacked_csr(packed, csr_path);
    const auto t4 = Clock::now();
    t.steal = steal_fraction(c0, cpu_times());
    if (pcq::obs::trace_enabled()) {
      // The benchmark's own spans around each layer call, beside the
      // program's spans in the same trace.
      pcq::obs::record_span("bench.graph.load", pcq::obs::trace_time_ns(t0),
                            pcq::obs::trace_time_ns(t1), list.size());
      pcq::obs::record_span("bench.par.sort", pcq::obs::trace_time_ns(t1),
                            pcq::obs::trace_time_ns(t2), list.size());
      pcq::obs::record_span("bench.csr.build", pcq::obs::trace_time_ns(t2),
                            pcq::obs::trace_time_ns(t3), packed.num_edges());
      pcq::obs::record_span("bench.csr.save", pcq::obs::trace_time_ns(t3),
                            pcq::obs::trace_time_ns(t4), packed.size_bytes());
    }
    using S = std::chrono::duration<double>;
    t.load = S(t1 - t0).count();
    t.sort = S(t2 - t1).count();
    t.build = S(t3 - t2).count();
    t.save = S(t4 - t3).count();
    t.wall = S(t4 - t0).count();
    std::fprintf(stderr,
                 "pcqbench: pass %.3f s | load %.3f sort %.3f build %.3f "
                 "save %.3f | host steal %.1f%%\n",
                 t.wall, t.load, t.sort, t.build, t.save, 100 * t.steal);

    // Oracle and write-back, outside the timed region.
    flush_file(csr_path);
    ++result.attempted;
    pcq::check::ValidateOptions opts;
    opts.num_threads = kThreads;
    const bool ok = equals_reference(packed, ref) &&
                    pcq::check::validate_csr(packed, opts).ok() &&
                    equals_reference(pcq::csr::load_bitpacked_csr(csr_path),
                                     ref);
    if (!ok) result.fail();
    return packed.size_bytes();
  };

  // Passes until the measured time reaches --seconds. The traced run
  // alternates untraced and traced passes so the tracing overhead is
  // measured on the same inputs.
  std::vector<PassTimes> plain_passes, traced_passes;
  std::size_t packed_bytes = 0;
  double measured = 0;
  const std::size_t min_passes = args.smoke ? 1 : 3;
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    pcq::obs::set_trace_enabled(traced);
    PassTimes t;
    packed_bytes = run_pass(t);
    pcq::obs::set_trace_enabled(false);
    (traced ? traced_passes : plain_passes).push_back(t);
    measured += t.wall;
    const bool enough = plain_passes.size() >= min_passes &&
                        (!args.trace || traced_passes.size() >= min_passes);
    if (enough && measured >= args.seconds) break;
  }

  std::vector<double> walls;
  for (const PassTimes& t : plain_passes) walls.push_back(t.wall);
  const double pass_s = median(walls);
  const double edges = static_cast<double>(ref.columns.size());
  result.set_e2e("setup_s", median(setup_times), "s");
  result.set_e2e("latency_p50_ms", pass_s * 1e3, "ms");
  result.set_e2e("latency_p90_ms", quantile(walls, 0.90) * 1e3, "ms");
  result.set_e2e("capacity_per_s", edges / pass_s, "1/s");
  result.set_e2e("bits_per_edge",
                 8.0 * static_cast<double>(packed_bytes) / edges, "bit");

  if (args.trace) {
    // Per-layer figures come from the traced pass with the median wall
    // time, so they add up to that pass.
    std::sort(traced_passes.begin(), traced_passes.end(),
              [](const PassTimes& a, const PassTimes& b) {
                return a.wall < b.wall;
              });
    const PassTimes& mid = traced_passes[(traced_passes.size() - 1) / 2];
    result.set_layer("compress_s", mid.wall, "s");
    result.set_layer("graph.load_s", mid.load, "s");
    result.set_layer("par.sort_s", mid.sort, "s");
    result.set_layer("csr.degree_s", mid.phases.degree, "s");
    result.set_layer("csr.scan_s", mid.phases.scan, "s");
    result.set_layer("csr.fill_s", mid.phases.fill, "s");
    result.set_layer("csr.pack_s", mid.phases.pack, "s");
    result.set_layer("csr.build_other_s", mid.build - mid.phases.total(), "s");
    result.set_layer("csr.save_s", mid.save, "s");
    std::vector<double> traced_walls;
    for (const PassTimes& t : traced_passes) traced_walls.push_back(t.wall);
    result.set_layer("obs.trace_overhead_frac",
                     median(traced_walls) / pass_s - 1.0, "ratio");

    // Table II speed-up: the same sort and build at p = 1 and p = 4,
    // alternated, median of 3 each.
    pcq::graph::EdgeList loaded = pcq::graph::load_snap_text(text_path);
    auto time_sort = [&](int threads) {
      pcq::graph::EdgeList copy = loaded;
      const auto t0 = Clock::now();
      copy.sort_radix(threads);
      return seconds_since(t0);
    };
    auto time_build = [&](int threads) {
      const auto t0 = Clock::now();
      const pcq::csr::BitPackedCsr packed =
          pcq::csr::build_bitpacked_csr_from_sorted(loaded, 0, threads);
      return seconds_since(t0);
    };
    std::vector<double> sort1, sort4, build1, build4;
    for (int rep = 0; rep < 3; ++rep) {
      sort4.push_back(time_sort(kThreads));
      sort1.push_back(time_sort(1));
    }
    loaded.sort_radix(kThreads);
    for (int rep = 0; rep < 3; ++rep) {
      build4.push_back(time_build(kThreads));
      build1.push_back(time_build(1));
    }
    result.set_layer("par.sort_speedup", median(sort1) / median(sort4), "x");
    result.set_layer("csr.build_speedup", median(build1) / median(build4),
                     "x");
  }

  std::error_code ec;
  fs::remove(text_path, ec);
  fs::remove(csr_path, ec);
  result.set_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace pcqbench
