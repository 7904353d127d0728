// pcqbench — the benchmark binary for pcq.
//
//   pcqbench --workload compress|read|mixed --seed N --seconds S --trace 0|1
//            [--smoke] [--fault] [--workdir DIR]
//
// Prints one host-fingerprint line, then, as the last line of stdout, the
// result document {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// See README.md in this directory for the workloads and metric map.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The fixed metric sets. Every workload reports each name; a layer the
// workload never calls reports 0.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"capacity_per_s", "1/s"},
    {"bits_per_edge", "bit"},  {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    // compress
    {"compress_s", "s"},
    {"graph.load_s", "s"},
    {"par.sort_s", "s"},
    {"csr.degree_s", "s"},
    {"csr.scan_s", "s"},
    {"csr.fill_s", "s"},
    {"csr.pack_s", "s"},
    {"csr.build_other_s", "s"},
    {"csr.save_s", "s"},
    {"par.sort_speedup", "x"},
    {"csr.build_speedup", "x"},
    // read (and mixed where the layer is shared)
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"svc.residence_p50_us", "us"},
    {"svc.residence_p99_us", "us"},
    {"net.share_p50_us", "us"},
    {"svc.queue_wait_p50_us", "us"},
    {"svc.mean_batch", "count"},
    {"svc.allocs_per_req", "count"},
    {"csr.query.degree_ns", "ns"},
    {"csr.query.edge_ns", "ns"},
    {"csr.query.neighbors_ns", "ns"},
    {"bits.decode_mvals_per_s", "Mval/s"},
    {"net.codec_ns_per_frame", "ns"},
    {"net.bytes_out_per_req", "B"},
    // mixed
    {"write_p99_us", "us"},
    {"dyn.add_ns_per_edge", "ns"},
    {"dyn.remove_ns_per_edge", "ns"},
    {"dyn.compactions", "count"},
    {"dyn.compact_s", "s"},
    {"dyn.view_pin_ns", "ns"},
    {"dyn.view_read_ns", "ns"},
    // all
    {"loadgen.lateness_p99_us", "us"},
    {"obs.trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

void fill_missing(std::vector<pcqbench::Metric>& list,
                  std::span<const MetricName> names) {
  std::vector<pcqbench::Metric> ordered;
  for (const MetricName& n : names) {
    pcqbench::Metric m{n.name, 0.0, n.unit};
    for (const pcqbench::Metric& have : list)
      if (have.name == n.name) m.value = have.value;
    ordered.push_back(m);
  }
  list = std::move(ordered);
}

int usage() {
  std::fprintf(stderr,
               "usage: pcqbench --workload compress|read|mixed --seed N "
               "--seconds S --trace 0|1 [--smoke] [--fault] [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pcqbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(value().c_str());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--workdir") args.workdir = value();
    else if (a == "--smoke") args.smoke = true;
    else if (a == "--fault") args.fault = true;
    else return usage();
  }
  if (args.seconds <= 0) return usage();

  // End-to-end runs have tracing and slow-query capture off whatever the
  // environment says; the traced run switches spans on per phase.
  pcq::obs::set_trace_enabled(false);
  pcq::obs::SlowLog::global().set_threshold_us(0);

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  std::printf("host %s\n", pcqbench::host_fingerprint(args).c_str());
  std::fflush(stdout);

  pcqbench::Result result;
  try {
    if (args.workload == "compress") result = pcqbench::run_compress(args);
    else if (args.workload == "read") result = pcqbench::run_read(args);
    else if (args.workload == "mixed") result = pcqbench::run_mixed(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcqbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "pcqbench: nothing was attempted\n");
    return 1;
  }
  result.set_layer("failed_frac",
                   static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted),
                   "ratio");
  if (args.trace) {
    // Everything the rings still hold, for chrome://tracing or Perfetto.
    const std::string path = args.workdir + "/trace-" + args.workload + ".json";
    if (pcq::obs::write_chrome_trace_file(path))
      std::fprintf(stderr, "pcqbench: spans written to %s\n", path.c_str());
  }
  fill_missing(result.e2e, kEndToEnd);
  fill_missing(result.layer, kPerLayer);
  pcqbench::print_result(result, args.trace);
  return 0;
}
