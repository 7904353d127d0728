#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace pcq::bench {

std::map<std::string, std::string> experiment_flag_spec() {
  return {
      {"scale", "fraction of full SNAP graph sizes to generate (default 1/16)"},
      {"seed", "generator seed (default 42)"},
      {"threads", "comma-separated processor counts (default 1,4,8,16,64)"},
      {"repeats", "timed repetitions per configuration, min is reported (default 3)"},
      {"graphs", "comma-separated preset names (default: all four)"},
      {"csv", "also print machine-readable CSV rows for replotting"},
      {"json", "write the results as a JSON document to this file"},
      {"trace", "write Chrome trace JSON of the benched builds here"},
  };
}

void print_csv(const std::vector<GraphResult>& results) {
  std::printf("\ncsv,graph,nodes,edges,edgelist_bytes,csr_bytes,threads,"
              "time_ms,model_ms,speedup_meas_pct,speedup_model_pct\n");
  for (const auto& g : results) {
    const auto& base = g.samples.front();
    for (const auto& s : g.samples) {
      std::printf("csv,%s,%u,%zu,%zu,%zu,%d,%.4f,%.4f,%.2f,%.2f\n",
                  g.name.c_str(), g.nodes, g.edges, g.edge_list_text_bytes,
                  g.csr_bytes, s.threads, s.seconds * 1e3,
                  s.modeled_seconds * 1e3,
                  speedup_percent(base.seconds, s.seconds),
                  speedup_percent(base.modeled_seconds, s.modeled_seconds));
    }
  }
}

bool write_results_json(const std::vector<GraphResult>& results,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"graphs\":[";
  char buf[256];
  for (std::size_t g = 0; g < results.size(); ++g) {
    const GraphResult& r = results[g];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"nodes\":%u,\"edges\":%zu,"
                  "\"edge_list_bytes\":%zu,\"edge_list_text_bytes\":%zu,"
                  "\"csr_bytes\":%zu,\"samples\":[",
                  g == 0 ? "" : ",", r.name.c_str(), r.nodes, r.edges,
                  r.edge_list_bytes, r.edge_list_text_bytes, r.csr_bytes);
    out << buf;
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      const ConstructionSample& s = r.samples[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"threads\":%d,\"time_s\":%.9f,\"model_s\":%.9f,"
                    "\"phases\":{\"degree\":%.9f,\"scan\":%.9f,"
                    "\"fill\":%.9f,\"pack\":%.9f}}",
                    i == 0 ? "" : ",", s.threads, s.seconds, s.modeled_seconds,
                    s.phases.degree, s.phases.scan, s.phases.fill,
                    s.phases.pack);
      out << buf;
    }
    out << "]}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int emit_common_outputs(const pcq::util::Flags& flags,
                        const std::vector<GraphResult>& results) {
  if (flags.get_bool("csv", false)) print_csv(results);
  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    if (!write_results_json(results, json)) {
      std::fprintf(stderr, "error: cannot write results to %s\n", json.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench] wrote results %s\n", json.c_str());
  }
  const std::string trace = flags.get("trace", "");
  if (!trace.empty()) {
    if (!pcq::obs::write_chrome_trace_file(trace)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", trace.c_str());
      return 3;
    }
    std::fprintf(stderr, "[bench] wrote trace %s\n", trace.c_str());
  }
  return 0;
}

ExperimentConfig parse_experiment_config(const pcq::util::Flags& flags) {
  // The benched builds should appear in a requested --trace file, so span
  // recording turns on before any experiment runs.
  if (flags.has("trace")) pcq::obs::set_trace_enabled(true);
  ExperimentConfig config;
  config.scale = flags.get_double("scale", config.scale);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.threads = flags.get_int_list("threads", config.threads);
  config.repeats = static_cast<int>(flags.get_int("repeats", config.repeats));
  const std::string graphs = flags.get("graphs", "");
  std::size_t pos = 0;
  while (pos < graphs.size()) {
    std::size_t comma = graphs.find(',', pos);
    if (comma == std::string::npos) comma = graphs.size();
    config.graphs.push_back(graphs.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return config;
}

double speedup_percent(double t1, double tp) {
  if (t1 <= 0) return 0;
  return (1.0 - tp / t1) * 100.0;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

LatencySummary summarize_latencies(std::vector<double>& latencies) {
  LatencySummary s;
  if (latencies.empty()) return s;
  std::sort(latencies.begin(), latencies.end());
  s.count = latencies.size();
  double sum = 0;
  for (double v : latencies) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  s.p50 = percentile_sorted(latencies, 0.50);
  s.p90 = percentile_sorted(latencies, 0.90);
  s.p95 = percentile_sorted(latencies, 0.95);
  s.p99 = percentile_sorted(latencies, 0.99);
  s.max = latencies.back();
  return s;
}

double scaling_model(const csr::CsrBuildTimings& t1, int p) {
  // Parallelisable fraction of each phase, from the algorithm structure:
  //   degree: chunk-local run counting, O(p) sequential spill merge;
  //   scan:   phases 1 and 3 parallel, phase 2 a sequential O(p) carry;
  //   fill:   embarrassingly parallel copy (0 for the bit-packed build,
  //           whose pack phase packs jA straight from the edge list);
  //   pack:   64-element-block packing into disjoint words, no merge.
  struct Phase {
    double time;
    double parallel_fraction;
  };
  const Phase phases[] = {
      {t1.degree, 0.99},
      {t1.scan, 0.96},
      {t1.fill, 1.00},
      {t1.pack, 0.98},
  };
  double total = 0;
  for (const Phase& ph : phases)
    total += ph.time * ((1.0 - ph.parallel_fraction) +
                        ph.parallel_fraction / static_cast<double>(p));
  // Fork/barrier overhead: ~6 parallel regions per build, a few
  // microseconds of fork + join each, growing with thread count.
  constexpr double kSyncPerThread = 4e-6;
  total += kSyncPerThread * p;
  return total;
}

bool host_is_multicore() { return std::thread::hardware_concurrency() > 1; }

GraphResult run_construction_experiment(const graph::GraphPreset& preset,
                                        const ExperimentConfig& config) {
  GraphResult result;
  result.name = preset.name;

  const graph::EdgeList list =
      graph::make_preset_graph(preset, config.scale, config.seed, 0);
  result.nodes = list.num_nodes();
  result.edges = list.size();
  result.edge_list_bytes = list.size_bytes();
  result.edge_list_text_bytes = list.text_size_bytes();

  for (int p : config.threads) {
    ConstructionSample sample;
    sample.threads = p;
    double best = -1;
    for (int rep = 0; rep < config.repeats; ++rep) {
      csr::CsrBuildTimings phases;
      pcq::util::Timer timer;
      const csr::BitPackedCsr packed =
          csr::build_bitpacked_csr_from_sorted(list, result.nodes, p, &phases);
      const double elapsed = timer.seconds();
      if (best < 0 || elapsed < best) {
        best = elapsed;
        sample.phases = phases;
      }
      if (result.csr_bytes == 0) result.csr_bytes = packed.size_bytes();
    }
    sample.seconds = best;
    result.samples.push_back(sample);
  }

  // Calibrate the scaling model from the lowest-thread-count run (p = 1 in
  // the paper's sweep) once all measurements exist.
  const ConstructionSample* calib = &result.samples.front();
  for (const auto& s : result.samples)
    if (s.threads < calib->threads) calib = &s;
  for (auto& s : result.samples)
    s.modeled_seconds = scaling_model(calib->phases, s.threads);
  return result;
}

std::vector<GraphResult> run_all_experiments(const ExperimentConfig& config) {
  std::vector<GraphResult> results;
  for (const auto& preset : graph::paper_presets()) {
    if (!config.graphs.empty()) {
      bool wanted = false;
      for (const auto& name : config.graphs)
        if (name == preset.name) wanted = true;
      if (!wanted) continue;
    }
    std::fprintf(stderr, "[bench] %s: generating at scale %.4f...\n",
                 preset.name.c_str(), config.scale);
    results.push_back(run_construction_experiment(preset, config));
  }
  return results;
}

}  // namespace pcq::bench
