// Shared infrastructure for the paper-style benchmark harnesses
// (bench_table2 / bench_fig6 / bench_fig7 all report the same underlying
// experiment: bit-packed CSR construction time vs processor count on the
// four Table II graphs).
#pragma once

#include <string>
#include <vector>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"

namespace pcq::bench {

/// One (graph, p) measurement.
struct ConstructionSample {
  int threads = 1;
  double seconds = 0;          ///< measured wall time (min over repeats)
  double modeled_seconds = 0;  ///< analytic model, see scaling_model below
  csr::CsrBuildTimings phases; ///< per-phase split of the measured run
};

/// Everything Table II reports for one graph.
struct GraphResult {
  std::string name;
  graph::VertexId nodes = 0;
  std::size_t edges = 0;
  std::size_t edge_list_bytes = 0;       ///< binary pairs, 8 B/edge
  std::size_t edge_list_text_bytes = 0;  ///< SNAP text file (paper's unit)
  std::size_t csr_bytes = 0;
  std::vector<ConstructionSample> samples;  ///< one per thread count
};

/// Experiment configuration assembled from command-line flags shared by
/// every harness: --scale, --seed, --threads, --repeats, --graphs.
struct ExperimentConfig {
  double scale = 1.0 / 16;          ///< fraction of the full SNAP sizes
  std::uint64_t seed = 42;
  std::vector<int> threads = {1, 4, 8, 16, 64};  ///< the paper's sweep
  int repeats = 3;
  std::vector<std::string> graphs;  ///< empty = all four presets
};

/// Flag spec shared by the table/figure harnesses.
std::map<std::string, std::string> experiment_flag_spec();

/// Parses the shared flags.
ExperimentConfig parse_experiment_config(const pcq::util::Flags& flags);

/// Runs the Table II experiment for one preset: generates the graph at
/// config.scale, then times bit-packed CSR construction at each thread
/// count (min of config.repeats runs, as the paper's methodology of
/// best-observed timing suggests).
GraphResult run_construction_experiment(const graph::GraphPreset& preset,
                                        const ExperimentConfig& config);

/// Runs the experiment for every configured graph.
std::vector<GraphResult> run_all_experiments(const ExperimentConfig& config);

/// Speed-up in the paper's Table II sense: percentage of the p = 1 time
/// saved, (1 - T_p / T_1) * 100.
double speedup_percent(double t1, double tp);

/// Analytic scaling model, calibrated from the measured p = 1 per-phase
/// times. On a host with fewer cores than p, oversubscribed threads
/// cannot exhibit real parallel speedup; the model projects what the same
/// phase structure yields with p real processors (see DESIGN.md §1.3):
///
///   T(p) = Σ_phase T_phase(1) * ((1 - f_phase) + f_phase / p) + c_sync·p
///
/// where f_phase is the parallelisable fraction implied by each
/// algorithm's structure (the O(p) merge/carry steps are the serial
/// remainder) and c_sync models barrier/fork cost growing with p.
double scaling_model(const csr::CsrBuildTimings& t1, int p);

/// True when the host machine has more than one hardware thread, i.e.
/// measured numbers are expected to show real speedup.
bool host_is_multicore();

/// Emits one CSV row per (graph, thread count) for replotting
/// (the --csv flag of the table/figure harnesses).
void print_csv(const std::vector<GraphResult>& results);

/// Writes the full result set as a JSON document (machine-readable twin of
/// the printed tables: per-graph sizes plus per-thread-count timings and
/// phase splits). Returns false on I/O error.
bool write_results_json(const std::vector<GraphResult>& results,
                        const std::string& path);

/// Handles the output flags shared by the table/figure harnesses after the
/// experiment ran: --csv (rows to stdout), --json FILE (results document)
/// and --trace FILE (Chrome trace of the benched builds; recording was
/// switched on by parse_experiment_config when the flag is present).
/// Returns the process exit code: 0, or 3 when a file write failed.
int emit_common_outputs(const pcq::util::Flags& flags,
                        const std::vector<GraphResult>& results);

// --- Latency distributions (bench_svc, bench_query) -------------------------

/// Percentile summary of a latency sample. Units follow the input (the
/// serving benches feed microseconds).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Nearest-rank-with-interpolation percentile over an ascending-sorted
/// sample; q in [0, 1]. Returns 0 for an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Sorts `latencies` in place and computes the summary. An empty sample
/// yields an all-zero summary.
LatencySummary summarize_latencies(std::vector<double>& latencies);

}  // namespace pcq::bench
