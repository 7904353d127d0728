// Ablation bench **S4**: the paper's chunked prefix sum (Algorithm 1)
// against a sequential scan and std::inclusive_scan, across input sizes and
// thread counts.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "par/prefix_sum.hpp"
#include "util/rng.hpp"

namespace {

std::vector<std::uint64_t> make_input(std::size_t n) {
  pcq::util::SplitMix64 rng(7);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(16);
  return v;
}

void BM_SequentialScan(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> v;
  for (auto _ : state) {
    v = input;
    pcq::par::sequential_inclusive_scan(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SequentialScan)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_StdInclusiveScan(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> v;
  for (auto _ : state) {
    v = input;
    std::inclusive_scan(v.begin(), v.end(), v.begin());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdInclusiveScan)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_ChunkedScan(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  std::vector<std::uint64_t> v;
  for (auto _ : state) {
    v = input;
    pcq::par::chunked_inclusive_scan(std::span<std::uint64_t>(v), threads);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChunkedScan)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Args({1 << 20, 16})
    ->Args({1 << 23, 1})
    ->Args({1 << 23, 4})
    ->Args({1 << 23, 16})
    ->Args({1 << 23, 64});

}  // namespace

BENCHMARK_MAIN();
