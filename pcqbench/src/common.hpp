// Shared pieces of the pcq benchmark binary: arguments, the result
// document, order statistics, the answer digest, the host fingerprint and
// the allocation counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace pcqbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke size: tiny inputs and short phases, for the self-tests.
  bool smoke = false;
  // Negative control: corrupt one expected answer so the oracle must fail.
  bool fault = false;
  // Scratch directory for files the workload writes.
  std::string workdir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `e2e` is printed with --trace 0, `layer` with
// --trace 1; each workload fills both lists with the full, fixed name sets
// (a layer a workload never calls reports 0).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void fail(std::uint64_t n = 1) {
    failed += n;
    if (n > 0) correct = false;
  }
  void set(std::vector<Metric>& list, const std::string& name, double value,
           const std::string& unit);
  void set_e2e(const std::string& name, double value, const std::string& unit) {
    set(e2e, name, value, unit);
  }
  void set_layer(const std::string& name, double value,
                 const std::string& unit) {
    set(layer, name, value, unit);
  }
};

// Median of the values (0 when empty); sorts a copy.
double median(std::vector<double> values);
// Nearest-rank quantile q in [0, 1] of the values (0 when empty). Sorts in
// place so callers asking several quantiles of one sample sort once.
double quantile_sorted(std::span<const double> sorted, double q);
double quantile(std::vector<double> values, double q);

// Order-sensitive 64-bit digest of a neighbour row (length included), used
// as the expected answer of a neighbours request.
inline std::uint64_t row_digest(std::span<const std::uint32_t> row) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ (row.size() * 0x9E3779B97F4A7C15ull);
  for (std::uint32_t v : row) h = (h ^ v) * 0x100000001B3ull;
  return h;
}

// splitmix64 finaliser: seeds and cheap deterministic hashing.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Next gap of a Poisson arrival process at `rate` per second, in ns.
inline std::int64_t poisson_gap_ns(std::uint64_t& state, double rate) {
  state = mix64(state);
  const double u01 = static_cast<double>(state >> 11) * 0x1.0p-53;
  return static_cast<std::int64_t>(-std::log1p(-u01) / rate * 1e9);
}

// Splits the CPUs this process may use into one for the load generator
// (the last) and up to two others for the server (the first). With 4 CPUs
// one stays free for the kernel's network work and other processes. With
// fewer than 2 CPUs every side gets all of them.
enum class Cpus { kAll, kServer, kGenerator };
std::vector<int> cpus_of(Cpus side);

// Pins the calling thread to one side's CPUs, or back to all of them.
// Threads inherit the mask of the thread that creates them, so pin to
// kServer before constructing a server and to kGenerator before driving it.
void pin_cpus(Cpus side);

// One spinning thread at SCHED_IDLE priority on each of the given CPUs,
// while in scope. Any runnable thread preempts them at once, so they take
// no time from the server, but the CPU never goes idle. On a virtual
// machine an idle virtual CPU is halted, and waking it to hand it a
// request costs the hypervisor's scheduling delay (tens of microseconds
// and, on a busy host, much more): without the spinners that delay, not
// the program, set the unloaded request latency.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Cumulative CPU time of the whole host (all CPUs, jiffies) and the part of
// it the hypervisor gave to other guests while this one wanted to run
// (steal), from the "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes cpu_times();
// Steal as a share of the CPU time between two readings.
double steal_fraction(const CpuTimes& from, const CpuTimes& to);

// Flushes a written file to storage, so its write-back does not run
// during a later timed phase.
void flush_file(const std::string& path);

// Keeps a value the timed code computed, so the compiler cannot drop the
// work that produced it.
inline void keep(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

// One-line JSON object describing the host and build, printed before the
// result so every result carries its fingerprint and seed.
std::string host_fingerprint(const Args& args);

// Heap allocations made by this process so far (operator new override in
// common.cpp).
std::uint64_t allocations();

// Prints the result document as the last line of stdout.
void print_result(const Result& result, bool trace);

// Workload entry points.
Result run_compress(const Args& args);
Result run_read(const Args& args);
Result run_mixed(const Args& args);

}  // namespace pcqbench
