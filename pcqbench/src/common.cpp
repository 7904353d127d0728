#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "bits/simd_dispatch.hpp"
#include "obs/trace.hpp"

#ifndef PCQBENCH_BUILD_TYPE
#define PCQBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Allocation counter: every global operator new of the process bumps one
// relaxed counter, so a phase's allocations are the counter's delta.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pcqbench {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void Result::set(std::vector<Metric>& list, const std::string& name,
                 double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Metric& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Allowed CPUs of this process, captured once before any pinning.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

}  // namespace

std::vector<int> cpus_of(Cpus side) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2 || side == Cpus::kAll) return cpus;
  if (side == Cpus::kGenerator) return {cpus.back()};
  const std::size_t server = std::min<std::size_t>(2, cpus.size() - 1);
  return {cpus.begin(), cpus.begin() + static_cast<std::ptrdiff_t>(server)};
}

void pin_cpus(Cpus side) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_of(side)) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_param param{};
      if (sched_setaffinity(0, sizeof set, &set) != 0 ||
          sched_setscheduler(0, SCHED_IDLE, &param) != 0)
        return;  // at normal priority it would compete with the server
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void flush_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::close(fd);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string first;
  in >> first;
  return first.empty() ? "0" : first;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string host_fingerprint(const Args& args) {
  std::ostringstream out;
  out << "{\"workload\": \"" << json_escape(args.workload) << "\""
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
      << ", \"isa\": \""
      << pcq::bits::simd::isa_name(pcq::bits::simd::active_isa()) << "\""
      << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
      << ", \"build_type\": \"" << PCQBENCH_BUILD_TYPE << "\""
      << ", \"pcq_trace_compiled\": "
      << (pcq::obs::kTraceCompiledIn ? "true" : "false")
      << ", \"loadavg_1m\": " << load_average() << "}";
  return out.str();
}

void print_result(const Result& result, bool trace) {
  const std::vector<Metric>& metrics = trace ? result.layer : result.e2e;
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace pcqbench
