// pcq::obs — low-overhead span tracing for the build and serve paths.
//
// Design (flight-recorder style, GBBS/ParaGrapher-inspired):
//
//   * Each thread that records owns a fixed-capacity ring buffer of span
//     events. A span is recorded by the RAII `PCQ_TRACE_SCOPE("name")`
//     macro: two steady_clock reads (scope entry/exit) plus a handful of
//     relaxed atomic stores into the thread's own ring. No locks, no
//     allocation, no cross-thread traffic on the hot path — the only
//     synchronisation is a per-slot seqlock so a concurrent collector
//     (pcq_serve's TRACE command drains while shard workers are live) can
//     detect and skip slots that are mid-overwrite.
//   * When the ring wraps, the oldest events are overwritten and counted
//     as dropped — the tracer degrades into a "last N spans per thread"
//     flight recorder instead of growing without bound.
//   * Span names must be string literals (or other pointers with static
//     storage duration): the ring stores the pointer, never the bytes.
//   * The collector drains every ring into a single event list and exports
//     Chrome trace-event JSON ("ph":"X" complete events, microsecond
//     timestamps) loadable in Perfetto / chrome://tracing.
//
// Compile-time switch: building with -DPCQ_TRACE_ENABLED=0 (CMake option
// PCQ_TRACE=OFF) compiles `PCQ_TRACE_SCOPE` to literally nothing — a void
// expression with no clock reads, no TraceScope object, no code. The
// collector API remains linkable so tools need no #ifdefs; it just
// observes empty rings.
//
// Runtime switch: even when compiled in, recording is off until
// `set_trace_enabled(true)` (or environment variable PCQ_TRACE=1). A
// compiled-in but runtime-disabled scope costs one relaxed atomic load
// and a predictable branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#ifndef PCQ_TRACE_ENABLED
#define PCQ_TRACE_ENABLED 1
#endif

namespace pcq::obs {

/// True when the tracer was compiled in (PCQ_TRACE=ON builds).
inline constexpr bool kTraceCompiledIn = PCQ_TRACE_ENABLED != 0;

/// One collected span. Times are nanoseconds since the process trace
/// epoch (the first steady_clock read the tracer ever makes).
struct CollectedSpan {
  const char* name = nullptr;  ///< static string, never owned
  std::uint32_t tid = 0;       ///< dense per-ring thread index
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;  ///< free-form payload (batch size, chunk count...)
};

/// Aggregate accounting across all rings — written/collected/dropped must
/// reconcile: written == collectable + dropped (dropped counts ring-wrap
/// overwrites plus events from threads beyond the ring cap).
struct TraceStats {
  std::uint64_t threads = 0;    ///< rings ever registered
  std::uint64_t written = 0;    ///< spans successfully recorded into rings
  std::uint64_t dropped = 0;    ///< overwritten by wrap + unregistered-thread
};

namespace detail {

extern std::atomic<bool> g_trace_enabled;

/// Nanoseconds since the trace epoch (steady_clock based).
std::uint64_t now_ns();

/// Fixed-capacity single-writer ring. The owning thread records; any
/// thread may drain concurrently (seqlock per slot).
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 1 << 12;  ///< spans per thread

  explicit TraceRing(std::uint32_t tid);

  /// Owner thread only.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t arg);

  /// Appends every readable span to `out`. Slots being overwritten during
  /// the read are skipped (they are part of the wrap-dropped count by the
  /// time the writer finishes). Safe concurrently with record().
  void drain(std::vector<CollectedSpan>& out) const;

  [[nodiscard]] std::uint64_t written() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Spans lost to ring wrap so far.
  [[nodiscard]] std::uint64_t wrap_dropped() const {
    const std::uint64_t h = written();
    return h > kCapacity ? h - kCapacity : 0;
  }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  /// Owner-thread-or-quiescent only: forgets all recorded spans.
  void reset();

 private:
  struct Slot {
    /// Odd while being written. Mutable: the const drain() re-reads it
    /// with fetch_add(0), which stores nothing new.
    mutable std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint64_t> arg{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< total spans ever recorded
  std::uint32_t tid_;
};

/// The calling thread's ring, registering it on first use. Returns nullptr
/// once the global ring cap is reached (the span is then counted dropped).
TraceRing* ring_for_this_thread();

}  // namespace detail

/// Runtime recording toggle. Initialised from the PCQ_TRACE environment
/// variable ("1"/"on"/"true" enable).
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled);

/// RAII span: stamps entry on construction, records on destruction.
/// `arg` rides along into the Chrome trace "args" object.
class TraceScope {
 public:
  explicit TraceScope(const char* name, std::uint64_t arg = 0) {
    if (trace_enabled()) {
      name_ = name;
      arg_ = arg;
      start_ns_ = detail::now_ns();
    }
  }
  ~TraceScope() {
    if (name_ == nullptr) return;
    if (detail::TraceRing* ring = detail::ring_for_this_thread())
      ring->record(name_, start_ns_, detail::now_ns(), arg_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

/// Records a span with explicit endpoints (for code that cannot use RAII,
/// e.g. "only record the wait if it yielded a batch"). Timestamps come
/// from trace_now_ns(). No-op when recording is disabled.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t arg = 0);

/// Current trace clock (ns since epoch) — pairs with record_span.
std::uint64_t trace_now_ns();

/// Converts a steady_clock time_point into trace-clock nanoseconds, so
/// timestamps stamped outside the tracer (svc enqueue times, net receipt)
/// can become span endpoints. Points before the trace epoch clamp to 0.
std::uint64_t trace_time_ns(std::chrono::steady_clock::time_point tp);

/// Drains every ring. Events are sorted by (tid, start, longer-first), so
/// each thread's lane is time-ordered with parents before children.
std::vector<CollectedSpan> collect_trace();

[[nodiscard]] TraceStats trace_stats();

/// Forgets all recorded spans and resets drop accounting. Only meaningful
/// at quiescence (no concurrent recorders) — tests and tools between runs.
void reset_trace();

/// Writes the Chrome trace-event JSON for everything currently recorded.
void write_chrome_trace(std::ostream& out);

/// Convenience: write_chrome_trace to a file. Returns false on I/O error.
bool write_chrome_trace_file(const std::string& path);

/// Human-readable per-phase aggregate of the recorded spans: one row per
/// span name with count, total/mean wall time and share of the traced
/// wall-clock range. The `--stats` table of pcq_cli.
void write_phase_table(std::ostream& out);

/// The OFF-build expansion target: proves by type that a disabled
/// PCQ_TRACE_SCOPE carries no state (see tests/test_obs_trace.cpp).
struct NullTraceScope {};

#define PCQ_OBS_CAT2(a, b) a##b
#define PCQ_OBS_CAT(a, b) PCQ_OBS_CAT2(a, b)

#if PCQ_TRACE_ENABLED
/// PCQ_TRACE_SCOPE("name"[, arg]) — RAII span over the enclosing scope.
#define PCQ_TRACE_SCOPE(...) \
  ::pcq::obs::TraceScope PCQ_OBS_CAT(pcq_trace_scope_, __LINE__) { __VA_ARGS__ }
#else
#define PCQ_TRACE_SCOPE(...) static_cast<void>(0)
#endif

}  // namespace pcq::obs
