// Single-thread load generator over pcq's TCP wire protocol.
//
// Open loop: requests are due on a seeded Poisson schedule whatever the
// replies do (independent users), go out over at most a few non-blocking
// connections, and are timed from their due time, so a stall also charges
// the requests queued behind it. How late the generator itself sent is
// reported as lateness.
// Closed loop: a fixed number of callers each send their next request as
// soon as the previous reply arrives, timed from the send.
// Every reply is checked against the answer the set-up precomputed.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace pcqbench {

struct Op {
  std::uint8_t kind = 0;   // svc::QueryKind value
  std::uint8_t check = 0;  // 1: `expect` must match; 0: status only
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  // kDegree: degree; kEdgeExists: 0/1; kNeighbors: row_digest;
  // kAddEdges/kRemoveEdges: 1 (the write must report a change).
  std::uint64_t expect = 0;
};

// The operations a phase sends: reads cycle through a pool, writes are
// drawn in order and each is sent at most once.
struct OpStream {
  std::vector<Op> reads;
  std::vector<Op> writes;
  double write_frac = 0;
  std::size_t next_read = 0;
  std::size_t next_write = 0;
  std::uint64_t rng = 1;

  const Op& next();
};

struct PhaseStats {
  double rate = 0;
  std::uint64_t sent = 0;
  // Error status (kRejected and kExpired included), wrong answer, or no
  // reply before the drain timeout.
  std::uint64_t failed = 0;
  bool capped = false;  // the in-flight cap held requests back
  std::vector<double> latency_us;        // every reply, from its due time
  std::vector<float> due_s;              // each latency's due time in the phase
  std::vector<double> write_latency_us;  // mutation replies only
  std::vector<float> write_due_s;
  std::vector<double> lateness_us;       // send time minus due time
  // Replies per half-second window of the phase, by arrival time.
  std::vector<double> answered_per_window;
  // Host steal (share of all CPUs' time) in each half-second window.
  std::vector<double> steal_per_window;
};

// Window length of the per-window statistics (answer rates here, latency
// quantiles in serve.cpp).
inline constexpr double kWindowS = 0.5;

class LoadGen {
 public:
  LoadGen(std::uint16_t port, int connections, std::size_t max_inflight);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Offers `rate` requests/s for `seconds`, then waits for every reply.
  // While `max_inflight` requests are outstanding, due requests wait.
  // Without `samples`, only counts are kept (no per-request vectors).
  PhaseStats run(OpStream& ops, double rate, double seconds,
                 std::uint64_t seed, bool samples = true);

  // Keeps `callers` requests outstanding for `seconds`, each sent as soon
  // as a reply frees its place, then waits for every reply.
  PhaseStats run_closed(OpStream& ops, std::size_t callers, double seconds);

 private:
  // Open loop when `callers` is 0, closed loop otherwise.
  PhaseStats drive(OpStream& ops, double rate, std::size_t callers,
                   double seconds, std::uint64_t seed, bool samples);

  struct Conn;
  struct Slot;
  std::vector<Conn> conns_;
  std::vector<Slot> slots_;
  std::size_t max_inflight_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace pcqbench
