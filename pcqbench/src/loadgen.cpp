#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/protocol.hpp"
#include "svc/request.hpp"

namespace pcqbench {

namespace {

constexpr std::int64_t kDrainTimeoutNs = 5'000'000'000;
// Below this gap to the next due time the generator spins instead of
// sleeping in ppoll.
constexpr std::int64_t kSpinNs = 30'000;
// A request id is (sequence << kSlotBits) | slot: the slot stays reserved
// until its reply arrives, however far later requests overtake it.
constexpr unsigned kSlotBits = 16;
constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

double uniform01(std::uint64_t& state) {
  state = mix64(state);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

bool is_write(std::uint8_t kind) {
  return pcq::svc::is_mutation_kind(static_cast<pcq::svc::QueryKind>(kind));
}

}  // namespace

const Op& OpStream::next() {
  if (write_frac > 0 && next_write < writes.size() &&
      uniform01(rng) < write_frac)
    return writes[next_write++];
  const Op& op = reads[next_read];
  next_read = next_read + 1 == reads.size() ? 0 : next_read + 1;
  return op;
}

struct LoadGen::Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0;
};

struct LoadGen::Slot {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  Op op;
};

LoadGen::LoadGen(std::uint16_t port, int connections, std::size_t max_inflight)
    : max_inflight_(max_inflight) {
  if (max_inflight == 0 || max_inflight > kSlotMask + 1)
    throw std::invalid_argument("max_inflight out of range");
  slots_.resize(max_inflight);
  conns_.resize(static_cast<std::size_t>(connections));
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("connect() failed: " +
                               std::string(std::strerror(errno)));
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    c.in.resize(1 << 20);
  }
  // Sub-microsecond wakeups from ppoll: the default 50 us timer slack
  // would make the generator late by design.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

PhaseStats LoadGen::run(OpStream& ops, double rate, double seconds,
                        std::uint64_t seed, bool samples) {
  return drive(ops, rate, 0, seconds, seed, samples);
}

PhaseStats LoadGen::run_closed(OpStream& ops, std::size_t callers,
                               double seconds) {
  if (callers == 0 || callers > max_inflight_)
    throw std::invalid_argument("callers out of range");
  return drive(ops, 0, callers, seconds, 0, true);
}

PhaseStats LoadGen::drive(OpStream& ops, double rate, std::size_t callers,
                          double seconds, std::uint64_t seed, bool samples) {
  const bool closed = callers > 0;
  const std::size_t max_inflight = closed ? callers : max_inflight_;
  PhaseStats st;
  st.rate = rate;
  if (samples) {
    // A closed loop's rate is not known in advance; 50k/s is ample for the
    // few callers it is run with.
    const double per_s = closed ? 50'000 : rate;
    const auto expected = static_cast<std::size_t>(per_s * seconds * 1.2) + 16;
    st.latency_us.reserve(expected);
    st.due_s.reserve(expected);
    st.lateness_us.reserve(expected);
  }
  st.answered_per_window.assign(
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds / kWindowS))),
      0.0);

  // Slots of an earlier phase that timed out stay unmatched: their ids
  // are cleared and their sequence numbers never recur.
  std::vector<std::uint32_t> free_slots(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].id = 0;
    free_slots[i] = static_cast<std::uint32_t>(slots_.size() - 1 - i);
  }
  std::uint64_t rng = mix64(seed);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_due = closed ? start : start + poisson_gap_ns(rng, rate);
  std::size_t inflight = 0;
  std::size_t rr = 0;
  bool sending = true;
  pcq::net::WireRequest wreq;
  pcq::net::WireResponse wresp;
  std::vector<pollfd> pfds(conns_.size());
  // Host steal per window: /proc/stat is read as each window closes.
  CpuTimes window_cpu = cpu_times();
  std::int64_t window_end = start + static_cast<std::int64_t>(kWindowS * 1e9);

  auto handle_reply = [&](std::int64_t now) {
    const std::uint64_t slot = wresp.id & kSlotMask;
    if (slot >= slots_.size() || slots_[slot].id != wresp.id)
      return;  // a straggler from an earlier phase
    Slot& s = slots_[slot];
    s.id = 0;
    free_slots.push_back(static_cast<std::uint32_t>(slot));
    --inflight;
    const auto window = static_cast<std::size_t>(
        static_cast<double>(now - start) * 1e-9 / kWindowS);
    if (window < st.answered_per_window.size())
      st.answered_per_window[window] += 1;
    const Op& op = s.op;
    if (samples) {
      const double lat_us = static_cast<double>(now - s.due_ns) * 1e-3;
      const auto due_s =
          static_cast<float>(static_cast<double>(s.due_ns - start) * 1e-9);
      st.latency_us.push_back(lat_us);
      st.due_s.push_back(due_s);
      if (is_write(op.kind)) {
        st.write_latency_us.push_back(lat_us);
        st.write_due_s.push_back(due_s);
      }
    }
    if (static_cast<pcq::svc::Status>(wresp.status) != pcq::svc::Status::kOk) {
      ++st.failed;
      return;
    }
    bool ok = true;
    switch (static_cast<pcq::svc::QueryKind>(op.kind)) {
      case pcq::svc::QueryKind::kDegree:
        ok = op.check == 0 || wresp.degree == op.expect;
        break;
      case pcq::svc::QueryKind::kEdgeExists:
        ok = op.check == 0 || wresp.exists == op.expect;
        break;
      case pcq::svc::QueryKind::kNeighbors:
        ok = op.check == 0 || row_digest(wresp.neighbors) == op.expect;
        break;
      default:  // mutations: each edge is written once, so it must change
        ok = wresp.exists == op.expect;
        break;
    }
    if (!ok) ++st.failed;
  };

  for (;;) {
    std::int64_t now = now_ns();
    bool progressed = false;
    if (now >= window_end &&
        st.steal_per_window.size() < st.answered_per_window.size()) {
      const CpuTimes t = cpu_times();
      st.steal_per_window.push_back(steal_fraction(window_cpu, t));
      window_cpu = t;
      window_end += static_cast<std::int64_t>(kWindowS * 1e9);
    }
    // 1. Queue every request that is due: in a closed loop, one per free
    // caller, due now.
    if (closed) next_due = now;
    while (sending && next_due <= now) {
      if (next_due >= end) {
        sending = false;
        break;
      }
      if (inflight >= max_inflight) {
        st.capped = !closed;
        break;
      }
      const Op& op = ops.next();
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
      Slot& s = slots_[slot];
      s.id = id;
      s.due_ns = next_due;
      s.op = op;
      wreq.id = id;
      wreq.kind = op.kind;
      wreq.u = op.u;
      wreq.v = op.v;
      Conn& c = conns_[rr];
      rr = rr + 1 == conns_.size() ? 0 : rr + 1;
      pcq::net::encode_request(wreq, c.out);
      if (samples)
        st.lateness_us.push_back(static_cast<double>(now - next_due) * 1e-3);
      ++st.sent;
      ++inflight;
      if (!closed) next_due += poisson_gap_ns(rng, rate);
      progressed = true;
    }
    if (sending && now >= end) sending = false;

    // 2. Flush what is queued.
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                   MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out_off += static_cast<std::size_t>(n);
        progressed = true;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    // 3. Read and check replies.
    for (Conn& c : conns_) {
      for (;;) {
        if (c.in.size() - c.in_len < (64 << 10)) c.in.resize(c.in.size() * 2);
        const ssize_t n = ::recv(c.fd, c.in.data() + c.in_len,
                                 c.in.size() - c.in_len, MSG_DONTWAIT);
        if (n <= 0) break;
        c.in_len += static_cast<std::size_t>(n);
        progressed = true;
        const std::int64_t t = now_ns();
        std::size_t off = 0;
        for (;;) {
          std::size_t used = 0;
          const auto r = pcq::net::decode_response(
              c.in.data() + off, c.in_len - off, &wresp, &used);
          if (r == pcq::net::DecodeResult::kNeedMore) break;
          if (r == pcq::net::DecodeResult::kError)
            throw std::runtime_error("malformed response frame");
          handle_reply(t);
          off += used;
        }
        std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
        c.in_len -= off;
      }
    }

    now = now_ns();
    if (!sending && inflight == 0) break;
    if (!sending && now > end + kDrainTimeoutNs) {
      st.failed += inflight;
      break;
    }
    if (progressed) continue;
    // 4. Nothing to do: sleep until a reply arrives or the next request is
    // due, or spin when it is due very soon. A closed loop always spins: a
    // reply is due within one request's time, and a sleeping generator's
    // CPU would go idle (see IdleSpinners).
    if (closed) continue;
    std::int64_t wait_ns = 1'000'000;
    if (sending) wait_ns = std::min(wait_ns, next_due - now - kSpinNs / 2);
    if (wait_ns < kSpinNs / 2) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  }
  // Windows that closed while the phase drained, or never closed, share
  // the steal measured since the last reading.
  const double rest = steal_fraction(window_cpu, cpu_times());
  st.steal_per_window.resize(st.answered_per_window.size(), rest);
  return st;
}

}  // namespace pcqbench
