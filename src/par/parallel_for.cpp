#include "par/parallel_for.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace pcq::par::detail {
namespace {

/// True while this thread runs a chunk body; team members are always in one.
thread_local bool t_in_chunk = false;

// The fork-join team of one calling thread. Member c (c >= 1) runs chunk c
// of every fork that has more than c chunks and sleeps on its own `go` word
// in between; members are added on demand and live until the owning thread
// exits (the thread_local below), like libgomp's team per initial thread.
//
// Synchronisation: the caller writes body_/ctx_/pending_, then release-bumps
// the `go` of each member it needs; a member acquires its `go`, runs, and
// acq_rel-decrements pending_; the caller returns once it acquires 0. The
// next fork's writes therefore happen after every read of the last one, and
// members a fork does not need never look at the job.
class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() {
    body_ = nullptr;  // read by each member as "exit"
    for (auto& m : members_) wake(*m);
    for (auto& m : members_) m->thread.join();
  }

  void fork_join(std::size_t chunks, ChunkBody body, void* ctx) {
    if (members_.size() < chunks - 1) grow(chunks - 1);
    body_ = body;
    ctx_ = ctx;
    pending_.store(static_cast<std::uint32_t>(chunks - 1),
                   std::memory_order_relaxed);
    for (std::size_t c = 1; c < chunks; ++c) wake(*members_[c - 1]);
    t_in_chunk = true;
    body(ctx, 0);
    t_in_chunk = false;
    for (std::uint32_t left;
         (left = pending_.load(std::memory_order_acquire)) != 0;)
      pending_.wait(left, std::memory_order_acquire);
  }

 private:
  struct alignas(64) Member {
    std::atomic<std::uint32_t> go{0};
    std::thread thread;
  };

  static void wake(Member& m) {
    m.go.fetch_add(1, std::memory_order_release);
    m.go.notify_one();
  }

  // A failed thread start throws before the member is listed, and the
  // reserve keeps push_back from throwing once its thread runs.
  void grow(std::size_t size) {
    members_.reserve(size);
    while (members_.size() < size) {
      auto m = std::make_unique<Member>();
      m->thread = std::thread([this, &member = *m, c = members_.size() + 1] {
        member_loop(member, c);
      });
      members_.push_back(std::move(m));
    }
  }

  void member_loop(Member& m, std::size_t c) {
    t_in_chunk = true;
    for (std::uint32_t seen = 0;; ++seen) {
      m.go.wait(seen, std::memory_order_acquire);
      if (body_ == nullptr) return;
      body_(ctx_, c);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        pending_.notify_one();
    }
  }

  ChunkBody body_ = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::uint32_t> pending_{0};
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace

void fork_join(std::size_t chunks, ChunkBody body, void* ctx) {
  if (t_in_chunk) {  // nested: no inner team, chunks run in order here
    for (std::size_t c = 0; c < chunks; ++c) body(ctx, c);
    return;
  }
  thread_local Team team;
  team.fork_join(chunks, body, ctx);
}

}  // namespace pcq::par::detail
