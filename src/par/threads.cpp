#include "par/threads.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <thread>

namespace pcq::par {

int hardware_threads() {
  static const int count = [] {
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return count;
}

namespace {
// The mask is read during static initialisation, on the main thread before
// any thread can pin itself, so a thread pinned later (a server pinning its
// workers) does not shrink the default p for the whole process.
[[maybe_unused]] const int kReadAtLoad = hardware_threads();
}  // namespace

int clamp_threads(int requested, int limit) {
  if (requested <= 0) requested = hardware_threads();
  if (requested < 1) requested = 1;
  if (requested > limit) requested = limit;
  return requested;
}

}  // namespace pcq::par
