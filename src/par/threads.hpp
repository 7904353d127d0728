// Thread-count plumbing.
//
// The paper's experiments sweep p ∈ {1, 4, 8, 16, 64} "processors"; in this
// implementation a processor is a member of the calling thread's fork-join
// team (par/parallel_for.hpp). Every parallel entry point takes an explicit
// thread count so the benchmark harnesses can sweep p without global state.
#pragma once

namespace pcq::par {

/// CPUs in the affinity mask the process started with (maximum useful p);
/// std::thread::hardware_concurrency() where the mask is unavailable.
int hardware_threads();

/// Clamps a requested thread count to [1, limit]; requested <= 0 means
/// "use hardware concurrency". Oversubscription (p > cores) is allowed —
/// the paper's 64-thread runs oversubscribe a 32-core machine too.
int clamp_threads(int requested, int limit = 1024);

}  // namespace pcq::par
