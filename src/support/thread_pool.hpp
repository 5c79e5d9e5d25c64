// Every solver runs serially on its calling thread; BatchRunner's workers
// are the only threads that run solves concurrently. This header keeps one
// entry point alive for perfbench, which still calls it; it goes away with
// that call.
#pragma once

#include <cstddef>

namespace rpt {

/// No-op: there is no intra-solver pool to size, because the solver is
/// serial.
inline void SetSolverThreads(std::size_t /*threads*/) noexcept {}

}  // namespace rpt
