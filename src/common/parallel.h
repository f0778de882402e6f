#pragma once

#include <cstddef>
#include <functional>

namespace boson {

/// Number of worker threads used by `parallel_for`: min(hardware threads,
/// BOSON_THREADS when set). Always at least 1. BOSON_THREADS is re-read on
/// every call, so drivers and tests can vary it at runtime.
std::size_t worker_count();

/// Run `body(i)` for i in [0, n). Iterations must be independent; the call
/// blocks until all complete. Exceptions thrown by `body` are captured and
/// the first one captured is rethrown on the calling thread; once a failure
/// is recorded, iterations that have not started yet are skipped.
///
/// Indices are handed out dynamically through a shared atomic counter, so
/// workloads with uneven per-index cost keep every worker busy. This targets
/// a moderate number of coarse-grained tasks (variation-corner simulations,
/// Monte-Carlo samples), not fine-grained loops.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace boson
