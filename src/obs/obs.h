// cosmo::obs — the observability layer: span tracing + counters.
//
// Include this one header to instrument code. Two surfaces:
//   * RAII spans (trace.h): COSMO_TRACE_SPAN("io.read") scopes a timed,
//     rank-tagged span; exportable as Chrome trace JSON + summary table.
//   * Counters (metrics.h): COSMO_COUNT("comm.bytes_sent", n) adds to a
//     named counter, sharded per rank and aggregatable across ranks with
//     communicator reductions (obs/aggregate.h — include separately, it
//     depends on comm).
//
// Tracer::set_enabled(false) is the runtime switch: spans stop recording,
// counters keep counting.
#pragma once

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#define COSMO_OBS_CONCAT_IMPL(a, b) a##b
#define COSMO_OBS_CONCAT(a, b) COSMO_OBS_CONCAT_IMPL(a, b)

/// Scoped span for the rest of the enclosing block.
#define COSMO_TRACE_SPAN(name)                                        \
  ::cosmo::obs::ScopedSpan COSMO_OBS_CONCAT(cosmo_obs_span_,          \
                                            __COUNTER__) { (name) }

/// Scoped span with an explicit category (shown as `cat` in Chrome traces).
#define COSMO_TRACE_SPAN_CAT(name, cat)                               \
  ::cosmo::obs::ScopedSpan COSMO_OBS_CONCAT(cosmo_obs_span_,          \
                                            __COUNTER__) { (name), (cat) }

/// Adds `n` to the named counter. `name` must be a stable string literal:
/// the registry lookup happens once (function-local static), the steady
/// state is one relaxed atomic add.
#define COSMO_COUNT(name, n)                                          \
  do {                                                                \
    static ::cosmo::obs::Counter& cosmo_obs_counter_ =                \
        ::cosmo::obs::MetricsRegistry::instance().counter(name);      \
    cosmo_obs_counter_.add(static_cast<std::uint64_t>(n));            \
  } while (0)
