#ifndef SOFIA_OBS_OBS_H_
#define SOFIA_OBS_OBS_H_

/// \file obs.hpp
/// \brief Umbrella header for the observability subsystem: metrics
/// registry (counters / histograms), tracing spans (Chrome
/// trace-event JSON), and the periodic stats emitter. Instrumented code
/// includes this one header; everything compiles to no-ops under
/// -DSOFIA_OBS_DISABLED.

#include "obs/metrics.hpp"   // IWYU pragma: export
#include "obs/stats.hpp"     // IWYU pragma: export
#include "obs/trace.hpp"     // IWYU pragma: export

#endif  // SOFIA_OBS_OBS_H_
