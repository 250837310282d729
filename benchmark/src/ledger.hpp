// Per-layer time ledger from a trace: every `bench.*` complete event is a
// call into one layer, and a layer's self time is its span's duration
// minus the part of that interval its child spans cover. Children are
// spans of the same track whose interval lies inside the parent's; a
// track is one thread, or one request id on that thread (the spans of
// concurrent requests overlap, but each request's own spans nest).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/obs/trace.hpp"

namespace spmvml::bench {

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;  // summed span durations
  double self_ms = 0.0;   // summed durations minus child coverage
};

/// Aggregate the complete events whose name starts with `prefix`, by
/// name, sorted by descending self time.
std::vector<LayerRow> layer_table(const std::vector<obs::TraceEvent>& events,
                                  std::string_view prefix = "bench.");

/// Self time of `name` in `rows` (0 when absent).
double self_ms(const std::vector<LayerRow>& rows, std::string_view name);
/// Total time of `name` in `rows` (0 when absent).
double total_ms(const std::vector<LayerRow>& rows, std::string_view name);

}  // namespace spmvml::bench
