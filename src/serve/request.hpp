// Request/response schema of the online serving subsystem.
//
// The service speaks JSONL: one flat JSON object per line in, one per
// line out. A request either names a Matrix Market file (the service
// extracts — and caches — the Table II features) or carries the 17 raw
// feature values inline (no file I/O, no cache, no feasibility check,
// since memory feasibility needs the structural digest of the matrix).
//
//   {"id":"r1","mode":"select","matrix":"web.mtx","mem_budget_gb":4}
//   {"id":"r2","mode":"indirect","matrix":"web.mtx","deadline_ms":5}
//   {"id":"r3","mode":"predict","features":[1000,1000,5000,...]}
//   {"cmd":"swap","model":"sel_v2.model","perf_model":"perf_v2.model"}
//
// Modes map to the paper's two selection routes: "select" is the direct
// classifier (§V), "indirect" picks the argmin of the per-format
// regressors (§VI-C) and degrades to the direct classifier under
// deadline pressure, "predict" returns the per-format predicted times.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sparse/format.hpp"

namespace spmvml::serve {

enum class RequestMode : int { kSelect = 0, kIndirect = 1, kPredict = 2 };

const char* request_mode_name(RequestMode m);

struct Request {
  /// Stable request id: the client's `id` when supplied, otherwise a
  /// generated `srv-<seq>` assigned at parse. Echoed on the response and
  /// tagged on every trace event the request produces, so one id follows
  /// the request through admission, shard queues, batch stages and
  /// materialization.
  std::string id;
  /// True when the per-request trace sampler (`--trace-sample=N`)
  /// picked this request: the service emits
  /// id-tagged spans for it. False = only batch-level spans.
  bool trace_sampled = false;
  RequestMode mode = RequestMode::kSelect;
  /// Matrix Market path; empty when `features` is supplied inline.
  std::string matrix_path;
  /// Optional pre-extracted features (exactly kNumFeatures values).
  std::vector<double> features;
  /// Soft deadline from enqueue to completion; 0 = none. Indirect
  /// requests that cannot meet it degrade to the direct classifier.
  double deadline_ms = 0.0;
  /// Per-request memory budget; 0 = use the service default.
  double mem_budget_gb = 0.0;
  /// Build the chosen format in the worker's conversion arena and report
  /// convert_ms/format_bytes in the response. Needs 'matrix' (the CSR
  /// master copy); meaningless for mode=predict, which picks no format.
  bool materialize = false;
};

/// Control-plane lines share the JSONL stream ("cmd" instead of "mode").
///
///   {"cmd":"swap","model":"sel_v2.model","perf_model":"perf_v2.model"}
///   {"cmd":"stats","id":"s1"}
///   {"cmd":"learn","id":"l1"}
///
/// "stats" returns one JSON line with the server's counters, scorecard
/// summary, ingest stats and a full metrics snapshot — the live stats
/// plane, no restart or --report needed. "learn" returns the online
/// learning loop's state (replay buffer, drift detector, trainer
/// outcomes; DESIGN.md §5k).
struct AdminCommand {
  std::string id;
  std::string cmd;  // "swap", "stats", or "learn"
  std::string model_path;
  std::string perf_model_path;
};

/// Per-request trace sampling rate: every Nth parsed request is marked
/// trace_sampled (1 = every request, 0 = none, the default); `serve
/// --trace-sample=N` sets it.
int trace_sample();
void set_trace_sample(int n);

struct ParsedLine {
  bool is_admin = false;
  Request request;
  AdminCommand admin;
};

/// Parse one JSONL line into a request or admin command. Throws
/// Error(kParse) on malformed JSON, unknown mode, or a features array
/// whose length is not kNumFeatures.
ParsedLine parse_request_line(const std::string& line);

struct Response {
  std::string id;
  bool ok = false;
  std::string error;  // error-category-tagged message when !ok
  RequestMode mode = RequestMode::kSelect;
  Format format = Format::kCsr;     // served choice
  Format predicted = Format::kCsr;  // model pick before feasibility
  bool fallback = false;            // feasibility forced a different format
  bool degraded = false;            // served below the requested route
  /// Why the degradation ladder fired ("deadline", "breaker:features",
  /// "chaos:inference", ...). Empty when !degraded.
  std::string degrade_reason;
  /// Admission-shed reason code ("shed:overload", "shed:deadline",
  /// "shed:queue_full"); empty unless the request was shed before
  /// entering the queue.
  std::string shed;
  /// Estimated queue wait at admission time (backlog x per-item cost
  /// EWMA / workers). Reported on shed responses so callers see how far
  /// over budget the queue was when their request was turned away.
  double est_wait_ms = 0.0;
  /// Transient-fault retries spent serving this request (all stages).
  int retries = 0;
  bool cache_hit = false;
  std::uint64_t model_version = 0;
  /// Per-format predicted SpMV times in microseconds (predict/indirect).
  std::vector<std::pair<Format, double>> predicted_us;
  double queue_ms = 0.0;    // enqueue -> batch pickup
  double latency_ms = 0.0;  // enqueue -> response
  std::uint64_t batch = 0;  // size of the micro-batch this rode in
  /// End-to-end server time (parse -> response emitted), stamped at the
  /// transport boundary by the serve loop; 0 when served outside it.
  double server_ms = 0.0;
  /// Per-stage batch processing breakdown, reported as "stage_ms":{...}
  /// on ok responses. The values are per-batch (every request in a
  /// micro-batch shares them) — the granularity at which the stages run.
  bool has_stage_ms = false;
  double stage_features_ms = 0.0;
  double stage_classify_ms = 0.0;
  double stage_regress_ms = 0.0;
  double stage_finalize_ms = 0.0;
  /// Set when the request asked to materialize the chosen format.
  bool materialized = false;
  double convert_ms = 0.0;        // arena conversion time
  std::int64_t format_bytes = 0;  // device-footprint of the built format
  double spmv_ms = 0.0;           // timed SpMV on the built format
  double measured_gflops = 0.0;   // 2*nnz / measured SpMV time
  double predicted_gflops = 0.0;  // perf-model estimate; 0 = no perf model
};

/// Compact single-line JSON rendering (no trailing newline).
std::string to_json(const Response& r);

}  // namespace spmvml::serve
