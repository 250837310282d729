// Perf gate for the online serving subsystem (DESIGN.md §5f): trains a
// classifier + per-format regressors in-process, stands up a Service,
// and drives it two ways:
//
//   closed loop — 4 synchronous clients hammer the service while the
//   main thread hot-swaps the model registry mid-run; measures
//   throughput, p50/p95/p99 latency, and that versions stay monotonic.
//
//   open loop — requests submitted at a fixed offered rate regardless
//   of completions, the standard way to expose queueing latency that a
//   closed loop hides; admission-control rejections are counted, not
//   errors.
//
// The bench also asserts the serving contract: batched responses are
// byte-identical to one-shot library calls on the same matrix + model
// (same Format pick, bitwise-equal predicted times). Results land in
// BENCH_serving.json.
//
// --chaos switches to the robustness gate (DESIGN.md §5h): a scripted
// chaos scenario fires fault bursts at the feature and inference stages
// mid-run while hot swaps race injected mid-swap faults. Gates: zero
// invalid selections, failed-request rate ≤ 1% outside the injected
// windows, throughput back to ≥ 90% of steady state within 2 s of each
// burst, and every faulted swap rolled back with the version sequence
// still monotonic. Results land in BENCH_robustness.json.
//
// --drift appends the online-learning scenario (DESIGN.md §5k): a
// service with --learn on serves a Table-I-like regime, traffic then
// shifts to a DLMC-like regime (20-40x the nnz), and the gates assert
// the loop closed — drift tripped, the trainer retrained from replay,
// a validated candidate was published through the journaled swap path,
// and windowed selection accuracy recovered to ≥ 90% of pre-shift with
// zero invalid selections. The section lands inside BENCH_serving.json.
//
//   ./build/bench/serving_bench [--smoke] [--chaos] [--drift]
//                               [--out file.json]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/env.hpp"
#include "common/json_writer.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "features/features.hpp"
#include "learn/trainer.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/scorecard.hpp"
#include "serve/service.hpp"
#include "sparse/mmio.hpp"
#include "sparse/spmv.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

using namespace spmvml;

namespace {

struct BenchConfig {
  bool smoke = false;
  bool chaos = false;
  /// --drift: append the online-learning drift scenario (DESIGN.md §5k)
  /// — a mid-run workload shift the background trainer must detect and
  /// retrain through, gated on scorecard-accuracy recovery, at least one
  /// journal-consistent trainer-initiated swap, and zero invalid
  /// selections.
  bool drift = false;
  /// Hard perf gates on the open loop (0 = not enforced): fail the run
  /// when achieved throughput drops below --min-rps or cache-warm p99
  /// exceeds --max-p99-ms. CI's perf-smoke job sets both.
  double min_rps = 0.0;
  double max_p99_ms = 0.0;
  std::string out_path;    // default depends on mode
  /// Chrome trace of the open-loop + scorecard phases (non-chaos mode).
  /// The open loop runs with telemetry ON — tracing active and 1 in 100
  /// requests tagged with id'd spans — so the --min-rps/--max-p99-ms
  /// gates prove sampled tracing does not perturb serving.
  std::string trace_out = "BENCH_serving_trace.json";
  int trace_sample() const { return 100; }  // 1% of open-loop requests
  int scorecard_passes() const { return 2; }
  int corpus_size() const { return smoke ? 32 : 48; }
  int matrices() const { return smoke ? 4 : 8; }
  int clients() const { return 4; }
  int requests_per_client() const { return smoke ? 40 : 150; }
  int swaps() const { return smoke ? 4 : 8; }
  int open_requests() const { return smoke ? 200 : 800; }
  double open_rate_rps() const { return smoke ? 1000.0 : 400.0; }
  /// Open-loop admission target: shed instead of queueing unboundedly
  /// when the offered rate outruns the service (the honest 'rejected').
  double admission_target_ms() const { return 150.0; }
  // Drift-mode shape: traffic passes over each regime's matrix set.
  int drift_passes_pre() const { return 8; }    // pre-shift (baseline)
  int drift_passes_shift() const { return 10; } // post-shift (trainer reacts)
  int drift_passes_final() const { return 5; }  // recovery measurement
  index_t drift_post_rows() const { return smoke ? 1600 : 2400; }
  double drift_post_mu() const { return smoke ? 28.0 : 36.0; }
  // Chaos-mode shape: paced open-loop traffic with two scripted bursts.
  int chaos_requests() const { return smoke ? 300 : 1000; }
  double chaos_rate_rps() const { return smoke ? 150.0 : 250.0; }
  double burst1_start_s() const { return smoke ? 0.6 : 1.0; }
  double burst1_end_s() const { return smoke ? 0.9 : 1.5; }
  double burst2_start_s() const { return smoke ? 1.2 : 2.0; }
  double burst2_end_s() const { return smoke ? 1.5 : 2.5; }
};

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

// Nearest-rank percentile over a copy (the caller keeps its order).
Percentiles percentiles_ms(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double pct) {
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(pct / 100.0 * n);
    if (rank > 0) --rank;
    return v[std::min(rank, v.size() - 1)];
  };
  p.p50 = at(50.0);
  p.p95 = at(95.0);
  p.p99 = at(99.0);
  return p;
}

serve::Request make_request(const std::string& id, serve::RequestMode mode,
                            const std::string& matrix_path) {
  serve::Request req;
  req.id = id;
  req.mode = mode;
  req.matrix_path = matrix_path;
  return req;
}

void write_percentiles(JsonWriter& json, const Percentiles& p) {
  json.kv("p50_ms", p.p50);
  json.kv("p95_ms", p.p95);
  json.kv("p99_ms", p.p99);
}

// ---------------------------------------------------------------------------
// Chaos mode: scripted fault bursts against the hardened request path.

/// One completed request, stamped with its completion time relative to
/// the traffic start. Slots are preallocated; each callback writes its
/// own slot, so no lock is needed on the hot path.
struct ChaosEntry {
  serve::Response rsp;
  double t_s = 0.0;
  std::atomic<bool> done{false};
};

int run_chaos(const BenchConfig& cfg,
              const std::shared_ptr<FormatSelector>& selector_a,
              const std::shared_ptr<FormatSelector>& selector_b,
              const std::shared_ptr<PerfModel>& perf,
              const std::vector<std::string>& paths, double train_s) {
  const double w1s = cfg.burst1_start_s(), w1e = cfg.burst1_end_s();
  const double w2s = cfg.burst2_start_s(), w2e = cfg.burst2_end_s();
  // Breaker cooldown (100ms) plus slack: failures this soon after a
  // burst are still the injected fault's echo, not steady-state ones.
  const double kMarginS = 1.0;
  const double kRecoveryBudgetS = 2.0;
  const double kBucketS = 0.1;

  const std::string scenario_text =
      "seed 20180807\n"
      "rule site=cache_lookup kind=latency rate=0.05 latency_ms=0.2\n"
      "rule site=feature_extract kind=error rate=0.8 start_s=" +
      std::to_string(w1s) + " end_s=" + std::to_string(w1e) +
      "\n"
      "rule site=inference kind=corrupt rate=0.6 start_s=" +
      std::to_string(w2s) + " end_s=" + std::to_string(w2e) +
      "\n"
      "rule site=inference kind=latency rate=0.2 latency_ms=2 start_s=" +
      std::to_string(w2s) + " end_s=" + std::to_string(w2e) +
      "\n"
      "rule site=materialize kind=error rate=0.5 start_s=" +
      std::to_string(w2s) + " end_s=" + std::to_string(w2e) +
      "\n"
      "rule site=registry_swap kind=error rate=0.5\n";
  auto engine = std::make_shared<chaos::Engine>(
      chaos::Scenario::parse_string(scenario_text));
  chaos::set_global(engine);

  serve::ModelRegistry registry;
  registry.install(selector_a, perf);

  serve::ServiceConfig svc_cfg;
  svc_cfg.threads = 4;
  svc_cfg.max_batch = 16;
  svc_cfg.queue_capacity = 1024;
  svc_cfg.cache_capacity = 0;  // every request extracts: faults bite
  svc_cfg.admission_target_ms = cfg.admission_target_ms();

  const int n = cfg.chaos_requests();
  std::vector<ChaosEntry> entries(static_cast<std::size_t>(n));
  std::uint64_t swap_attempts = 0, swap_ok = 0, swap_rollbacks = 0;
  const std::uint64_t version_before_traffic = registry.version();

  std::printf("== chaos: %d requests at %.0f req/s, bursts [%.1f,%.1f) and "
              "[%.1f,%.1f) s ==\n",
              n, cfg.chaos_rate_rps(), w1s, w1e, w2s, w2e);
  {
    serve::Service service(svc_cfg, registry);
    constexpr serve::RequestMode kModes[] = {serve::RequestMode::kSelect,
                                             serve::RequestMode::kIndirect,
                                             serve::RequestMode::kPredict};
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / cfg.chaos_rate_rps()));
    engine->start();  // windows line up with the request timeline
    const auto start = std::chrono::steady_clock::now();
    std::atomic<bool> traffic_done{false};

    // Hot swaps race the injected registry_swap faults throughout.
    std::thread swapper([&] {
      int s = 0;
      while (!traffic_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ++swap_attempts;
        try {
          registry.install(s % 2 == 0 ? selector_b : selector_a, perf);
          ++swap_ok;
        } catch (const Error&) {
          ++swap_rollbacks;  // previous bundle stayed live
        }
        ++s;
      }
    });

    for (int k = 0; k < n; ++k) {
      std::this_thread::sleep_until(start + k * interval);
      serve::Request req = make_request(
          "x" + std::to_string(k), kModes[k % 3],
          paths[static_cast<std::size_t>(k) % paths.size()]);
      if (req.mode != serve::RequestMode::kPredict && k % 10 == 0)
        req.materialize = true;
      ChaosEntry* slot = &entries[static_cast<std::size_t>(k)];
      service.submit(std::move(req), [slot, start](const serve::Response& r) {
        slot->rsp = r;
        slot->t_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        slot->done.store(true, std::memory_order_release);
      });
    }
    service.shutdown();  // drains: every slot is filled after this
    traffic_done.store(true);
    swapper.join();
  }
  chaos::set_global(nullptr);

  // --- Analysis. ---
  const auto in_burst_or_echo = [&](double t) {
    return (t >= w1s && t < w1e + kMarginS) || (t >= w2s && t < w2e + kMarginS);
  };
  std::uint64_t served = 0, failed_total = 0, failed_outside = 0,
                outside_total = 0, rejected = 0, degraded = 0, invalid = 0;
  std::vector<double> ok_lat;
  double last_t = 0.0;
  for (const auto& e : entries) {
    if (!e.done.load(std::memory_order_acquire)) continue;  // never happens
    last_t = std::max(last_t, e.t_s);
    if (e.rsp.ok) {
      ++served;
      ok_lat.push_back(e.rsp.latency_ms);
      if (e.rsp.degraded) ++degraded;
      if (e.rsp.mode != serve::RequestMode::kPredict) {
        const int f = static_cast<int>(e.rsp.format);
        if (f < 0 || f >= kNumFormats) ++invalid;
      }
    } else if (e.rsp.error.rfind("rejected", 0) == 0) {
      ++rejected;
    } else {
      ++failed_total;
      if (!in_burst_or_echo(e.t_s)) ++failed_outside;
    }
    if (!in_burst_or_echo(e.t_s)) ++outside_total;
  }
  const double fail_rate_outside =
      outside_total > 0
          ? static_cast<double>(failed_outside) / static_cast<double>(outside_total)
          : 0.0;

  // Completion-rate buckets for the recovery gate.
  std::vector<double> buckets(
      static_cast<std::size_t>(last_t / kBucketS) + 1, 0.0);
  for (const auto& e : entries)
    buckets[static_cast<std::size_t>(e.t_s / kBucketS)] += 1.0;
  double steady = 0.0;
  {
    // Steady state: mean bucket rate after warm-up, before the first burst.
    int count = 0;
    for (std::size_t b = 2; (static_cast<double>(b) + 1.0) * kBucketS <= w1s;
         ++b) {
      steady += buckets[b];
      ++count;
    }
    steady = count > 0 ? steady / count : 0.0;
  }
  const auto recovery_s = [&](double burst_end) {
    for (std::size_t b = static_cast<std::size_t>(burst_end / kBucketS);
         b < buckets.size(); ++b)
      if (buckets[b] >= 0.9 * steady)
        return static_cast<double>(b) * kBucketS - burst_end;
    return 1e9;  // never recovered
  };
  const double rec1_s = std::max(0.0, recovery_s(w1e));
  const double rec2_s = std::max(0.0, recovery_s(w2e));

  // Swap-safety gate: every faulted swap rolled back (live version only
  // ever moved by successful installs) and the journal agrees.
  const auto history = registry.history();
  std::uint64_t installs_journaled = 0, rollbacks_journaled = 0;
  bool journal_monotonic = true;
  std::uint64_t prev_version = 0;
  for (const auto& ev : history) {
    if (ev.action == "install") {
      ++installs_journaled;
      if (ev.version <= prev_version) journal_monotonic = false;
      prev_version = ev.version;
    } else {
      ++rollbacks_journaled;
      if (ev.version != 0) journal_monotonic = false;
    }
  }
  const bool swaps_safe =
      journal_monotonic && rollbacks_journaled == swap_rollbacks &&
      registry.version() == version_before_traffic + swap_ok &&
      installs_journaled == version_before_traffic + swap_ok;

  const Percentiles lat_p = percentiles_ms(ok_lat);
  const bool gate_invalid = invalid == 0;
  const bool gate_fail_rate = fail_rate_outside <= 0.01;
  const bool gate_recovery =
      rec1_s <= kRecoveryBudgetS && rec2_s <= kRecoveryBudgetS;
  const bool pass = gate_invalid && gate_fail_rate && gate_recovery &&
                    swaps_safe && served > 0;

  std::printf("  served %llu (degraded %llu), failed %llu (outside windows "
              "%llu = %.2f%%), rejected %llu, invalid %llu\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(failed_total),
              static_cast<unsigned long long>(failed_outside),
              fail_rate_outside * 100.0,
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(invalid));
  std::printf("  steady %.0f req/s, recovery %.2f s / %.2f s after bursts\n",
              steady / kBucketS, rec1_s, rec2_s);
  std::printf("  swaps: %llu attempts, %llu installed, %llu rolled back, "
              "final version %llu, safe: %s\n",
              static_cast<unsigned long long>(swap_attempts),
              static_cast<unsigned long long>(swap_ok),
              static_cast<unsigned long long>(swap_rollbacks),
              static_cast<unsigned long long>(registry.version()),
              swaps_safe ? "yes" : "NO");

  std::ofstream out(cfg.out_path);
  JsonWriter json(out);
  json.begin_object();
  json.key("config");
  json.begin_object();
  json.kv("smoke", cfg.smoke);
  json.kv("requests", n);
  json.kv("offered_rps", cfg.chaos_rate_rps());
  json.kv("admission_target_ms", svc_cfg.admission_target_ms);
  json.kv("burst1_s", w1s);
  json.kv("burst2_s", w2s);
  json.kv("train_s", train_s);
  json.end_object();
  json.key("results");
  json.begin_object();
  json.kv("served", served);
  json.kv("degraded", degraded);
  json.kv("failed", failed_total);
  json.kv("failed_outside_windows", failed_outside);
  json.kv("fail_rate_outside_windows", fail_rate_outside);
  json.kv("rejected", rejected);
  json.kv("invalid_selections", invalid);
  json.kv("steady_rps", steady / kBucketS);
  json.kv("recovery_after_burst1_s", rec1_s);
  json.kv("recovery_after_burst2_s", rec2_s);
  write_percentiles(json, lat_p);
  json.end_object();
  json.key("swaps");
  json.begin_object();
  json.kv("attempts", swap_attempts);
  json.kv("installed", swap_ok);
  json.kv("rolled_back", swap_rollbacks);
  json.kv("final_version", registry.version());
  json.kv("journal_monotonic", journal_monotonic);
  json.kv("safe", swaps_safe);
  json.end_object();
  json.key("gates");
  json.begin_object();
  json.kv("zero_invalid_selections", gate_invalid);
  json.kv("fail_rate_outside_windows_le_1pct", gate_fail_rate);
  json.kv("recovery_within_2s", gate_recovery);
  json.kv("swaps_safe", swaps_safe);
  json.kv("pass", pass);
  json.end_object();
  json.end_object();
  out << '\n';
  std::printf("wrote %s\n", cfg.out_path.c_str());
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Drift mode (--drift): mid-run workload shift + the online learning loop.
//
// The live bundle is fitted on *measured* SpMV data from the pre-shift
// regime only (small Table-I-like structured matrices), so it is honest
// about that regime and wrong about the one traffic shifts to
// (DLMC-like: much larger, denser-row synthetics — a ~20-40x nnz jump a
// tree regressor prices at its last pre-shift leaf). The service runs
// with --learn semantics on; the gates assert the loop actually closed:
// drift tripped, the trainer retrained from replay, validation published
// the candidate through the journaled swap path, and the scorecard's
// windowed signals recovered.

/// Scored-entry aggregate over one slice of the scorecard stream
/// (probes excluded, like the serving gauges).
struct DriftAgg {
  std::uint64_t scored = 0, hits = 0;
  double rel_sum = 0.0;
  std::uint64_t rel_n = 0;
  void add(const serve::ScorecardEntry& e) {
    if (e.probe) return;
    ++scored;
    if (e.chosen == e.predicted_best) ++hits;
    if (e.predicted_gflops > 0.0 && e.measured_gflops > 0.0) {
      rel_sum += std::abs(e.predicted_gflops - e.measured_gflops) /
                 e.measured_gflops;
      ++rel_n;
    }
  }
  double accuracy() const {
    return scored > 0 ? static_cast<double>(hits) / static_cast<double>(scored)
                      : -1.0;
  }
  double rme() const { return rel_n > 0 ? rel_sum / static_cast<double>(rel_n)
                                        : -1.0; }
};

struct DriftPassStat {
  double accuracy = -1.0;
  double rme = -1.0;
  std::uint64_t swaps = 0;  // trainer swaps completed by end of this pass
};

/// Windowed RME level that separates a calibrated bundle from drifted
/// extrapolation. Shared by the DriftDetector threshold and the final
/// recovery gate: pre-shift noise floor sits around 1.5-3 (the live
/// bundle is fitted on warm best-of-3 timings while the service
/// measures single colder runs; sanitizer instrumentation widens this
/// further), post-shift extrapolation error is ~30-60.
constexpr double kDriftRmeThreshold = 5.0;

struct DriftResult {
  bool ran = false;
  double pre_accuracy = -1.0, pre_rme = -1.0;
  double final_accuracy = -1.0, final_rme = -1.0;
  int first_swap_pass = -1;  // post-shift pass index; -1 = never
  std::vector<DriftPassStat> timeline;
  learn::OnlineTrainer::Stats trainer;
  std::uint64_t invalid = 0, failed = 0;
  std::uint64_t journal_installs = 0, journal_other = 0;
  bool journal_monotonic = false;
  std::uint64_t final_version = 0;
  bool gate_recovered = false, gate_swap = false, gate_clean = false,
       gate_rme = false;
  bool pass = false;
};

/// One regime matrix with its measured per-format GFLOPS (best-of-3
/// timed SpMV per format) — the ground truth the live bundle trains on.
struct MeasuredMatrix {
  Csr<double> csr;
  FeatureVector features;
  std::array<double, kNumFormats> gflops{};
};

MeasuredMatrix measure_matrix(const GenSpec& spec) {
  MeasuredMatrix m{generate(spec), {}, {}};
  m.features = extract_features(m.csr);
  std::vector<double> x(static_cast<std::size_t>(m.csr.cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(m.csr.rows()), 0.0);
  const double flops = 2.0 * static_cast<double>(m.csr.nnz());
  for (const Format f : kAllFormats) {
    try {
      const auto built = AnyMatrix<double>::build(f, m.csr);
      double best_s = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer t;
        built.spmv(x, y);
        best_s = std::min(best_s, std::max(t.seconds(), 1e-9));
      }
      m.gflops[static_cast<std::size_t>(f)] = flops / best_s / 1e9;
    } catch (const Error&) {
      // Infeasible conversion: the format simply goes unmeasured.
    }
  }
  return m;
}

DriftResult run_drift_phase(const BenchConfig& cfg) {
  DriftResult res;
  res.ran = true;
  const std::uint64_t lseed = root_seed();
  const double holdout_fraction = 0.35;

  // Mirror of OnlineTrainer's deterministic holdout split, so the bench
  // can generate matrix sets that land a known number of samples on each
  // side — the validation comparison is then guaranteed to see holdout
  // samples from both regimes, whatever SPMVML_SEED is.
  const auto in_holdout = [&](const FeatureVector& f) {
    const std::uint64_t h =
        hash_combine(lseed, serve::features_fingerprint(f.values));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < holdout_fraction;
  };
  const auto build_regime = [&](int want_fit, int want_holdout,
                                auto&& make_spec) {
    std::vector<MeasuredMatrix> out;
    int fit = 0, holdout = 0;
    for (std::uint64_t s = 0;
         (fit < want_fit || holdout < want_holdout) && s < 64; ++s) {
      MeasuredMatrix m = measure_matrix(make_spec(s));
      const bool h = in_holdout(m.features);
      if (h ? holdout >= want_holdout : fit >= want_fit) continue;
      (h ? holdout : fit) += 1;
      out.push_back(std::move(m));
    }
    return out;
  };

  // Pre-shift regime: small structured matrices (Table-I-like scale).
  // 8 fit + 4 holdout fingerprints per regime: enough rows for the
  // trainer's per-format regressors to generalize within a regime, and
  // enough holdout samples that one noisy pick cannot dominate the
  // validation means.
  const auto pre = build_regime(8, 4, [](std::uint64_t s) {
    GenSpec spec;
    spec.family = s % 3 == 0   ? MatrixFamily::kBanded
                  : s % 3 == 1 ? MatrixFamily::kStencil
                               : MatrixFamily::kUniformRandom;
    spec.rows = spec.cols = 320 + 48 * static_cast<index_t>(s % 5);
    spec.row_mu = 6.0;
    spec.row_cv = 0.3;
    spec.band_frac = 0.05;
    spec.seed = 31000 + s;
    return spec;
  });
  // Post-shift regime: DLMC-like — much larger, denser rows, block or
  // uniform structure. The nnz jump is what a stale per-format tree
  // cannot price (it extrapolates its last pre-shift leaf).
  const auto post = build_regime(8, 4, [&](std::uint64_t s) {
    GenSpec spec;
    spec.family = s % 2 == 0 ? MatrixFamily::kUniformRandom
                             : MatrixFamily::kBlockRandom;
    spec.rows = spec.cols = cfg.drift_post_rows();
    spec.row_mu = cfg.drift_post_mu();
    spec.row_cv = 0.15;
    spec.block_size = 16;
    spec.seed = 67000 + s;
    return spec;
  });
  if (pre.size() < 12 || post.size() < 12) {
    std::printf("== drift: regime generation failed (%zu pre, %zu post) ==\n",
                pre.size(), post.size());
    return res;
  }

  // Live bundle fitted on measured pre-shift samples only: classifier on
  // argmax-measured-GFLOPS labels, per-format regressors on measured
  // log10-seconds — exactly the shape the trainer will later refit from
  // replay, so pre-shift RME starts near zero.
  auto selector = std::make_shared<FormatSelector>(
      ModelKind::kDecisionTree, FeatureSet::kSet12, kAllFormats, /*fast=*/true);
  std::shared_ptr<const PerfModel> live_perf;
  {
    ml::Matrix sx;
    std::vector<int> sy;
    std::vector<Format> perf_formats;
    std::vector<ml::Matrix> px(kNumFormats);
    std::vector<std::vector<double>> py(kNumFormats);
    for (const auto& m : pre) {
      int best = -1;
      for (int f = 0; f < kNumFormats; ++f)
        if (m.gflops[static_cast<std::size_t>(f)] > 0.0 &&
            (best < 0 || m.gflops[static_cast<std::size_t>(f)] >
                             m.gflops[static_cast<std::size_t>(best)]))
          best = f;
      if (best < 0) continue;
      sx.push_back(m.features.select(FeatureSet::kSet12));
      sy.push_back(best);  // candidates == kAllFormats in enum order
      const double nnz = m.features[kNnzTot];
      for (int f = 0; f < kNumFormats; ++f) {
        const double g = m.gflops[static_cast<std::size_t>(f)];
        if (g <= 0.0 || nnz <= 0.0) continue;
        px[static_cast<std::size_t>(f)].push_back(
            m.features.select(FeatureSet::kSet12));
        py[static_cast<std::size_t>(f)].push_back(
            seconds_to_regression_target(2.0 * nnz / (g * 1e9)));
      }
    }
    selector->fit(sx, sy);
    std::vector<ml::Matrix> fx;
    std::vector<std::vector<double>> fy;
    for (int f = 0; f < kNumFormats; ++f) {
      if (px[static_cast<std::size_t>(f)].empty()) continue;
      perf_formats.push_back(static_cast<Format>(f));
      fx.push_back(std::move(px[static_cast<std::size_t>(f)]));
      fy.push_back(std::move(py[static_cast<std::size_t>(f)]));
    }
    PerfModel perf(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                   perf_formats, /*fast=*/true);
    perf.fit_samples(fx, fy);
    live_perf = std::make_shared<const PerfModel>(std::move(perf));
  }

  serve::ModelRegistry registry;
  registry.install(selector, live_perf);

  // Matrix Market files the requests will name.
  std::vector<std::string> pre_paths, post_paths;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    pre_paths.push_back("drift_pre_" + std::to_string(i) + ".tmp.mtx");
    write_matrix_market(pre_paths.back(), pre[i].csr);
  }
  for (std::size_t i = 0; i < post.size(); ++i) {
    post_paths.push_back("drift_post_" + std::to_string(i) + ".tmp.mtx");
    write_matrix_market(post_paths.back(), post[i].csr);
  }

  serve::ServiceConfig dcfg;
  dcfg.threads = 2;
  dcfg.max_batch = 8;
  dcfg.cache_capacity = 64;
  dcfg.learn.enabled = true;
  dcfg.learn.replay_capacity = 256;
  dcfg.learn.poll_every_s = 0.01;
  // Drift-triggered retrains plus a periodic retry: a discarded
  // candidate (validation is honest — it can lose) gets another shot as
  // replay accumulates more of the new regime.
  dcfg.learn.retrain_every_s = 0.25;
  // Thinner than one full regime: no retrain can fire on pre data
  // alone, so the first candidate already sees the shift.
  dcfg.learn.min_samples = 16;
  dcfg.learn.min_labeled = 6;
  dcfg.learn.min_retrain_gap_s = 0.05;
  dcfg.learn.holdout_fraction = holdout_fraction;
  dcfg.learn.seed = lseed;
  dcfg.learn.drift.window = 12;
  // See kDriftRmeThreshold: above the pre-shift noise floor, far below
  // the post-shift extrapolation error — drift trips on the regime
  // change only.
  dcfg.learn.drift.rme_threshold = kDriftRmeThreshold;
  dcfg.learn.drift.accuracy_floor = 0.4;
  dcfg.learn.drift.trip_after = 2;
  dcfg.learn.drift.clear_after = 2;

  std::printf("== drift: %d pre passes x %zu matrices -> shift -> %d+%d post "
              "passes x %zu matrices, learn on ==\n",
              cfg.drift_passes_pre(), pre_paths.size(),
              cfg.drift_passes_shift(), cfg.drift_passes_final(),
              post_paths.size());
  {
    serve::Service service(dcfg, registry);
    std::uint64_t cursor = 0;
    const auto run_pass = [&](const std::vector<std::string>& paths, int pass,
                              DriftAgg& agg) {
      for (std::size_t m = 0; m < paths.size(); ++m) {
        serve::Request req = make_request(
            "d" + std::to_string(pass) + "-" + std::to_string(m),
            (pass + static_cast<int>(m)) % 2 == 0
                ? serve::RequestMode::kSelect
                : serve::RequestMode::kIndirect,
            paths[m]);
        req.materialize = true;
        const auto rsp = service.call(std::move(req));
        if (!rsp.ok) {
          ++res.failed;
        } else {
          const int f = static_cast<int>(rsp.format);
          if (f < 0 || f >= kNumFormats) ++res.invalid;
        }
      }
      // Drain what this pass appended (the drain_since cursor contract:
      // a steady poller pays only for new entries).
      const auto drained = service.scorecard().drain_since(cursor);
      cursor = drained.next_seq;
      for (const auto& e : drained.entries) agg.add(e);
    };

    DriftAgg pre_agg;
    for (int p = 0; p < cfg.drift_passes_pre(); ++p)
      run_pass(pre_paths, p, pre_agg);
    res.pre_accuracy = pre_agg.accuracy();
    res.pre_rme = pre_agg.rme();

    // Shift: same service, same live bundle, new regime. The trainer
    // sees it through the scorecard only. Passes are paced so retrains
    // interleave with data accumulation instead of all firing on the
    // thin first sightings of the new regime (the ingest cache makes
    // un-paced passes far faster than any real traffic).
    for (int p = 0; p < cfg.drift_passes_shift(); ++p) {
      DriftAgg agg;
      run_pass(post_paths, 1000 + p, agg);
      const auto ls = service.learner()->stats();
      if (res.first_swap_pass < 0 && ls.swaps > 0)
        res.first_swap_pass = p;
      res.timeline.push_back({agg.accuracy(), agg.rme(), ls.swaps});
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    // Settle: the trainer is asynchronous. Wait (bounded) for two
    // completed retrain attempts — the first may have been in flight
    // when the shift traffic ended; the second provably trained on the
    // full shift data. Validation then guarantees the live bundle
    // entering the recovery phase is the best candidate seen: a worse
    // one was discarded, a better one was published.
    const auto attempts = [&] {
      const auto ls = service.learner()->stats();
      return ls.swaps + ls.discards + ls.aborted;
    };
    const std::uint64_t settled_from = attempts();
    for (int spin = 0; spin < 250 && attempts() < settled_from + 2; ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));

    DriftAgg final_agg;
    for (int p = 0; p < cfg.drift_passes_final(); ++p) {
      DriftAgg agg;
      run_pass(post_paths, 2000 + p, agg);
      const auto ls = service.learner()->stats();
      if (res.first_swap_pass < 0 && ls.swaps > 0)
        res.first_swap_pass = cfg.drift_passes_shift() + p;
      res.timeline.push_back({agg.accuracy(), agg.rme(), ls.swaps});
      final_agg.scored += agg.scored;
      final_agg.hits += agg.hits;
      final_agg.rel_sum += agg.rel_sum;
      final_agg.rel_n += agg.rel_n;
    }
    res.final_accuracy = final_agg.accuracy();
    res.final_rme = final_agg.rme();
    res.trainer = service.learner()->stats();
    service.shutdown();
  }
  for (const auto& p : pre_paths) std::remove(p.c_str());
  for (const auto& p : post_paths) std::remove(p.c_str());

  // Journal consistency: installs strictly monotonic, every non-install
  // event carries version 0, and the live version equals the install
  // count (the seed install plus each trainer swap).
  const auto history = registry.history();
  res.journal_monotonic = true;
  std::uint64_t prev_version = 0;
  for (const auto& ev : history) {
    if (ev.action == "install") {
      ++res.journal_installs;
      if (ev.version != prev_version + 1) res.journal_monotonic = false;
      prev_version = ev.version;
    } else {
      ++res.journal_other;
      if (ev.version != 0) res.journal_monotonic = false;
    }
  }
  res.final_version = registry.version();

  res.gate_recovered = res.pre_accuracy > 0.0 && res.final_accuracy >= 0.0 &&
                       res.final_accuracy >= 0.9 * res.pre_accuracy;
  res.gate_swap = res.trainer.swaps >= 1 && res.journal_monotonic &&
                  res.journal_installs == 1 + res.trainer.swaps &&
                  res.final_version == res.journal_installs;
  res.gate_clean = res.invalid == 0 && res.failed == 0;
  // The calibration signal must actually recover: drifted windows price
  // requests orders of magnitude off; the retrained bundle must land
  // back under the drift threshold itself (uninstrumented runs come in
  // around 0.2-0.3; asan/tsan timing noise can reach ~3).
  res.gate_rme = res.final_rme >= 0.0 && res.final_rme < kDriftRmeThreshold;
  res.pass = res.gate_recovered && res.gate_swap && res.gate_clean &&
             res.gate_rme;

  std::printf("  pre accuracy %.2f rme %.3f -> final accuracy %.2f rme %.3f "
              "(first swap at post pass %d)\n",
              res.pre_accuracy, res.pre_rme, res.final_accuracy, res.final_rme,
              res.first_swap_pass);
  std::printf("  trainer: %llu retrains, %llu swaps, %llu discards, %llu "
              "aborted; drift trips %llu; journal installs %llu monotonic: "
              "%s; invalid %llu failed %llu\n",
              static_cast<unsigned long long>(res.trainer.retrains),
              static_cast<unsigned long long>(res.trainer.swaps),
              static_cast<unsigned long long>(res.trainer.discards),
              static_cast<unsigned long long>(res.trainer.aborted),
              static_cast<unsigned long long>(res.trainer.drift.trips),
              static_cast<unsigned long long>(res.journal_installs),
              res.journal_monotonic ? "yes" : "NO",
              static_cast<unsigned long long>(res.invalid),
              static_cast<unsigned long long>(res.failed));
  return res;
}

int main_impl(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--chaos") {
      cfg.chaos = true;
    } else if (arg == "--drift") {
      cfg.drift = true;
    } else if (arg == "--out" && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else if (arg == "--min-rps" && i + 1 < argc) {
      cfg.min_rps = std::atof(argv[++i]);
    } else if (arg == "--max-p99-ms" && i + 1 < argc) {
      cfg.max_p99_ms = std::atof(argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: serving_bench [--smoke] [--chaos] [--drift] "
                   "[--min-rps F] [--max-p99-ms F] [--out file] "
                   "[--trace-out file]\n");
      return 2;
    }
  }
  if (cfg.out_path.empty())
    cfg.out_path = cfg.chaos ? "BENCH_robustness.json" : "BENCH_serving.json";

  // --- Train two model bundles: one live, one to hot-swap in. ---
  std::printf("== train: %d-matrix corpus, MLP selector + tree regressors ==\n",
              cfg.corpus_size());
  WallTimer timer;
  const auto corpus =
      collect_corpus(make_small_plan(cfg.corpus_size(), 2018));
  auto selector_a = std::make_shared<FormatSelector>(
      ModelKind::kMlp, FeatureSet::kSet12, kAllFormats, /*fast=*/true);
  selector_a->fit(corpus, 0, Precision::kDouble);
  auto selector_b = std::make_shared<FormatSelector>(
      ModelKind::kDecisionTree, FeatureSet::kSet12, kAllFormats,
      /*fast=*/true);
  selector_b->fit(corpus, 0, Precision::kDouble);
  auto perf = std::make_shared<PerfModel>(RegressorKind::kDecisionTree,
                                          FeatureSet::kSet12, kAllFormats,
                                          /*fast=*/true);
  perf->fit(corpus, 0, Precision::kDouble);
  const double train_s = timer.seconds();
  std::printf("  trained both bundles in %.2f s\n", train_s);

  serve::ModelRegistry registry;
  registry.install(selector_a, perf);

  // --- Matrix Market inputs the clients will name in requests. ---
  const auto file_plan = make_small_plan(cfg.matrices(), 777);
  std::vector<std::string> paths;
  for (int i = 0; i < cfg.matrices(); ++i) {
    const std::string path =
        "serving_bench_m" + std::to_string(i) + ".tmp.mtx";
    write_matrix_market(path, generate(file_plan.specs[static_cast<std::size_t>(i)]));
    paths.push_back(path);
  }

  if (cfg.chaos) {
    const int rc = run_chaos(cfg, selector_a, selector_b, perf, paths, train_s);
    for (const auto& path : paths) std::remove(path.c_str());
    return rc;
  }

  serve::ServiceConfig svc_cfg;
  svc_cfg.threads = 4;
  svc_cfg.max_batch = 16;
  svc_cfg.queue_capacity = 1024;
  svc_cfg.cache_capacity = 64;
  // Fast-path ingest: sharded dispatch plus the materialized-matrix
  // cache (256 MB default) — the configuration the throughput gates
  // below are tuned for.
  svc_cfg.dispatch_shards = 4;

  constexpr serve::RequestMode kModes[] = {serve::RequestMode::kSelect,
                                           serve::RequestMode::kIndirect,
                                           serve::RequestMode::kPredict};

  // --- Contract check: batched serving == one-shot library calls. ---
  // The service reads the matrix back from the file, so the reference
  // computation does too — both sides see the identical Csr.
  bool identical = true;
  {
    serve::Service service(svc_cfg, registry);
    for (const auto& path : paths) {
      const auto matrix = read_matrix_market(path);
      const auto features = extract_features(matrix);
      const Format expect = selector_a->select(features);
      const auto sel =
          service.call(make_request("chk-sel", serve::RequestMode::kSelect,
                                    path));
      if (!sel.ok || sel.format != expect) identical = false;
      const auto prd =
          service.call(make_request("chk-prd", serve::RequestMode::kPredict,
                                    path));
      if (!prd.ok || prd.predicted_us.size() != perf->formats().size())
        identical = false;
      for (std::size_t k = 0; identical && k < prd.predicted_us.size(); ++k) {
        const auto [f, us] = prd.predicted_us[k];
        if (f != perf->formats()[k] ||
            us != perf->predict_seconds(features, f) * 1e6)
          identical = false;
      }
    }
  }
  std::printf("== contract: batched == one-shot: %s ==\n",
              identical ? "yes" : "NO");

  // --- Closed loop: 4 clients, hot swaps mid-run. ---
  std::printf("== closed loop: %d clients x %d requests, %d hot swaps ==\n",
              cfg.clients(), cfg.requests_per_client(), cfg.swaps());
  std::vector<double> closed_lat;
  std::uint64_t closed_failed = 0;
  std::uint64_t closed_cache_hits = 0;
  double closed_wall_s = 0.0;
  bool versions_monotonic = true;
  std::uint64_t swaps_done = 0;
  {
    serve::Service service(svc_cfg, registry);
    std::mutex agg_mu;
    std::atomic<bool> done{false};
    timer.reset();
    std::vector<std::thread> clients;
    for (int c = 0; c < cfg.clients(); ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> lat;
        std::uint64_t failed = 0, hits = 0, last_version = 0;
        bool monotonic = true;
        for (int k = 0; k < cfg.requests_per_client(); ++k) {
          const int pick = c * cfg.requests_per_client() + k;
          const auto rsp = service.call(make_request(
              "c" + std::to_string(c) + "-" + std::to_string(k),
              kModes[pick % 3],
              paths[static_cast<std::size_t>(pick) % paths.size()]));
          if (!rsp.ok) ++failed;
          if (rsp.cache_hit) ++hits;
          // A client never sees the model version move backwards.
          if (rsp.ok && rsp.model_version < last_version) monotonic = false;
          if (rsp.ok) last_version = rsp.model_version;
          lat.push_back(rsp.latency_ms);
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        closed_lat.insert(closed_lat.end(), lat.begin(), lat.end());
        closed_failed += failed;
        closed_cache_hits += hits;
        versions_monotonic = versions_monotonic && monotonic;
      });
    }
    std::thread swapper([&] {
      for (int s = 0; s < cfg.swaps() && !done.load(); ++s) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        registry.install(s % 2 == 0 ? selector_b : selector_a, perf);
        ++swaps_done;
      }
    });
    for (auto& t : clients) t.join();
    done.store(true);
    swapper.join();
    closed_wall_s = timer.seconds();
    service.shutdown();
  }
  const auto total_closed =
      static_cast<double>(cfg.clients() * cfg.requests_per_client());
  const double closed_rps = total_closed / closed_wall_s;
  const Percentiles closed_p = percentiles_ms(closed_lat);
  std::printf("  %.0f req in %.2f s = %.0f req/s  (p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms)\n",
              total_closed, closed_wall_s, closed_rps, closed_p.p50,
              closed_p.p95, closed_p.p99);
  std::printf("  failed %llu, cache hits %llu, swaps %llu, versions "
              "monotonic: %s\n",
              static_cast<unsigned long long>(closed_failed),
              static_cast<unsigned long long>(closed_cache_hits),
              static_cast<unsigned long long>(swaps_done),
              versions_monotonic ? "yes" : "NO");

  // --- Open loop: paced offered rate, count rejections separately. ---
  // Admission shedding is on here: with the offered rate outrunning the
  // service, unbounded queueing would report "rejected 0" while p50
  // climbs into seconds. Shedding makes the rejected count honest.
  // Telemetry ON for the rest of the run: Chrome tracing active with 1%
  // of requests carrying id'd per-request spans. The perf gates below
  // apply to this configuration, so passing them proves sampled
  // request-scoped telemetry does not perturb serving.
  if (!cfg.trace_out.empty()) obs::trace_start(cfg.trace_out);
  std::printf("== open loop: %d requests at %.0f req/s offered, admission "
              "target %.0f ms, trace sampling 1/%d ==\n",
              cfg.open_requests(), cfg.open_rate_rps(),
              cfg.admission_target_ms(), cfg.trace_sample());
  std::vector<double> open_lat;
  std::vector<double> shed_wait_ms;  // est. queue age of shed requests
  std::uint64_t open_rejected = 0, open_failed = 0;
  double open_wall_s = 0.0;
  serve::ServiceConfig open_cfg = svc_cfg;
  open_cfg.admission_target_ms = cfg.admission_target_ms();
  {
    serve::Service service(open_cfg, registry);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(static_cast<std::size_t>(cfg.open_requests()));
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / cfg.open_rate_rps()));
    timer.reset();
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < cfg.open_requests(); ++k) {
      std::this_thread::sleep_until(start + k * interval);
      serve::Request req = make_request(
          "o" + std::to_string(k), kModes[k % 3],
          paths[static_cast<std::size_t>(k) % paths.size()]);
      req.trace_sampled = (k % cfg.trace_sample()) == 0;
      futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures) {
      const auto rsp = f.get();
      if (rsp.ok) {
        open_lat.push_back(rsp.latency_ms);
      } else if (rsp.error.rfind("rejected", 0) == 0) {
        ++open_rejected;
        if (!rsp.shed.empty()) shed_wait_ms.push_back(rsp.est_wait_ms);
      } else {
        ++open_failed;
      }
    }
    open_wall_s = timer.seconds();
    service.shutdown();
  }
  const double open_rps =
      static_cast<double>(open_lat.size()) / open_wall_s;
  const Percentiles open_p = percentiles_ms(open_lat);
  const Percentiles shed_p = percentiles_ms(shed_wait_ms);
  std::printf("  served %zu (%.0f req/s), rejected %llu, failed %llu  "
              "(p50 %.2f ms, p95 %.2f ms, p99 %.2f ms)\n",
              open_lat.size(), open_rps,
              static_cast<unsigned long long>(open_rejected),
              static_cast<unsigned long long>(open_failed), open_p.p50,
              open_p.p95, open_p.p99);
  if (!shed_wait_ms.empty())
    std::printf("  shed %zu with est queue wait p50 %.1f ms, p95 %.1f ms, "
                "p99 %.1f ms\n",
                shed_wait_ms.size(), shed_p.p50, shed_p.p95, shed_p.p99);

  // --- Scorecard: materialize requests close the predict/measure loop. ---
  // Every materialized conversion runs one timed SpMV and records
  // predicted-vs-measured GFLOPS plus chosen-vs-best regret; the
  // service-side scorecard aggregates them into the accuracy numbers
  // reported below (and gated on: a run must produce records).
  const int scorecard_n = cfg.scorecard_passes() * cfg.matrices();
  std::printf("== scorecard: %d materialize requests over %d matrices ==\n",
              scorecard_n, cfg.matrices());
  serve::Scorecard::Summary score;
  std::uint64_t score_failed = 0;
  {
    serve::Service service(svc_cfg, registry);
    for (int rep = 0; rep < cfg.scorecard_passes(); ++rep) {
      for (std::size_t m = 0; m < paths.size(); ++m) {
        serve::Request req = make_request(
            "sc" + std::to_string(rep) + "-" + std::to_string(m),
            serve::RequestMode::kIndirect, paths[m]);
        req.materialize = true;
        req.trace_sampled = true;  // few requests: trace them all
        const auto rsp = service.call(std::move(req));
        if (!rsp.ok) ++score_failed;
      }
    }
    score = service.scorecard().summary();
    service.shutdown();
  }
  if (!cfg.trace_out.empty()) obs::trace_stop();
  std::printf("  records %llu, selection accuracy %.2f, mean regret %.3f, "
              "predicted-vs-measured RME %.2f, failed %llu\n",
              static_cast<unsigned long long>(score.total), score.accuracy,
              score.mean_regret, score.rme,
              static_cast<unsigned long long>(score_failed));

  for (const auto& path : paths) std::remove(path.c_str());

  // --- Drift scenario (--drift): the online learning loop end to end. ---
  DriftResult drift;
  if (cfg.drift) drift = run_drift_phase(cfg);

  std::ofstream out(cfg.out_path);
  JsonWriter json(out);
  json.begin_object();
  json.key("config");
  json.begin_object();
  json.kv("smoke", cfg.smoke);
  json.kv("threads", svc_cfg.threads);
  json.kv("max_batch", static_cast<std::uint64_t>(svc_cfg.max_batch));
  json.kv("queue_capacity",
          static_cast<std::uint64_t>(svc_cfg.queue_capacity));
  json.kv("matrices", cfg.matrices());
  json.kv("train_s", train_s);
  json.end_object();
  json.kv("batched_matches_one_shot", identical);
  json.key("closed_loop");
  json.begin_object();
  json.kv("clients", cfg.clients());
  json.kv("requests", static_cast<std::uint64_t>(total_closed));
  json.kv("wall_s", closed_wall_s);
  json.kv("throughput_rps", closed_rps);
  write_percentiles(json, closed_p);
  json.kv("failed", closed_failed);
  json.kv("cache_hits", closed_cache_hits);
  json.kv("hot_swaps", swaps_done);
  json.kv("versions_monotonic", versions_monotonic);
  json.end_object();
  json.key("open_loop");
  json.begin_object();
  json.kv("offered_rps", cfg.open_rate_rps());
  json.kv("admission_target_ms", open_cfg.admission_target_ms);
  json.kv("requests", cfg.open_requests());
  json.kv("served", static_cast<std::uint64_t>(open_lat.size()));
  json.kv("rejected", open_rejected);
  json.kv("failed", open_failed);
  json.kv("wall_s", open_wall_s);
  json.kv("achieved_rps", open_rps);
  write_percentiles(json, open_p);
  // Queue age the shed requests were turned away at: how far over
  // budget the queue was when admission said no.
  json.key("shed");
  json.begin_object();
  json.kv("count", static_cast<std::uint64_t>(shed_wait_ms.size()));
  write_percentiles(json, shed_p);
  json.end_object();
  json.end_object();
  json.key("scorecard");
  json.begin_object();
  json.kv("records", score.total);
  json.kv("window", static_cast<std::uint64_t>(score.window));
  json.kv("selection_accuracy", score.accuracy);
  json.kv("mean_regret", score.mean_regret);
  json.kv("predicted_vs_measured_rme", score.rme);
  json.kv("failed", score_failed);
  json.end_object();
  json.kv("trace_sample", cfg.trace_sample());
  if (cfg.drift) {
    json.key("drift");
    json.begin_object();
    json.key("config");
    json.begin_object();
    json.kv("passes_pre", cfg.drift_passes_pre());
    json.kv("passes_shift", cfg.drift_passes_shift());
    json.kv("passes_final", cfg.drift_passes_final());
    json.kv("post_rows", static_cast<std::uint64_t>(cfg.drift_post_rows()));
    json.kv("post_row_mu", cfg.drift_post_mu());
    json.end_object();
    json.key("pre");
    json.begin_object();
    json.kv("selection_accuracy", drift.pre_accuracy);
    json.kv("predicted_vs_measured_rme", drift.pre_rme);
    json.end_object();
    json.key("post_timeline");
    json.begin_array();
    for (const auto& t : drift.timeline) {
      json.begin_object();
      json.kv("selection_accuracy", t.accuracy);
      json.kv("predicted_vs_measured_rme", t.rme);
      json.kv("trainer_swaps", t.swaps);
      json.end_object();
    }
    json.end_array();
    json.key("final");
    json.begin_object();
    json.kv("selection_accuracy", drift.final_accuracy);
    json.kv("predicted_vs_measured_rme", drift.final_rme);
    json.end_object();
    json.kv("first_swap_pass", drift.first_swap_pass);
    json.key("trainer");
    json.begin_object();
    json.kv("retrains", drift.trainer.retrains);
    json.kv("swaps", drift.trainer.swaps);
    json.kv("discards", drift.trainer.discards);
    json.kv("aborted", drift.trainer.aborted);
    json.kv("drift_trips", drift.trainer.drift.trips);
    json.kv("last_published_version", drift.trainer.last_published_version);
    json.kv("last_candidate_regret", drift.trainer.last_candidate_regret);
    json.kv("last_live_regret", drift.trainer.last_live_regret);
    json.kv("last_candidate_rme", drift.trainer.last_candidate_rme);
    json.kv("last_live_rme", drift.trainer.last_live_rme);
    json.end_object();
    json.key("journal");
    json.begin_object();
    json.kv("installs", drift.journal_installs);
    json.kv("other", drift.journal_other);
    json.kv("monotonic", drift.journal_monotonic);
    json.kv("final_version", drift.final_version);
    json.end_object();
    json.kv("invalid_selections", drift.invalid);
    json.kv("failed", drift.failed);
    json.key("gates");
    json.begin_object();
    json.kv("accuracy_recovered", drift.gate_recovered);
    json.kv("trainer_swap_journaled", drift.gate_swap);
    json.kv("zero_invalid_and_failed", drift.gate_clean);
    json.kv("final_rme_bounded", drift.gate_rme);
    json.kv("pass", drift.pass);
    json.end_object();
    json.end_object();
  }
  const bool gate_rps = cfg.min_rps <= 0.0 || open_rps >= cfg.min_rps;
  const bool gate_p99 =
      cfg.max_p99_ms <= 0.0 || open_p.p99 <= cfg.max_p99_ms;
  const bool gate_scorecard = score.total > 0 && score_failed == 0;
  const bool gate_drift = !cfg.drift || drift.pass;
  const bool pass = identical && versions_monotonic && closed_failed == 0 &&
                    open_failed == 0 && gate_rps && gate_p99 &&
                    gate_scorecard && gate_drift;
  json.key("gates");
  json.begin_object();
  json.kv("min_rps", cfg.min_rps);
  json.kv("max_p99_ms", cfg.max_p99_ms);
  json.kv("achieved_rps_ok", gate_rps);
  json.kv("p99_ok", gate_p99);
  json.kv("scorecard_records_ok", gate_scorecard);
  json.kv("drift_ok", gate_drift);
  json.kv("pass", pass);
  json.end_object();
  json.end_object();
  out << '\n';
  std::printf("wrote %s\n", cfg.out_path.c_str());
  if (!gate_rps)
    std::printf("GATE FAIL: achieved %.0f req/s < --min-rps %.0f\n", open_rps,
                cfg.min_rps);
  if (!gate_p99)
    std::printf("GATE FAIL: open-loop p99 %.2f ms > --max-p99-ms %.2f\n",
                open_p.p99, cfg.max_p99_ms);
  if (!gate_scorecard)
    std::printf("GATE FAIL: scorecard records %llu (failed %llu) — "
                "materialize requests produced no accuracy data\n",
                static_cast<unsigned long long>(score.total),
                static_cast<unsigned long long>(score_failed));
  if (!gate_drift)
    std::printf("GATE FAIL: drift scenario (recovered %d swap %d clean %d "
                "rme %d)\n",
                static_cast<int>(drift.gate_recovered),
                static_cast<int>(drift.gate_swap),
                static_cast<int>(drift.gate_clean),
                static_cast<int>(drift.gate_rme));
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
