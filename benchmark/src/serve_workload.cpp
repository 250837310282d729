// serve-hot and serve-cold: `spmvml serve --threads 2 --shards 1` driven
// open-loop over its stdin/stdout pipe.
//
//   serve-hot   8 matrices, caches pre-warmed, 1000 req/s: isolates
//               dispatch, batching, JSONL transport and model inference.
//   serve-cold  96 matrices (half with binary sidecars), every one once per
//               round in a seeded order, under --ingest-cache-mb 32
//               --cache-cap 32, one select/indirect request in four
//               materializing, 50 req/s: the same layers through misses,
//               evictions, text parses and arena conversions.
//
// Requests cycle select / indirect / predict. An untraced run measures a
// fixed-rate phase: p50 and tail latency from each request's due time,
// and the server's peak resident set. A traced run splits that phase into
// an untraced and a traced half (their gap is the tracing overhead; the
// untraced half also gives requests served per second of server CPU
// time) and then climbs a rate ladder (the highest rate whose steps keep
// p95 within the SLO with nothing failed or shed and the generator on
// schedule). The ladder is a per-layer figure: on a 4-CPU box shared
// with the load generator the server settles into one of two batching
// regimes whose capacities differ by 1.5-2x, so neither the ladder's edge
// nor a closed loop's throughput repeats from run to run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "ladder.hpp"
#include "loadgen.hpp"
#include "probes.hpp"
#include "sparse/csr_binary.hpp"
#include "sparse/mmio.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace spmvml::bench {

namespace {

struct ServeShape {
  bool hot;
  double slo_ms;               // p95 limit of a ladder step
  double ladder_start;         // ladder's first rate, as a multiple of the fixed rate
  std::size_t step_min_requests;
  std::size_t tail_window;     // requests per tail window (10 beyond its tail)
};

// In a traced run: the share of the run for the untraced and traced
// halves of the fixed-rate phase, and for the rate ladder after them.
constexpr double kFixedShare = 0.7;
constexpr double kLadderShare = 0.6;
// A ladder usually settles in about this many steps (climb by 1.5x, then
// bisect to 5%); its share of the run is split between them.
constexpr int kExpectedLadderSteps = 7;

struct Inputs {
  std::vector<Csr<double>> matrices;
  std::vector<std::string> paths;
  double generate_s = 0.0;
  double generated_nnz = 0.0;
};

/// "<prefix><n>" — request ids and id prefixes.
std::string tag(const char* prefix, std::size_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// (i * k) mod n: a fixed permutation of 0..n-1 for k prime to n.
double scrambled(int i, int n, int k) {
  return n > 1 ? ((i * k) % n) / static_cast<double>(n - 1) : 1.0;
}

Inputs make_inputs(const Options& o, const Sizing& sz, bool hot) {
  Inputs in;
  const int n = hot ? sz.hot_matrices : sz.cold_matrices;
  const double lo = hot ? sz.hot_rows_min : sz.cold_rows_min;
  const double hi = hot ? sz.hot_rows_max : sz.cold_rows_max;
  const double mu_lo = hot ? 6.0 : 4.0;
  const double mu_hi = hot ? 16.0 : 12.0;
  for (int i = 0; i < n; ++i) {
    // Matrix i's row count (log-spaced over [lo, hi]) and nonzeros per row
    // come from two different fixed scrambles of i, so size and density
    // are independent of each other and the same for every seed.
    const auto rows =
        static_cast<index_t>(lo * std::pow(hi / lo, scrambled(i, n, 61)));
    const double mu = mu_lo + (mu_hi - mu_lo) * scrambled(i, n, 43);
    const double t0 = now_s();
    Csr<double> m = make_matrix(static_cast<MatrixFamily>(i % kNumFamilies),
                                rows, mu, hash_combine(o.seed, i + 1));
    in.generate_s += now_s() - t0;
    in.generated_nnz += static_cast<double>(m.nnz());
    const std::string path =
        o.work_dir + "/m" + std::to_string(i) + ".mtx";
    write_matrix_market(path, m);
    if (!hot && i % 2 == 0) write_csr_binary(csr_sidecar_path(path), m);
    in.matrices.push_back(std::move(m));
    in.paths.push_back(path);
  }
  return in;
}

std::string request_line(const std::string& id, const std::string& path,
                         const RequestInfo& r) {
  std::string s = "{\"id\":\"" + id + "\",\"mode\":\"" + mode_name(r.mode) +
                  "\",\"matrix\":\"" + JsonWriter::escape(path) + "\"";
  if (r.materialize) s += ",\"materialize\":true";
  return s + "}";
}

/// The request stream: every matrix once per round, in a seeded order, so
/// every stretch of requests holds the same mix, and the cache misses of
/// serve-cold do not depend on which matrices the seed's content hashes
/// put in one cache shard (under Zipf popularity they did, and its hit
/// ratio and tail swung from seed to seed). Modes follow a fixed cycle,
/// and in serve-cold every fourth select/indirect request materializes.
class Generator {
 public:
  Generator(const Inputs& in, bool hot, std::uint64_t seed)
      : in_(in), hot_(hot), rng_(hash_combine(seed, 0x5E7EULL)) {}

  void next(std::size_t count, const std::string& prefix,
            std::vector<std::string>& lines, std::vector<RequestInfo>& infos) {
    lines.clear();
    infos.clear();
    while (lines.size() < count) {
      if (round_.empty()) refill();
      RequestInfo r;
      r.matrix = round_.back();
      round_.pop_back();
      r.mode = static_cast<Mode>(seq_++ % 3);
      if (!hot_ && r.mode != Mode::kPredict)
        r.materialize = (picks_++ % 4) == 3;
      lines.push_back(request_line(prefix + std::to_string(lines.size()),
                                   in_.paths[static_cast<std::size_t>(r.matrix)], r));
      infos.push_back(r);
    }
  }

 private:
  void refill() {
    const auto n = static_cast<int>(in_.paths.size());
    for (int i = 0; i < n; ++i) round_.push_back(i);
    for (std::size_t i = round_.size(); i > 1; --i)
      std::swap(round_[i - 1], round_[static_cast<std::size_t>(rng_.uniform_int(
                                   0, static_cast<std::int64_t>(i) - 1))]);
  }

  const Inputs& in_;
  bool hot_;
  Rng rng_;
  std::vector<int> round_;
  std::uint64_t seq_ = 0;
  std::uint64_t picks_ = 0;
};

std::unique_ptr<ServeProcess> start_server(const Options& o, const TrainJob& bundle,
                                           const Sizing& sz, bool hot) {
  std::vector<std::string> argv = {
      o.cli_path, "serve",  "--model",  bundle.selector_path,
      "--perf-model", bundle.perf_model_path, "--threads", "2",
      "--shards", "1", "--quiet"};
  if (!hot) {
    // Caches that hold about a third of the matrices: with every matrix
    // visited once per round, LRU evicts nearly every entry before its
    // next visit, so almost every request parses its matrix and extracts
    // its features, and the caches insert and evict on every miss.
    argv.insert(argv.end(),
                {"--ingest-cache-mb", "32", "--cache-cap",
                 std::to_string(std::max(8, sz.cold_matrices / 3))});
  }
  auto server =
      std::make_unique<ServeProcess>(argv, o.work_dir + "/serve.stderr");
  server->command("stats", "ready", 60.0);
  return server;
}

/// While it lives, records the server's peak resident set once a second
/// and restarts the peak from its current resident set, so a leak or a
/// burst of allocations shows in the seconds it happened in.
class PeakSampler {
 public:
  explicit PeakSampler(const ServeProcess& server)
      : server_(server), thread_([this] { loop(); }) {}
  ~PeakSampler() { stop(); }
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  /// Stop sampling; the peak of each whole second sampled.
  std::vector<double> stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return peaks_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    server_.reset_peak_rss();
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [&] { return stopping_; })) {
      peaks_.push_back(server_.peak_rss_mb());
      server_.reset_peak_rss();
    }
  }

  const ServeProcess& server_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> peaks_;
  std::thread thread_;  // last: starts once the members above exist
};

struct Measured {
  Phase phase;
  std::vector<RequestInfo> infos;
};

Measured run_phase(ServeProcess& server, Generator& gen, double rate,
                   double seconds, std::size_t min_requests,
                   const std::string& prefix, const ResponseHook& hook = {}) {
  Measured m;
  std::vector<std::string> lines;
  const auto count = std::max<std::size_t>(
      min_requests, static_cast<std::size_t>(std::llround(rate * seconds)));
  gen.next(count, prefix, lines, m.infos);
  m.phase = run_open_loop(server, lines, rate, prefix, 60.0, hook);
  return m;
}

/// A ladder step passes when nothing failed or was shed, p95 latency
/// (from due times) is within the SLO, and the generator kept pace: a
/// stall of its own shows in the latencies, but it must have sent the
/// step's last request within the SLO of its due time.
bool step_passes(const Phase& p, double slo_ms) {
  if (failures(p) != 0 || p.samples.empty()) return false;
  return percentile(latencies(p), 95.0) <= slo_ms &&
         p.samples.back().late_ms() <= slo_ms;
}

/// Child spans of one request, laid out inside its retroactive
/// `bench.serve.request` span from the response's own timings: the
/// generator's lateness first, the server's time last, and in between the
/// pipe transport (the parent's self time). Inside the server: queue, the
/// batch stages, and the conversion and SpMV inside finalize; whatever
/// server time they leave is the server span's self time.
void add_request_children(const obs::TraceEvent& parent, const Sample& s,
                          std::vector<obs::TraceEvent>& out) {
  const double begin = parent.ts_us;
  const double end = parent.ts_us + parent.dur_us;
  const auto add = [&](const char* name, double from, double dur_us) {
    obs::TraceEvent e;
    e.name = name;
    e.phase = 'X';
    e.tid = parent.tid;
    e.args = parent.args;
    e.ts_us = from;
    e.dur_us = std::max(0.0, std::min(dur_us, end - from));
    out.push_back(std::move(e));
    return from + out.back().dur_us;
  };
  const double late_us = std::clamp(s.late_ms() * 1e3, 0.0, parent.dur_us);
  add("bench.serve.generator", begin, late_us);
  const double server_us =
      std::clamp(s.server_ms * 1e3, 0.0, parent.dur_us - late_us);
  double at = end - server_us;
  add("bench.serve.server", at, server_us);
  at = add("bench.serve.queue", at, s.queue_ms * 1e3);
  at = add("bench.serve.features", at, s.features_ms * 1e3);
  at = add("bench.serve.classify", at, s.classify_ms * 1e3);
  at = add("bench.serve.regress", at, s.regress_ms * 1e3);
  const double finalize_end = add("bench.serve.finalize", at, s.finalize_ms * 1e3);
  const double converted =
      add("bench.serve.convert", at, std::min(s.convert_ms * 1e3, finalize_end - at));
  add("bench.serve.kernel", converted,
      std::min(s.spmv_ms * 1e3, finalize_end - converted));
}

void run_serve(const Options& o, RunReport& report, const ServeShape& shape) {
  const Sizing sz = sizing(o.smoke);
  const double rate = shape.hot ? sz.hot_rate : sz.cold_rate;
  Inputs in = make_inputs(o, sz, shape.hot);
  report.set("synth.generate_mnnz_s", in.generated_nnz / in.generate_s / 1e6);

  // Set-up, repeated: train the bundle, start the server, warm it.
  std::unique_ptr<ServeProcess> server;
  TrainJob bundle;
  std::vector<double> setups;
  for (int k = 0; k < sz.setups; ++k) {
    if (server) {
      server->finish();
      server.reset();
    }
    const double t0 = now_s();
    bundle = run_train_job(TrainPlan{.scale = sz.bundle_scale}, o.threads,
                           o.work_dir);
    server = start_server(o, bundle, sz, shape.hot);
    if (shape.hot) {
      // One request per (matrix, mode) fills the feature cache.
      std::vector<std::string> lines;
      for (std::size_t i = 0; i < in.paths.size(); ++i)
        for (const Mode mode : {Mode::kSelect, Mode::kIndirect, Mode::kPredict})
          lines.push_back(request_line(tag("w", lines.size()), in.paths[i],
                                       {static_cast<int>(i), mode, false}));
      const Phase p = run_open_loop(*server, lines, 1e6, "w", 60.0);
      if (failures(p) != 0) throw std::runtime_error("serve warm-up failed");
    }
    setups.push_back(now_s() - t0);
  }
  report_setup(setups, report);
  report.set("collect.matrices_per_s",
             static_cast<double>(bundle.matrices) / bundle.collect_s);
  report.set("fit.selector_s", bundle.fit_selector_s);
  report.set("fit.perf_model_s", bundle.fit_perf_model_s);

  // The one-shot selector the server's select answers must agree with.
  std::ifstream sel_in(bundle.selector_path);
  const FormatSelector selector = FormatSelector::load_selector(sel_in);
  std::ifstream perf_in(bundle.perf_model_path);
  const PerfModel perf = PerfModel::load_model(perf_in);
  std::vector<std::string> one_shot;
  for (const auto& m : in.matrices) one_shot.push_back(format_name(selector.select(m)));

  if (o.trace) {
    // Layer probes, while the server waits idle for its first request.
    ProbeSet probes;
    const std::size_t stride = std::max<std::size_t>(1, in.matrices.size() / 8);
    for (std::size_t i = 0; i < in.matrices.size(); i += stride)
      probes.matrices.push_back(&in.matrices[i]);
    probes.selector = &selector;
    probes.perf_model = &perf;
    probes.dir = o.work_dir;
    run_layer_probes(o, probes, report);
  }

  Generator gen(in, shape.hot, o.seed);
  if (!shape.hot) {
    // Let the LRU caches reach their steady state: every matrix once.
    (void)run_phase(*server, gen, rate, in.paths.size() / rate, 0, "c");
  }

  std::vector<Measured> checked;
  if (!o.trace) {
    PeakSampler sampler(*server);
    Measured fixed = run_phase(*server, gen, rate, o.seconds, 0, "f");
    const std::vector<double> peaks = sampler.stop();
    const std::vector<double> lat = latencies(fixed.phase);
    const Tail t = windowed_tail(lat, shape.tail_window);
    report.set("p50_ms", median(lat));
    report.set("tail_ms", t.value);
    report.note("tail.percentile", t.percentile);
    report.note("tail.beyond", static_cast<double>(t.beyond));
    report.note("tail.samples", static_cast<double>(t.samples));
    report.note("tail.windows", static_cast<double>(t.windows));
    for (const double q : {10.0, 25.0, 75.0, 90.0, 99.0})
      report.note("fixed.p" + std::to_string(static_cast<int>(q)) + "_ms",
                  percentile(lat, q));
    report.attempted = fixed.phase.samples.size();
    report.failed = failures(fixed.phase);
    // The server's peak resident set in its median second. The peak over
    // the whole phase is set by one rare coincidence of large parses and
    // does not repeat; a leak still raises every second after it.
    report.set("peak_rss_mb", median(peaks));
    report.add_series("peak_rss_mb", peaks);
    report.add_series("latency_ms", lat);
    checked.push_back(std::move(fixed));
  } else {
    // Untraced and traced halves at the same rate; their p50 gap is the
    // tracing overhead.
    const double cpu_before = server->cpu_seconds();
    Measured plain =
        run_phase(*server, gen, rate, o.seconds * kFixedShare / 2, 0, "a");
    // Requests served per second of the server's CPU time: its capacity
    // per core, free of the load generator competing for the same CPUs.
    report.set("serve.requests_per_cpu_s",
               static_cast<double>(latencies(plain.phase).size()) /
                   (server->cpu_seconds() - cpu_before));
    obs::trace_start("");
    Measured traced = run_phase(
        *server, gen, rate, o.seconds * kFixedShare / 2, 0, "b",
        [](std::size_t index, const Sample& s) {
          obs::trace_complete("bench.serve.request", s.latency_ms() * 1e3,
                              tag("b", index));
        });
    std::vector<obs::TraceEvent> children;
    for (const obs::TraceEvent& e : obs::trace_snapshot()) {
      if (e.name != "bench.serve.request" || e.args.empty()) continue;
      const std::string& id = e.args.front().json;  // "\"b<index>\""
      const std::size_t index = std::strtoull(id.c_str() + 2, nullptr, 10);
      if (index < traced.phase.samples.size())
        add_request_children(e, traced.phase.samples[index], children);
    }
    finish_trace(o, std::move(children), report);
    const double total = total_ms(report.layers, "bench.serve.request");
    const auto frac = [&](const char* span) {
      return total > 0.0 ? self_ms(report.layers, span) / total : 0.0;
    };
    report.set("serve.transport_frac", frac("bench.serve.request"));
    report.set("serve.generator_frac", frac("bench.serve.generator"));
    report.set("serve.unaccounted_frac", frac("bench.serve.server"));
    report.set("serve.queue_frac", frac("bench.serve.queue"));
    report.set("serve.features_frac", frac("bench.serve.features"));
    report.set("serve.classify_frac", frac("bench.serve.classify"));
    report.set("serve.regress_frac", frac("bench.serve.regress"));
    report.set("serve.finalize_frac", frac("bench.serve.finalize"));
    report.set("serve.convert_frac", frac("bench.serve.convert"));
    report.set("serve.kernel_frac", frac("bench.serve.kernel"));
    double batch_sum = 0.0;
    std::size_t answered = 0;
    for (const Sample& s : traced.phase.samples) {
      if (!s.answered) continue;
      batch_sum += s.batch;
      ++answered;
    }
    report.set("serve.batch_size_mean",
               answered > 0 ? batch_sum / static_cast<double>(answered) : 0.0);
    const double p50_plain = median(latencies(plain.phase));
    report.set("trace.overhead_frac",
               median(latencies(traced.phase)) / p50_plain - 1.0);
    report.set("ops.tail_samples",
               static_cast<double>(tail(latencies(traced.phase)).samples));
    report.attempted = plain.phase.samples.size() + traced.phase.samples.size();
    report.failed = failures(plain.phase) + failures(traced.phase);
    checked.push_back(std::move(plain));
    checked.push_back(std::move(traced));

    // The rate ladder. Its overload steps fail and shed requests by
    // design, so they are not counted against the run.
    const double step_s = o.seconds * kLadderShare / kExpectedLadderSteps;
    std::size_t step_no = 0;
    const double ladder_start_s = now_s();
    const LadderResult lr = run_ladder(rate * shape.ladder_start, [&](double rps) {
      const std::string key = tag("ladder.step", step_no);
      const Measured m =
          run_phase(*server, gen, rps, step_s, shape.step_min_requests,
                    tag("l", step_no++) + "-");
      const bool pass = step_passes(m.phase, shape.slo_ms);
      report.note(key + ".rps", rps);
      report.note(key + ".pass", pass ? 1 : 0);
      report.note(key + ".p95_ms", percentile(latencies(m.phase), 95.0));
      report.note(key + ".failed", static_cast<double>(failures(m.phase)));
      return pass;
    });
    report.set("serve.max_rps", lr.max_rps);
    report.note("ladder.seconds", now_s() - ladder_start_s);
  }
  for (const Measured& m : checked) {
    report.check(check_no_failures(m.phase));
    report.check(check_selects(m.phase.samples, m.infos, one_shot));
  }
  report.set("ops.fail_frac",
             report.attempted > 0
                 ? static_cast<double>(report.failed) / report.attempted
                 : 0.0);

  // Cache counters from the live stats plane.
  const Json stats = server->command("stats", "final");
  if (const Json* ingest = stats.find("ingest")) {
    const double hits = ingest->num("hits");
    const double misses = ingest->num("misses");
    if (hits + misses > 0) report.set("matrix_cache.hit_ratio", hits / (hits + misses));
    report.set("matrix_cache.parses", ingest->num("parses"));
    report.set("matrix_cache.sidecar_loads", ingest->num("sidecar_loads"));
    report.set("matrix_cache.evictions", ingest->num("evictions"));
  }
  if (const Json* metrics = stats.find("metrics")) {
    if (const Json* counters = metrics->find("counters")) {
      const double hits = counters->num("serve.cache.hit");
      const double misses = counters->num("serve.cache.miss");
      if (hits + misses > 0)
        report.set("feature_cache.hit_ratio", hits / (hits + misses));
    }
  }
  const int status = server->finish();
  if (status != 0)
    report.check("spmvml serve exited with status " + std::to_string(status));

}

}  // namespace

void run_serve_hot(const Options& options, RunReport& report) {
  run_serve(options, report,
            ServeShape{.hot = true,
                       .slo_ms = 5.0,
                       .ladder_start = 8.0,
                       .step_min_requests = 300,
                       .tail_window = 500});
}

void run_serve_cold(const Options& options, RunReport& report) {
  run_serve(options, report,
            ServeShape{.hot = false,
                       .slo_ms = 200.0,
                       .ladder_start = 4.0,
                       .step_min_requests = 100,
                       .tail_window = 100});
}

}  // namespace spmvml::bench
