// spmvml_bench — one workload of the spmvml benchmark per invocation.
//
//   spmvml_bench --workload serve-hot|serve-cold|solve|train
//                [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                [--out results.json]
//
// Prints one `name value unit` line per metric and, last, one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. Writes
// the full results (config block, every metric measured, notes, the
// samples behind the metrics, layer table) to --out, by default
// build/results/<workload>-s<seed>-t<trace>[-smoke].json next to this
// binary. Exits 1 when an output check failed and 2 when the run could
// not complete.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "common/json_writer.hpp"
#include "machine.hpp"
#include "workloads.hpp"

using namespace spmvml;
using namespace spmvml::bench;

namespace {

namespace fs = std::filesystem;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "spmvml_bench: %s\n"
               "usage: spmvml_bench --workload serve-hot|serve-cold|solve|train"
               " [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out FILE]\n",
               problem.c_str());
  std::exit(2);
}

double number(const std::string& flag, const std::string& text, double lo,
              double hi) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= lo && v <= hi))
    usage("bad value for " + flag + ": '" + text + "'");
  return v;
}

void write_metrics(JsonWriter& w, const RunReport& report,
                   std::span<const MetricDef> defs) {
  w.begin_object();
  for (const auto& d : defs) {
    w.key(d.name);
    w.begin_object();
    w.kv("value", report.get(d.name));
    w.kv("unit", std::string_view(d.unit));
    w.end_object();
  }
  w.end_object();
}

void write_results(const std::string& path, const Options& o,
                   const RunReport& report) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("config");
  write_config(w, describe_machine(), o);
  w.kv("correct", report.correct());
  w.key("problems");
  w.begin_array();
  for (const auto& p : report.problems()) w.value(std::string_view(p));
  w.end_array();
  w.kv("attempted", report.attempted);
  w.kv("failed", report.failed);
  w.key("end_to_end");
  write_metrics(w, report, end_to_end_metrics());
  w.key("per_layer");
  write_metrics(w, report, per_layer_metrics());
  w.key("notes");
  w.begin_object();
  for (const auto& [k, v] : report.notes()) w.kv(k, v);
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [k, values] : report.series()) {
    w.key(k);
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("layers");
  w.begin_array();
  for (const auto& row : report.layers) {
    w.begin_object();
    w.kv("name", std::string_view(row.name));
    w.kv("count", static_cast<std::uint64_t>(row.count));
    w.kv("total_ms", row.total_ms);
    w.kv("self_ms", row.self_ms);
    w.end_object();
  }
  w.end_array();
  if (o.trace) w.kv("trace_file", std::string_view(o.trace_path));
  w.end_object();
  out << '\n';
}

int run(const Options& o, const std::string& out_path) {
  RunReport report;
  if (o.workload == "serve-hot") run_serve_hot(o, report);
  else if (o.workload == "serve-cold") run_serve_cold(o, report);
  else if (o.workload == "solve") run_solve(o, report);
  else run_train(o, report);

  const auto defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& d : defs)
    std::printf("%s %.6g %s\n", d.name.c_str(), report.get(d.name),
                d.unit.c_str());
  if (o.trace) {
    std::printf("layer self-time table (bench.* spans of the traced half):\n");
    for (const auto& row : report.layers)
      std::printf("  %-28s %8zu calls %12.3f ms total %12.3f ms self\n",
                  row.name.c_str(), row.count, row.total_ms, row.self_ms);
  }
  for (const auto& p : report.problems())
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  write_results(out_path, o, report);
  std::fprintf(stderr, "results: %s\n", out_path.c_str());

  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("correct", report.correct());
  w.kv("attempted", report.attempted);
  w.kv("failed", report.failed);
  w.key("metrics");
  write_metrics(w, report, defs);
  w.end_object();
  std::cout << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--train-job")
    return train_job_main(argc - 2, argv + 2);
  // A server that dies mid-run must surface as an error, not a SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  Options o;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = static_cast<std::uint64_t>(number(a, v, 0, 1e15));
    else if (a == "--seconds") o.seconds = number(a, v, 0.1, 3600);
    else if (a == "--trace") o.trace = number(a, v, 0, 1) != 0.0;
    else if (a == "--out") out_path = v;
    else usage("unknown option " + a);
  }
  // A smoke run checks that everything works, not how fast.
  if (o.smoke) o.seconds = std::min(o.seconds, 2.0);
  bool known = false;
  for (const char* w : workload_names()) known = known || o.workload == w;
  if (!known) usage("unknown workload '" + o.workload + "'");

  const fs::path build_dir = fs::canonical("/proc/self/exe").parent_path();
  const std::string tag = o.workload + "-s" + std::to_string(o.seed) + "-t" +
                          (o.trace ? "1" : "0") + (o.smoke ? "-smoke" : "");
  if (out_path.empty())
    out_path = (build_dir / "results" / (tag + ".json")).string();
  if (o.trace)
    o.trace_path = (fs::path(out_path).parent_path() / (tag + ".trace.json"))
                       .string();
  o.work_dir =
      (build_dir / ("work-" + tag + "-" + std::to_string(::getpid()))).string();
  o.cli_path = SPMVML_BENCH_CLI;
  o.threads = describe_machine().nproc;

  int rc = 2;
  try {
    fs::create_directories(o.work_dir);
    rc = run(o, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmvml_bench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
  }
  std::error_code ignored;
  fs::remove_all(o.work_dir, ignored);
  return rc;
}
