#include "machine.hpp"

#include <sched.h>

#include <cstdlib>
#include <fstream>

#include "common/parallel.hpp"
#include "sparse/simd.hpp"

namespace spmvml::bench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "2048K" / "300M" -> bytes.
std::int64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  std::int64_t value = std::strtoll(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': value <<= 10; break;
    case 'M': value <<= 20; break;
    case 'G': value <<= 30; break;
    default: break;
  }
  return value;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

Machine describe_machine() {
  Machine m;
  cpu_set_t set;
  CPU_ZERO(&set);
  m.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;

  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      m.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/index";
  int llc_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string level = read_line(cache + std::to_string(i) + "/level");
    if (level.empty()) break;
    const std::string type = read_line(cache + std::to_string(i) + "/type");
    if (type == "Instruction") continue;
    const std::int64_t bytes =
        parse_size(read_line(cache + std::to_string(i) + "/size"));
    const int lvl = std::atoi(level.c_str());
    if (lvl == 2) m.l2_bytes = bytes;
    if (lvl >= llc_level) {
      llc_level = lvl;
      m.llc_bytes = bytes;
    }
  }
  m.isa = simd::active_isa();
  m.compiler = SPMVML_BENCH_COMPILER;
  m.build_type = SPMVML_BENCH_BUILD_TYPE;
  m.openmp_threads = parallel_threads();
  m.git_sha = env_or("SPMVML_BENCH_GIT_SHA", "unknown");
  m.git_dirty = env_or("SPMVML_BENCH_GIT_DIRTY", "0") == "1";
  return m;
}

void write_config(JsonWriter& w, const Machine& m, const Options& options) {
  w.begin_object();
  w.kv("nproc", m.nproc);
  w.kv("cpu_model", std::string_view(m.cpu_model));
  w.kv("l2_bytes", m.l2_bytes);
  w.kv("llc_bytes", m.llc_bytes);
  w.kv("isa", std::string_view(m.isa));
  w.kv("compiler", std::string_view(m.compiler));
  w.kv("build_type", std::string_view(m.build_type));
  w.kv("openmp_threads", m.openmp_threads);
  w.kv("git_sha", std::string_view(m.git_sha));
  w.kv("git_dirty", m.git_dirty);
  w.kv("workload", std::string_view(options.workload));
  w.kv("seed", static_cast<std::uint64_t>(options.seed));
  w.kv("seconds", options.seconds);
  w.kv("trace", options.trace);
  w.kv("smoke", options.smoke);
  w.end_object();
}

}  // namespace spmvml::bench
