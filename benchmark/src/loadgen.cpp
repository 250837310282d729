#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace spmvml::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - start).count();
}

int poll_ms(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<int>(seconds * 1e3) + 1;
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ServeProcess::ServeProcess(const std::vector<std::string>& argv,
                           const std::string& stderr_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) sys_fail("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    sys_fail("pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc =
      ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(in_fd_);
    ::close(out_fd_);
    throw std::runtime_error("cannot start " + argv.front() + ": " +
                             std::strerror(rc));
  }
}

ServeProcess::~ServeProcess() {
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void ServeProcess::send_line(const std::string& line) {
  if (in_fd_ < 0) throw std::runtime_error("serve stdin is closed");
  const std::string data = line + '\n';
  std::size_t off = 0;
  while (off < data.size()) {
    // A hung server fills the pipe; never block on it forever.
    pollfd pfd{in_fd_, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, 30000);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) throw std::runtime_error("serve stdin stalled for 30 s");
    const ssize_t n = ::write(in_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      sys_fail("write to serve");
    }
    off += static_cast<std::size_t>(n);
  }
}

bool ServeProcess::recv_line(std::string& line, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const auto nl = pending_.find('\n');
    if (nl != std::string::npos) {
      line.assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    if (out_fd_ < 0) return false;
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, poll_ms(left));
    if (pr < 0 && errno == EINTR) continue;
    if (pr < 0) sys_fail("poll serve stdout");
    if (pr == 0) continue;
    char buf[65536];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("read from serve");
    }
    if (n == 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      continue;
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

Json ServeProcess::command(const std::string& cmd, const std::string& id,
                           double timeout_s) {
  send_line("{\"cmd\":\"" + cmd + "\",\"id\":\"" + id + "\"}");
  std::string line;
  while (recv_line(line, timeout_s)) {
    Json reply = parse_json(line);
    if (reply.str("id") == id) return reply;
  }
  throw std::runtime_error("serve did not answer the " + cmd + " command");
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0.0;
}

double ServeProcess::peak_rss_mb() const {
  return bench::peak_rss_mb(std::to_string(pid_));
}

void ServeProcess::reset_peak_rss() const {
  // Writing 5 to clear_refs resets VmHWM (Linux 4.0+).
  std::ofstream("/proc/" + std::to_string(pid_) + "/clear_refs") << "5";
}

double ServeProcess::cpu_seconds() const {
  clockid_t clock = 0;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0)
    return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int ServeProcess::finish(double timeout_s) {
  if (pid_ <= 0) return -1;
  if (in_fd_ >= 0) {
    ::close(in_fd_);
    in_fd_ = -1;
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string ignored;
  while (Clock::now() < deadline &&
         recv_line(ignored,
                   std::chrono::duration<double>(deadline - Clock::now())
                       .count())) {
  }
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) sys_fail("waitpid");
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void fill_sample(const Json& r, Sample& s) {
  s.ok = r.flag("ok");
  s.shed = !r.str("shed").empty();
  s.degraded = r.flag("degraded");
  s.format = r.str("format");
  s.server_ms = r.num("server_ms");
  s.queue_ms = r.num("queue_ms");
  s.convert_ms = r.num("convert_ms");
  s.spmv_ms = r.num("spmv_ms");
  s.batch = r.num("batch");
  if (const Json* st = r.find("stage_ms")) {
    s.features_ms = st->num("features");
    s.classify_ms = st->num("classify");
    s.regress_ms = st->num("regress");
    s.finalize_ms = st->num("finalize");
  }
}

std::size_t failures(const Phase& p) {
  std::size_t n = p.unanswered;
  for (const Sample& s : p.samples)
    if (s.answered && (!s.ok || s.shed)) ++n;
  return n;
}

std::vector<double> latencies(const Phase& p) {
  std::vector<double> v;
  for (const Sample& s : p.samples)
    if (s.answered && s.ok && !s.shed) v.push_back(s.latency_ms());
  return v;
}

Phase run_open_loop(LineTransport& transport,
                    const std::vector<std::string>& lines, double rate,
                    const std::string& id_prefix, double timeout_s,
                    const ResponseHook& on_response) {
  Phase phase;
  const std::size_t n = lines.size();
  phase.samples.resize(n);
  if (n == 0) return phase;
  const double interval_ms = 1e3 / rate;
  // A short lead so request 0 is not late by the thread start-up.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           interval_ms * static_cast<double>(i)));
  };

  // The sender owns sent_ms; the reader owns everything else until join.
  std::vector<double> sent_ms(n, 0.0);
  std::atomic<bool> stop{false};
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n && !stop.load(); ++i) {
        std::this_thread::sleep_until(due_at(i));
        sent_ms[i] = ms_since(start, Clock::now());
        transport.send_line(lines[i]);
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });

  const Clock::time_point deadline =
      due_at(n - 1) + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(timeout_s));
  std::size_t received = 0;
  std::exception_ptr read_error;
  try {
    std::string line;
    while (received < n) {
      const double left =
          std::chrono::duration<double>(deadline - Clock::now()).count();
      if (left <= 0.0 || !transport.recv_line(line, left)) break;
      const double recv_ms = ms_since(start, Clock::now());
      const Json r = parse_json(line);
      const std::string id = r.str("id");
      if (id.rfind(id_prefix, 0) != 0) continue;
      const std::size_t index =
          std::strtoull(id.c_str() + id_prefix.size(), nullptr, 10);
      if (index >= n || phase.samples[index].answered) continue;
      Sample& s = phase.samples[index];
      s.answered = true;
      s.recv_ms = recv_ms;
      s.due_ms = interval_ms * static_cast<double>(index);
      fill_sample(r, s);
      if (on_response) on_response(index, s);
      ++received;
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  stop.store(true);
  sender.join();
  if (read_error) std::rethrow_exception(read_error);
  if (send_error) std::rethrow_exception(send_error);
  for (std::size_t i = 0; i < n; ++i) {
    phase.samples[i].due_ms = interval_ms * static_cast<double>(i);
    phase.samples[i].sent_ms = sent_ms[i];
  }
  phase.unanswered = n - received;
  return phase;
}

}  // namespace spmvml::bench
