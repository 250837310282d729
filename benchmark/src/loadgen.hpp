// Open-loop load generation over the `spmvml serve` JSONL protocol.
//
// One sender thread writes request lines on a fixed schedule (request i
// is due at start + i / rate) whether or not earlier requests have been
// answered; one reader thread timestamps each response line as it
// arrives. Latency is measured from a request's *due* time, so a stall in
// the generator or a full pipe counts against every request it delays,
// and the generator's own lateness (sent - due) is reported alongside.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "json.hpp"

namespace spmvml::bench {

/// A bidirectional line channel. The serve child process is the real
/// one; the self-tests substitute an in-memory fake.
class LineTransport {
 public:
  virtual ~LineTransport() = default;
  /// Write one line (a newline is appended). Throws on a closed channel.
  virtual void send_line(const std::string& line) = 0;
  /// Read one line; false on end of stream or when `timeout_s` passes.
  virtual bool recv_line(std::string& line, double timeout_s) = 0;
};

/// Peak resident set (VmHWM) in MiB of the process `pid` ("self" for this
/// one), read from /proc; 0 when unreadable.
double peak_rss_mb(const std::string& pid);

/// `spmvml serve` as a child process: stdin and stdout are pipes, stderr
/// goes to a file. The destructor kills and reaps a child that is still
/// running, so no exit path leaves a process behind.
class ServeProcess final : public LineTransport {
 public:
  ServeProcess(const std::vector<std::string>& argv,
               const std::string& stderr_path);
  ~ServeProcess() override;
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  void send_line(const std::string& line) override;
  bool recv_line(std::string& line, double timeout_s) override;

  /// Admin round trip: send a {"cmd":...,"id":id} line and return the
  /// response carrying `id`. Only valid while no phase is in flight.
  Json command(const std::string& cmd, const std::string& id,
               double timeout_s = 30.0);

  /// Peak resident set (VmHWM) of the child in MiB; 0 when unreadable.
  double peak_rss_mb() const;

  /// Restart the child's peak from its current resident set.
  void reset_peak_rss() const;

  /// CPU time the child has used so far, all threads, in seconds; 0 when
  /// unreadable.
  double cpu_seconds() const;

  /// Close stdin (the server drains and exits), read stdout to its end,
  /// and reap the child; kills it after `timeout_s`. Returns the exit
  /// status (128 + signal when killed).
  int finish(double timeout_s = 30.0);

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;   // child's stdin (we write)
  int out_fd_ = -1;  // child's stdout (we read)
  std::string pending_;
};

/// What the benchmark learns from one response line.
struct Sample {
  double due_ms = 0.0;   // schedule, relative to the phase start
  double sent_ms = 0.0;  // when the line was written
  double recv_ms = 0.0;  // when the response line was read
  bool answered = false;
  bool ok = false;
  bool shed = false;
  bool degraded = false;
  std::string format;  // served format (select / indirect)
  double server_ms = 0.0;
  double queue_ms = 0.0;
  double features_ms = 0.0;
  double classify_ms = 0.0;
  double regress_ms = 0.0;
  double finalize_ms = 0.0;
  double convert_ms = 0.0;
  double spmv_ms = 0.0;
  double batch = 0.0;

  double latency_ms() const { return recv_ms - due_ms; }
  double late_ms() const { return sent_ms - due_ms; }
};

/// Copy the protocol fields of one parsed response into `s`.
void fill_sample(const Json& response, Sample& s);

struct Phase {
  std::vector<Sample> samples;  // index-aligned with the request lines
  std::size_t unanswered = 0;   // lines with no response before timeout
};

/// Failed requests: error responses, shed requests and lines that got no
/// response.
std::size_t failures(const Phase& p);

/// Latency from the due time of every request that was served. Failed
/// requests are left out, so a server answering quickly with errors reads
/// no faster; they count in failures() instead.
std::vector<double> latencies(const Phase& p);

/// Called on the reader thread as each response arrives, with the
/// request's index and its sample (sent_ms is not filled in yet).
using ResponseHook = std::function<void(std::size_t, const Sample&)>;

/// Send `lines` at `rate` requests per second. Every line must carry
/// "id":"<id_prefix><index>"; responses are matched back by that id.
/// Waits for every response, up to `timeout_s` after the last due time.
Phase run_open_loop(LineTransport& transport,
                    const std::vector<std::string>& lines, double rate,
                    const std::string& id_prefix, double timeout_s,
                    const ResponseHook& on_response = {});

}  // namespace spmvml::bench
