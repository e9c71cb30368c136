// The deployment under test: one qtrouterd in front of two
// `qtserved --workers=1`, all on ephemeral loopback ports, launched
// fresh for every run and torn down (with straggler detection) at the
// end. Plus the client-side plumbing every workload shares: a blocking
// wire connection and /proc readings per daemon.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace qtbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct FleetOptions {
  std::string bin_dir;  // holds qtserved and qtrouterd
  std::string run_dir;  // port files and daemon logs
  unsigned max_hot = 8;
  std::size_t max_queue = 64;
};

struct Daemon {
  std::string name;
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
};

/// CPU and memory of one process, from /proc/<pid>/{stat,status}.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  double hwm_mb = 0.0;  // VmHWM: peak resident set
  double ctxsw = 0.0;   // voluntary + involuntary context switches
};
ProcSample read_proc(pid_t pid);

class Fleet {
 public:
  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawns the workers, waits for their port files (polled every
  /// 200 us), then the router. False (with *error) on any failure.
  bool start(const FleetOptions& options, std::string* error);

  /// Shutdown through the router (which relays it to every worker),
  /// then waits up to 0.5 s for the whole fleet. Daemons still alive are
  /// killed and their names returned.
  std::vector<std::string> stop();

  const Daemon& router() const { return router_; }
  const std::vector<Daemon>& workers() const { return workers_; }
  /// The command-line flags each daemon ran with (provenance).
  std::string describe() const;

 private:
  bool spawn(Daemon& d, const std::vector<std::string>& args,
             std::string* error);
  std::vector<Daemon*> all();

  FleetOptions options_;
  std::vector<Daemon> workers_;
  Daemon router_;
  std::vector<std::string> worker_args_;
  bool running_ = false;
};

/// A blocking QTSERVE-WIRE connection (client side of serve/tcp.h).
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(std::uint16_t port);
  bool send(const qta::serve::Request& req);
  bool recv(qta::serve::Response* resp);
  /// send + recv; false on an I/O or decode failure.
  bool call(const qta::serve::Request& req, qta::serve::Response* resp);
  int fd() const { return fd_; }
  const std::string& error() const { return error_; }

 private:
  int fd_ = -1;
  std::string error_;
};

}  // namespace qtbench
