// The three workloads and the client that drives them through the
// router. Every input is generated from the run seed: session specs,
// Query states, the Zipf session draw and the Poisson schedule. The
// daemons see only the generated requests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet.h"
#include "serve/protocol.h"
#include "stats.h"

namespace qtbench {

inline constexpr unsigned kConnections = 4;  // also the client thread cap

struct Workload {
  std::string name;
  unsigned sessions = 0;
  unsigned width = 0;
  unsigned height = 0;
  unsigned actions = 0;
  std::uint64_t step_samples = 0;
  unsigned max_hot = 8;
  std::size_t max_queue = 64;
  bool open_loop = false;
  double zipf_s = 0.0;          // open loop: session popularity
  double query_frac = 0.0;      // open loop: share of Queries
  double reference_rps = 0.0;   // open loop: the fixed reference rate
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// A q_learning session of the workload's geometry (seed forced odd).
qta::serve::SessionSpec session_spec(const Workload& workload,
                                     std::uint64_t seed,
                                     qta::qtaccel::Backend backend =
                                         qta::qtaccel::Backend::kFast);

/// What the client knows about one session: enough to replay it.
struct SessionLog {
  qta::serve::SessionSpec spec;
  qta::serve::SessionId id = 0;
  std::vector<std::uint64_t> steps;  // every Step the fleet answered OK
  std::uint64_t samples = 0;         // retired total in the last Step reply
  std::uint64_t touches = 0;         // requests answered OK
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // error, overloaded, or malformed reply
  void add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
  }
};

/// One request as the client saw it (the traced run keeps all of them).
struct RequestSpan {
  std::uint32_t conn = 0;
  std::uint64_t seq = 0;
  std::uint8_t type = 0;  // serve::RequestType
  double start_us = 0.0;  // send (closed loop) or due time (open loop)
  double end_us = 0.0;    // reply received
};

struct Window {
  double wall_s = 0.0;
  std::uint64_t samples = 0;   // retired, from Step reply counters
  /// (seconds into the window, samples retired) per completed Step.
  std::vector<std::pair<double, std::uint64_t>> retired;
  Tally tally;
  std::vector<double> step_us;
  std::vector<double> query_us;
  std::vector<double> lateness_us;  // open loop: send time - due time
  std::uint64_t answered_on_time = 0;  // open loop: replies received by
                                       // the schedule's end + 10 ms
  std::size_t backlog_mid = 0;      // open loop: replies outstanding
  std::size_t backlog_end = 0;
  std::string problem;  // a correctness violation seen in a reply
};

/// The open-loop request draw: a Zipf-popular session, then Query or
/// Step by the workload's mix. The fleet run and the in-process replay
/// both draw from it, so they see the same stream for a seed.
class OpenStream {
 public:
  OpenStream(const Workload& workload, std::uint64_t stream_seed);
  /// Fills *req (session id from `sessions`) and returns the session
  /// index.
  std::size_t next(const std::vector<SessionLog>& sessions,
                   qta::serve::Request* req);

 private:
  const Workload& workload_;
  ZipfSampler zipf_;
  Rng rng_;
};

class Client {
 public:
  Client(const Workload& workload, std::uint64_t seed);

  /// Opens the connections, creates every session (sequentially, so
  /// the router's id assignment and hence placement repeat run to run)
  /// and touches each once with a Step (the warm-up pass).
  bool setup(std::uint16_t router_port, std::string* error);

  /// Closed loop: one Step in flight per connection, each connection
  /// cycling over its own sessions. It stops once `seconds` have passed
  /// and at least `min_steps` Steps completed (so a p99 has 10 samples
  /// beyond it), or at 3 x `seconds` regardless.
  Window closed_loop(double seconds, std::size_t min_steps,
                     std::vector<RequestSpan>* spans);

  /// Open loop: a Poisson schedule at `rate` over `seconds` spread over
  /// the connections by session; latency counts from each due time.
  Window open_loop(double rate, double seconds, std::uint64_t stream_seed,
                   std::vector<RequestSpan>* spans);

  /// The bit-exact gate: Snapshot the 16 most-touched sessions plus 16
  /// picked by the seed and byte-compare each against a local replay
  /// twin with the identical Step partitioning. Empty string = pass.
  std::string gate(Tally* tally, std::size_t* checked);

  const std::vector<SessionLog>& sessions() const { return sessions_; }
  Conn& conn(unsigned i) { return conns_[i]; }

 private:
  unsigned conn_of(std::size_t session) const {
    return static_cast<unsigned>(session % kConnections);
  }

  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<SessionLog> sessions_;
  Conn conns_[kConnections];
  Clock::time_point epoch_;
};

/// Samples retired per second in each of `parts` equal slices of the
/// window.
std::vector<double> slice_rates(const Window& w, int parts);

/// Runs fn(0..n-1) with fn(0) on the calling thread (n <= 4 threads).
void run_parallel(unsigned n, const std::function<void(unsigned)>& fn);

}  // namespace qtbench
