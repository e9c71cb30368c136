// Per-layer probes for the traced run. Each probe calls one module's
// public functions directly, at the workload's geometry and step size,
// and times batches of calls (never a single sub-microsecond call).
// The in-process replay pushes the workload's generated request stream
// through the codec, a Router behind the benchmark's own RouterHost,
// two Servers and their engines, recording one span per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet.h"
#include "workloads.h"

namespace qtbench {

/// In-memory span log: name, start, end, parent. Written out once, at
/// the end of the run.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total self time (duration minus the time its child
  /// spans cover) and call count.
  std::map<std::string, std::pair<double, std::uint64_t>> self_times() const;
  /// Sum of the durations of every span called `name`, and their count.
  std::pair<double, std::uint64_t> total(const std::string& name) const;
  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// name -> value; units come from the metric table in main.cpp.
using Metrics = std::map<std::string, double>;

/// Runs every in-process probe for `workload` and adds its qtaccel.*,
/// runtime.*, serve.codec_ns_per_req, serve.pump_us,
/// shard.route_ns_per_req and pool.dispatch_us metrics to *out.
/// `batch_size` is the fleet's measured mean pump batch. Returns "" or
/// a correctness problem seen during the replay.
std::string run_probes(const Workload& workload, std::uint64_t seed,
                       double batch_size, Tracer& tracer, Metrics* out);

/// net.ping_rtt_us (router) and net.burst8_stall_frac (one worker).
void run_net_probes(const Fleet& fleet, Tracer& tracer, Metrics* out);

/// Chrome trace-event JSON of the in-process spans plus the client's
/// request spans (pid 1 = client requests, pid 2 = in-process replay).
bool write_spans(const std::string& path, const Tracer& tracer,
                 const std::vector<RequestSpan>& requests);

}  // namespace qtbench
