// qtbench: the fleet benchmark. One run launches a fresh fleet (one
// qtrouterd, two qtserved --workers=1), drives one workload through
// the router from this single client process (at most 4 threads and 4
// connections), checks every result bit-exactly, and prints its
// metrics as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace=0 measures the end-to-end metrics with tracing off;
// --trace=1 is the separate traced run that produces the per-layer
// metrics (see qtbench/README.md for every definition).
//
// Usage: qtbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --bin-dir=DIR --out-dir=DIR [--git-sha=SHA]

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/cli.h"
#include "fleet.h"
#include "probes.h"
#include "prom.h"
#include "shard/shard_manager.h"
#include "stats.h"
#include "workloads.h"

using namespace qtbench;
namespace serve = qta::serve;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated metrics (BENCHMARK.json end_to_end). act_zipf's open-loop
// metrics (query latency, max_rate_rps, cpu_us_per_req) are reported
// in the details line only: README.md records why they are not gated.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"samples_per_s", "1/s"},
    {"step_p50_us", "us"},
    {"step_p99_us", "us"},
    {"cpu_s_per_msample", "s"},
    {"fleet_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"qtaccel.fast_ns_per_sample", "ns"},
    {"qtaccel.lanes8_ns_per_sample", "ns"},
    {"runtime.engine_build_us", "us"},
    {"runtime.park_full_us", "us"},
    {"runtime.park_delta_us", "us"},
    {"runtime.restore_us", "us"},
    {"runtime.full_kb", "KiB"},
    {"runtime.delta_kb", "KiB"},
    {"serve.codec_ns_per_req", "ns"},
    {"serve.pump_us", "us"},
    {"serve.batch_size", "count"},
    {"serve.hot_hit_ratio", "ratio"},
    {"serve.restores_per_kreq", "count"},
    {"serve.evictions_per_kreq", "count"},
    {"serve.park_kb_per_evict", "KiB"},
    {"serve.overload_frac", "ratio"},
    {"serve.queue_wait_us", "us"},
    {"serve.execute_us", "us"},
    {"serve.reply_us", "us"},
    {"shard.route_ns_per_req", "ns"},
    {"shard.sessions_max_over_mean", "ratio"},
    {"shard.checkpoints_per_kreq", "count"},
    {"net.ping_rtt_us", "us"},
    {"net.burst8_stall_frac", "ratio"},
    {"pool.dispatch_us", "us"},
    {"proc.router_cpu_us_per_req", "us"},
    {"proc.worker_cpu_us_per_req", "us"},
    {"proc.sys_share", "ratio"},
    {"proc.ctxsw_per_req", "count"},
    {"proc.router_rss_mb", "MB"},
    {"proc.worker_rss_mb", "MB"},
    {"trace.samples_per_s", "1/s"},
    {"trace.step_p50_us", "us"},
};

// The open-loop latency limit: one tick of a 100 Hz agent loop.
constexpr double kLatencyLimitUs = 10'000.0;
// The generator counts as behind when its p99 lateness exceeds this.
constexpr double kMaxLatenessUs = 1'000.0;
// act_zipf spends this share of --seconds at the reference rate and
// 5 % per rung of the max_rate_rps search.
constexpr double kOpenLoopShare = 0.4;
// max_rate_rps rungs: reference_rps * kRungRatio^k.
constexpr double kRungRatio = 1.05;
// Steps a p99 needs so that 10 lie beyond it (plus a margin).
constexpr std::size_t kMinTailSamples = 1'100;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 7;
// Slices of the timed window; samples_per_s is their median rate.
constexpr int kSlices = 10;

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// The fleet's counters and /proc state at one instant.
struct FleetReading {
  Exposition workers;  // both workers' scrapes, summed
  Exposition router;
  ProcSample router_proc;
  ProcSample worker_proc[2];
  bool scraped = true;  // every /metrics scrape answered 200
};

Exposition scrape(const Daemon& d, bool* ok) {
  const std::optional<std::string> body =
      qta::shard::http_get("127.0.0.1", d.http_port, "/metrics");
  if (!body.has_value()) *ok = false;
  return parse_exposition(body.value_or(""));
}

FleetReading read_fleet(const Fleet& fleet) {
  FleetReading r;
  for (std::size_t i = 0; i < fleet.workers().size(); ++i) {
    const Daemon& w = fleet.workers()[i];
    r.workers = merge(r.workers, scrape(w, &r.scraped));
    r.worker_proc[i] = read_proc(w.pid);
  }
  r.router = scrape(fleet.router(), &r.scraped);
  r.router_proc = read_proc(fleet.router().pid);
  return r;
}

double cpu(const ProcSample& p) { return p.user_s + p.sys_s; }

struct FleetDelta {
  double router_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  double sys_s = 0.0;
  double ctxsw = 0.0;
  double router_hwm_mb = 0.0;
  double worker_hwm_mb = 0.0;
  Exposition workers;
  Exposition router;
};

FleetDelta delta(const FleetReading& a, const FleetReading& b) {
  FleetDelta d;
  d.router_cpu_s = cpu(b.router_proc) - cpu(a.router_proc);
  d.sys_s = b.router_proc.sys_s - a.router_proc.sys_s;
  d.ctxsw = b.router_proc.ctxsw - a.router_proc.ctxsw;
  d.router_hwm_mb = b.router_proc.hwm_mb;
  for (int i = 0; i < 2; ++i) {
    d.worker_cpu_s += cpu(b.worker_proc[i]) - cpu(a.worker_proc[i]);
    d.sys_s += b.worker_proc[i].sys_s - a.worker_proc[i].sys_s;
    d.ctxsw += b.worker_proc[i].ctxsw - a.worker_proc[i].ctxsw;
    d.worker_hwm_mb += b.worker_proc[i].hwm_mb;
  }
  d.workers = diff(b.workers, a.workers);
  d.router = diff(b.router, a.router);
  return d;
}

double session_requests(const Exposition& w) {
  double n = 0.0;
  for (const char* type : {"step", "query", "snapshot"}) {
    n += w.sum("qtserve_requests_total", {{"type", type}});
  }
  return n;
}

// One rung of the max_rate_rps search.
struct Rung {
  int k = 0;
  double rate = 0.0;
  bool pass = false;
  bool generator_ok = true;
  double query_p99_us = 0.0;
  double achieved_share = 0.0;
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  std::uint64_t failed = 0;
};

Rung judge(int k, double rate, const Window& w) {
  Rung r;
  r.k = k;
  r.rate = rate;
  const Percentile lateness = percentile(w.lateness_us, 0.99);
  r.generator_ok = lateness.value.value_or(0.0) <= kMaxLatenessUs;
  const Percentile q99 = percentile(w.query_us, 0.99);
  r.query_p99_us = q99.value.value_or(1e12);
  r.achieved_share = w.tally.attempted == 0
                         ? 0.0
                         : static_cast<double>(w.answered_on_time) /
                               static_cast<double>(w.tally.attempted);
  r.backlog_mid = w.backlog_mid;
  r.backlog_end = w.backlog_end;
  r.failed = w.tally.failed;
  const bool backlog_growing = w.backlog_end > 2 * w.backlog_mid + 32;
  r.pass = r.generator_ok && r.failed == 0 && w.problem.empty() &&
           r.query_p99_us <= kLatencyLimitUs && r.achieved_share >= 0.95 &&
           !backlog_growing;
  return r;
}

class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, double seconds, bool trace,
      std::string bin_dir, std::string out_dir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        bin_dir_(std::move(bin_dir)),
        out_dir_(std::move(out_dir)),
        tracer_(Clock::now()) {}

  int execute(const std::string& git_sha);

 private:
  bool launch(int setups, std::string* error);
  void teardown();
  void note(const std::string& key, const std::string& json_value) {
    info_.emplace_back(key, json_value);
  }
  void fail(const std::string& why) {
    if (problem_.empty()) problem_ = why;
  }
  void window_metrics(const Window& win, const FleetDelta& d);
  void ladder(const Window& reference);
  void layer_metrics(const Window& win, const FleetDelta& d);
  void shape_checks(const Window& win, const FleetDelta& d,
                    const FleetReading& end);

  const Workload& w_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string bin_dir_;
  std::string out_dir_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<Client> client_;
  std::vector<double> setup_s_;
  std::string fleet_flags_;
  std::vector<std::string> stragglers_;
  Metrics metrics_;
  Tally tally_;
  std::string problem_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<RequestSpan> request_spans_;
  Tracer tracer_;
};

bool Run::launch(int setups, std::string* error) {
  FleetOptions options;
  options.bin_dir = bin_dir_;
  options.run_dir = out_dir_ + "/fleet";
  options.max_hot = w_.max_hot;
  options.max_queue = w_.max_queue;
  for (int i = 0; i < setups; ++i) {
    if (fleet_ != nullptr) teardown();
    fleet_ = std::make_unique<Fleet>();
    client_ = std::make_unique<Client>(w_, seed_);
    const Clock::time_point t0 = Clock::now();
    if (!fleet_->start(options, error) ||
        !client_->setup(fleet_->router().port, error)) {
      return false;
    }
    setup_s_.push_back(seconds_since(t0));
    fleet_flags_ = fleet_->describe();
  }
  return true;
}

void Run::teardown() {
  client_.reset();  // close the client connections first
  for (std::string& s : fleet_->stop()) stragglers_.push_back(std::move(s));
  fleet_.reset();
}

void Run::window_metrics(const Window& win, const FleetDelta& d) {
  const Percentile s50 = percentile(win.step_us, 0.5);
  const Percentile s99 = percentile(win.step_us, 0.99);
  if (!s50.value || !s99.value) {
    fail("too few Steps for a p99 (need 10 beyond it): " +
         std::to_string(s99.count));
  }
  note("step_samples", std::to_string(s99.count));
  const double cpu_s = d.router_cpu_s + d.worker_cpu_s;
  metrics_["setup_s"] = median(setup_s_);
  const std::vector<double> slices = slice_rates(win, kSlices);
  metrics_["samples_per_s"] = median(slices);
  note("slice_samples_per_s", [&] {
    std::string a = "[";
    for (const double v : slices) a += (a.size() > 1 ? "," : "") + num(v);
    return a + "]";
  }());
  metrics_["step_p50_us"] = s50.value.value_or(0.0);
  metrics_["step_p99_us"] = s99.value.value_or(0.0);
  metrics_["cpu_s_per_msample"] =
      cpu_s / (static_cast<double>(win.samples) / 1e6);
  metrics_["fleet_rss_mb"] = d.router_hwm_mb + d.worker_hwm_mb;
  note("window_s", num(win.wall_s));
  note("window_samples_per_s",
       num(static_cast<double>(win.samples) / win.wall_s));
  note("fleet_cpu_s", num(cpu_s));
  note("setup_runs_s", [&] {
    std::string a = "[";
    for (const double v : setup_s_) a += (a.size() > 1 ? "," : "") + num(v);
    return a + "]";
  }());
  if (w_.open_loop) {
    const Percentile q50 = percentile(win.query_us, 0.5);
    const Percentile q99 = percentile(win.query_us, 0.99);
    note("query_p50_us", num(q50.value.value_or(0.0)));
    note("query_p99_us", num(q99.value.value_or(0.0)));
    note("query_samples", std::to_string(q99.count));
    note("cpu_us_per_req",
         num(cpu_s * 1e6 /
             static_cast<double>(std::max<std::uint64_t>(1, win.tally.ok))));
  }
}

void Run::ladder(const Window& reference) {
  const double rung_s = 0.05 * seconds_;
  std::vector<Rung> rungs;
  rungs.push_back(judge(0, w_.reference_rps, reference));
  auto run = [&](int k) {
    const double rate = w_.reference_rps * std::pow(kRungRatio, k);
    const auto tag = static_cast<std::uint64_t>(k + 164);
    const Window win =
        client_->open_loop(rate, rung_s, derive_seed(seed_, tag), nullptr);
    rungs.push_back(judge(k, rate, win));
    return rungs.back().pass;
  };
  // Geometric rungs: step up by 4 until a rung fails (or down from a
  // failing reference until one passes), then bisect to one rung.
  std::optional<int> lo;
  std::optional<int> hi;
  if (rungs[0].pass) {
    lo = 0;
    for (int k = 4; k <= 48 && !hi; k += 4) {
      if (run(k)) {
        lo = k;
      } else {
        hi = k;
      }
    }
  } else {
    hi = 0;
    for (int k = -4; k >= -48 && !lo; k -= 4) {
      if (run(k)) {
        lo = k;
      } else {
        hi = k;
      }
    }
  }
  while (lo && hi && *hi - *lo > 1) {
    const int mid = (*lo + *hi) / 2;
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // 0 when no rung met the limits.
  note("max_rate_rps",
       num(lo ? w_.reference_rps * std::pow(kRungRatio, *lo) : 0.0));
  std::string a = "[";
  bool generator_limited = false;
  for (const Rung& r : rungs) {
    if (!r.generator_ok) generator_limited = true;
    a += std::string(a.size() > 1 ? "," : "") + "{\"k\":" +
         std::to_string(r.k) + ",\"rate\":" + num(r.rate) +
         ",\"pass\":" + (r.pass ? "true" : "false") +
         ",\"query_p99_us\":" + num(r.query_p99_us) +
         ",\"achieved_share\":" + num(r.achieved_share) +
         ",\"backlog_mid\":" + std::to_string(r.backlog_mid) +
         ",\"backlog_end\":" + std::to_string(r.backlog_end) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"generator_ok\":" + (r.generator_ok ? "true" : "false") + "}";
  }
  note("ladder", a + "]");
  note("ladder_generator_limited", generator_limited ? "true" : "false");
}

void Run::shape_checks(const Window& win, const FleetDelta& d,
                       const FleetReading& end) {
  const Exposition& W = d.workers;
  const double restores = W.sum("qtserve_restores_total");
  const double reqs = session_requests(W);
  const double hot_hit = reqs > 0 ? 1.0 - restores / reqs : 0.0;
  note("window_hot_hit_ratio", num(hot_hit));
  if (w_.name == "train_bulk") {
    const double evictions = end.workers.sum("qtserve_evictions_total");
    note("run_evictions", num(evictions));
    if (evictions != 0.0) fail("train_bulk evicted a session");
  } else if (w_.name == "train_churn") {
    const double steps = static_cast<double>(win.step_us.size());
    note("window_restores_per_step", num(restores / std::max(1.0, steps)));
    if (restores <= 0.5 * steps) fail("train_churn restored on too few Steps");
  } else if (!(hot_hit > 0.0 && hot_hit < 1.0)) {
    fail("act_zipf hot-hit ratio is not strictly between 0 and 1");
  }
}

void Run::layer_metrics(const Window& win, const FleetDelta& d) {
  const Exposition& W = d.workers;
  const double restores = W.sum("qtserve_restores_total");
  const double reqs = std::max(1.0, session_requests(W));
  const double evictions = W.sum("qtserve_evictions_total");
  const double overloads = W.sum("qtserve_overload_total");
  metrics_["serve.hot_hit_ratio"] = 1.0 - restores / reqs;
  metrics_["serve.restores_per_kreq"] = restores * 1e3 / reqs;
  metrics_["serve.evictions_per_kreq"] = evictions * 1e3 / reqs;
  metrics_["serve.park_kb_per_evict"] =
      evictions > 0 ? W.sum("qtserve_park_bytes_total") / 1024.0 / evictions
                    : 0.0;
  metrics_["serve.overload_frac"] = overloads / (overloads + reqs);
  // The restore and checkpoint phases are left out: train_bulk has none,
  // and runtime.restore_us / runtime.park_*_us time them directly.
  for (const char* phase : {"queue_wait", "execute", "reply"}) {
    metrics_[std::string("serve.") + phase + "_us"] =
        W.histogram_quantile("qtserve_phase_us", 0.5, {{"phase", phase}});
  }
  const double batches = W.sum("qtserve_batch_size_count");
  metrics_["serve.batch_size"] =
      batches > 0 ? W.sum("qtserve_batch_size_sum") / batches : 0.0;
  const double router_reqs =
      std::max(1.0, d.router.sum("qtserve_requests_total"));
  metrics_["shard.checkpoints_per_kreq"] =
      d.router.sum("qtrouter_checkpoints_total") * 1e3 / router_reqs;

  const double ok = static_cast<double>(
      std::max<std::uint64_t>(1, win.tally.ok));
  const double cpu_s = d.router_cpu_s + d.worker_cpu_s;
  metrics_["proc.router_cpu_us_per_req"] = d.router_cpu_s * 1e6 / ok;
  metrics_["proc.worker_cpu_us_per_req"] = d.worker_cpu_s * 1e6 / ok;
  metrics_["proc.sys_share"] = cpu_s > 0 ? d.sys_s / cpu_s : 0.0;
  metrics_["proc.ctxsw_per_req"] = d.ctxsw / ok;
  metrics_["proc.router_rss_mb"] = d.router_hwm_mb;
  metrics_["proc.worker_rss_mb"] = d.worker_hwm_mb;

  metrics_["trace.samples_per_s"] = median(slice_rates(win, kSlices));
  metrics_["trace.step_p50_us"] =
      percentile(win.step_us, 0.5).value.value_or(0.0);

  // Placement skew from the router's Shards probe.
  serve::Request probe;
  probe.type = serve::RequestType::kIntrospect;
  probe.probe = serve::IntrospectProbe::kShards;
  serve::Response resp;
  std::vector<double> per_shard;
  if (client_->conn(0).call(probe, &resp)) {
    const std::string& js = resp.introspect_json;
    std::size_t pos = js.find("\"shards\"");
    while (pos != std::string::npos &&
           (pos = js.find("\"sessions\":", pos + 1)) != std::string::npos) {
      per_shard.push_back(std::strtod(js.c_str() + pos + 11, nullptr));
    }
  }
  double total = 0.0;
  double most = 0.0;
  for (const double n : per_shard) {
    total += n;
    most = std::max(most, n);
  }
  metrics_["shard.sessions_max_over_mean"] =
      total > 0 ? most / (total / static_cast<double>(per_shard.size())) : 0.0;
}

int Run::execute(const std::string& git_sha) {
  std::filesystem::create_directories(out_dir_);
  std::string error;
  if (!launch(trace_ ? 1 : kSetups, &error)) {
    std::cerr << "qtbench: fleet set-up failed: " << error << "\n";
    if (fleet_ != nullptr) teardown();
    return 1;
  }
  std::vector<RequestSpan>* spans = trace_ ? &request_spans_ : nullptr;
  const FleetReading before = read_fleet(*fleet_);
  const Window win =
      w_.open_loop
          ? client_->open_loop(w_.reference_rps, kOpenLoopShare * seconds_,
                               derive_seed(seed_, 1), spans)
          : client_->closed_loop(seconds_, kMinTailSamples, spans);
  const FleetReading after = read_fleet(*fleet_);
  const FleetDelta d = delta(before, after);
  if (!before.scraped || !after.scraped) fail("a /metrics scrape failed");
  tally_.add(win.tally);
  if (!win.problem.empty()) fail(win.problem);
  const Percentile lateness = percentile(win.lateness_us, 0.99);
  double lateness_max = 0.0;
  for (const double l : win.lateness_us) {
    lateness_max = std::max(lateness_max, l);
  }
  note("generator_lateness_p99_us", num(lateness.value.value_or(0.0)));
  note("generator_lateness_max_us", num(lateness_max));
  const bool generator_behind =
      lateness.value.value_or(0.0) > kMaxLatenessUs;

  shape_checks(win, d, after);
  if (trace_) {
    layer_metrics(win, d);
    run_net_probes(*fleet_, tracer_, &metrics_);
  } else {
    window_metrics(win, d);
    if (w_.open_loop) ladder(win);
  }

  Tally gate;
  std::size_t checked = 0;
  const std::string gate_problem = client_->gate(&gate, &checked);
  tally_.add(gate);
  if (!gate_problem.empty()) fail(gate_problem);
  note("gate_sessions_checked", std::to_string(checked));
  teardown();
  if (trace_) {
    std::string probe_problem = run_probes(
        w_, seed_, metrics_["serve.batch_size"], tracer_, &metrics_);
    if (!probe_problem.empty()) fail(probe_problem);
    const std::string span_path = out_dir_ + "/spans.json";
    if (!write_spans(span_path, tracer_, request_spans_)) {
      fail("cannot write " + span_path);
    }
    note("spans_file", json_str(span_path));
    std::string self = "{";
    for (const auto& [name, v] : tracer_.self_times()) {
      self += std::string(self.size() > 1 ? "," : "") + json_str(name) +
              ":{\"self_us\":" + num(v.first) +
              ",\"count\":" + std::to_string(v.second) + "}";
    }
    note("span_self_time", self + "}");
  }
  std::string s = "[";
  for (const std::string& n : stragglers_) {
    s += (s.size() > 1 ? "," : "") + json_str(n);
  }
  note("stragglers_killed", s + "]");

  // Provenance, then everything else, then the result line.
  std::ostringstream prov;
  prov << "{\"git_sha\":" << json_str(git_sha) << ",\"nproc\":"
       << std::thread::hardware_concurrency()
       << ",\"compiler\":" << json_str(QTBENCH_COMPILER)
       << ",\"build_type\":" << json_str(QTBENCH_BUILD_TYPE)
       << ",\"fleet\":" << json_str(fleet_flags_)
       << ",\"workload\":" << json_str(w_.name) << ",\"seed\":" << seed_
       << ",\"seconds\":" << num(seconds_) << ",\"trace\":" << trace_ << "}";

  const MetricDef* defs = trace_ ? kPerLayer : kEndToEnd;
  const std::size_t ndefs =
      trace_ ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics = "{";
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = metrics_.find(defs[i].name);
    const double v = it == metrics_.end() ? 0.0 : it->second;
    if (!valid_metric_name(defs[i].name) || !std::isfinite(v)) {
      fail(std::string("bad metric ") + defs[i].name);
    }
    metrics += std::string(i > 0 ? ", " : "") + json_str(defs[i].name) +
               ": {\"value\": " + num(std::isfinite(v) ? v : 0.0) +
               ", \"unit\": " + json_str(defs[i].unit) + "}";
  }
  metrics += "}";

  std::string details = "{\"provenance\":" + prov.str();
  for (const auto& [k, v] : info_) details += ",\"" + k + "\":" + v;
  details += ",\"ok\":" + std::to_string(tally_.ok) +
             ",\"problem\":" + json_str(problem_) + "}";
  std::ofstream(out_dir_ + "/result.json") << details << "\n"
                                           << metrics << "\n";
  std::cout << "# " << details << "\n";
  for (std::size_t i = 0; i < ndefs; ++i) {
    std::cout << "# " << defs[i].name << " = " << num(metrics_[defs[i].name])
              << " " << defs[i].unit << "\n";
  }
  if (generator_behind) {
    std::cerr << "qtbench: invalid run: the open-loop generator fell behind "
                 "(lateness p99 "
              << lateness.value.value_or(0.0) << " us)\n";
    return 3;
  }
  std::cout << "{\"correct\": " << (problem_.empty() ? "true" : "false")
            << ", \"attempted\": " << tally_.attempted
            << ", \"failed\": " << tally_.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  if (!problem_.empty()) std::cerr << "qtbench: " << problem_ << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  qta::CliFlags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string bin_dir = flags.get_string("bin-dir", "");
  const std::string out_dir = flags.get_string("out-dir", "");
  const std::string git_sha = flags.get_string("git-sha", "unknown");
  for (const auto& unused : flags.unused()) {
    std::cerr << "qtbench: unknown flag --" << unused << "\n";
    return 2;
  }
  const Workload* w = find_workload(name);
  if (w == nullptr || bin_dir.empty() || out_dir.empty() || seconds <= 0) {
    std::cerr << "usage: qtbench --workload=train_bulk|train_churn|act_zipf "
                 "--seed=N --seconds=S --trace=0|1 --bin-dir=DIR "
                 "--out-dir=DIR [--git-sha=SHA]\n";
    return 2;
  }
  Run run(*w, seed, seconds, trace, bin_dir, out_dir);
  return run.execute(git_sha);
}
