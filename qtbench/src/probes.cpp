#include "probes.h"

#include <cmath>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "common/thread_pool.h"
#include "env/grid_world.h"
#include "runtime/engine.h"
#include "runtime/lane_coalescer.h"
#include "runtime/snapshot.h"
#include "serve/server.h"
#include "shard/router.h"

namespace qtbench {
namespace serve = qta::serve;
namespace shard = qta::shard;
namespace runtime = qta::runtime;
namespace {

qta::env::GridWorldConfig grid_of(const Workload& w) {
  qta::env::GridWorldConfig gc;
  gc.width = w.width;
  gc.height = w.height;
  gc.num_actions = w.actions;
  return gc;
}

// Median seconds per call of fn over five batches, each sized (by
// doubling) to last at least min_batch_s. One span per batch.
double per_call_s(Tracer& tracer, const char* name,
                  const std::function<void()>& fn,
                  double min_batch_s = 0.02) {
  std::uint64_t n = 1;
  std::vector<double> per_call;
  while (per_call.size() < 5) {
    double dt = 0.0;
    {
      const Tracer::Scope span(tracer, name);
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t i = 0; i < n; ++i) fn();
      dt = seconds_since(t0);
    }
    if (per_call.empty() && dt < min_batch_s) {
      n *= 2;
      continue;
    }
    per_call.push_back(dt / static_cast<double>(n));
  }
  return median(per_call);
}

class ReplayHost : public shard::RouterHost {
 public:
  void send_to_client(shard::ClientId, std::string payload) override {
    to_client.push_back(std::move(payload));
  }
  void send_to_shard(shard::ShardId id, std::string payload) override {
    to_shard.emplace_back(id, std::move(payload));
  }
  std::vector<std::string> to_client;
  std::deque<std::pair<shard::ShardId, std::string>> to_shard;
};

// The in-process replay: client requests go through the codec and the
// Router; the Router's shard traffic goes to two in-process Servers
// shaped like the fleet's workers. Requests go kConnections at
// a time, like the fleet client's connections.
class Replay {
 public:
  Replay(const Workload& w, Tracer& tracer)
      : tracer_(tracer), router_(shard::RouterOptions{}, &host_) {
    serve::ServerOptions options;
    options.workers = 1;
    options.max_hot = w.max_hot;
    options.max_queue = w.max_queue;
    for (shard::ShardId id = 0; id < 2; ++id) {
      servers_.push_back(std::make_unique<serve::Server>(options));
      router_.add_shard(id);
    }
  }

  /// Sends `reqs` as one group and returns their replies in order.
  std::vector<serve::Response> send_group(
      const std::vector<serve::Request>& reqs) {
    for (const serve::Request& req : reqs) {
      std::string payload;
      {
        const Tracer::Scope span(tracer_, "codec.encode_request");
        payload = serve::encode_request(req);
      }
      const Tracer::Scope span(tracer_, "Router::on_client_payload");
      router_.on_client_payload(1, std::move(payload));
    }
    requests_ += reqs.size();
    drive();
    std::vector<serve::Response> out;
    for (std::string& payload : host_.to_client) {
      const Tracer::Scope span(tracer_, "codec.decode_response");
      std::optional<serve::Response> resp = serve::decode_response(payload);
      if (!resp.has_value()) {
        problem_ = "in-process replay: undecodable reply";
        continue;
      }
      out.push_back(std::move(*resp));
    }
    host_.to_client.clear();
    if (out.size() != reqs.size() && problem_.empty()) {
      problem_ = "in-process replay: reply count mismatch";
    }
    return out;
  }

  std::uint64_t requests() const { return requests_; }
  const std::string& problem() const { return problem_; }

 private:
  void drive() {
    bool progress = true;
    while (progress) {
      progress = false;
      while (!host_.to_shard.empty()) {
        auto [id, payload] = std::move(host_.to_shard.front());
        host_.to_shard.pop_front();
        std::optional<serve::Request> req;
        {
          const Tracer::Scope span(tracer_, "codec.decode_request");
          req = serve::decode_request(payload);
        }
        if (!req.has_value()) {
          problem_ = "in-process replay: undecodable shard request";
          return;
        }
        const Tracer::Scope span(tracer_, "Server::submit");
        tickets_[id].push_back(servers_[id]->submit(*req));
        progress = true;
      }
      for (shard::ShardId id = 0; id < 2; ++id) {
        if (!servers_[id]->pending()) continue;
        const Tracer::Scope span(tracer_, "Server::pump");
        servers_[id]->pump();
        progress = true;
      }
      for (shard::ShardId id = 0; id < 2; ++id) {
        while (!tickets_[id].empty() &&
               servers_[id]->done(tickets_[id].front())) {
          serve::Response resp;
          {
            const Tracer::Scope span(tracer_, "Server::take");
            resp = servers_[id]->take(tickets_[id].front());
          }
          tickets_[id].pop_front();
          std::string payload;
          {
            const Tracer::Scope span(tracer_, "codec.encode_response");
            payload = serve::encode_response(resp);
          }
          const Tracer::Scope span(tracer_, "Router::on_shard_payload");
          router_.on_shard_payload(id, std::move(payload));
          progress = true;
        }
      }
    }
  }

  Tracer& tracer_;
  ReplayHost host_;
  std::vector<std::unique_ptr<serve::Server>> servers_;
  std::deque<serve::Ticket> tickets_[2];
  shard::Router router_;
  std::uint64_t requests_ = 0;
  std::string problem_;
};

// Replays the workload's generated stream in-process: session creation,
// the warm-up pass, then the workload's own request mix.
std::string replay_stream(const Workload& w, std::uint64_t seed,
                          Tracer& tracer, Metrics* out) {
  const Tracer::Scope root(tracer, "probe.replay");
  Client gen(w, seed);  // only for the seeded session specs
  std::vector<SessionLog> sessions = gen.sessions();
  Replay replay(w, tracer);
  auto run_groups = [&](const std::vector<serve::Request>& all,
                        const std::function<bool(std::size_t,
                                                 const serve::Response&)>&
                            on_reply) {
    for (std::size_t i = 0; i < all.size(); i += kConnections) {
      const std::size_t end = std::min(all.size(), i + kConnections);
      const std::vector<serve::Request> group(
          all.begin() + static_cast<std::ptrdiff_t>(i),
          all.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<serve::Response> replies = replay.send_group(group);
      for (std::size_t j = 0; j < replies.size(); ++j) {
        if (replies[j].status != serve::Status::kOk ||
            !on_reply(i + j, replies[j])) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<serve::Request> reqs;
  for (const SessionLog& s : sessions) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = s.spec;
    reqs.push_back(req);
  }
  if (!run_groups(reqs, [&](std::size_t i, const serve::Response& r) {
        sessions[i].id = r.session;
        return true;
      })) {
    return "in-process replay: session creation failed";
  }
  reqs.clear();
  for (const SessionLog& s : sessions) {
    serve::Request req;
    req.type = serve::RequestType::kStep;
    req.session = s.id;
    req.steps = w.step_samples;
    reqs.push_back(req);
  }
  // The workload's own mix: rounds of Steps for the closed loops (about
  // 64 Steps), the open-loop draw for act_zipf.
  if (w.open_loop) {
    OpenStream stream(w, derive_seed(seed, 1));
    for (int i = 0; i < 4096; ++i) {
      serve::Request req;
      stream.next(sessions, &req);
      reqs.push_back(req);
    }
  } else {
    const std::size_t rounds = std::max<std::size_t>(1, 64 / sessions.size());
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const SessionLog& s : sessions) {
        serve::Request req;
        req.type = serve::RequestType::kStep;
        req.session = s.id;
        req.steps = w.step_samples;
        reqs.push_back(req);
      }
    }
  }
  const bool ok = run_groups(reqs, [&](std::size_t i,
                                       const serve::Response& r) {
    if (reqs[i].type == serve::RequestType::kQuery) {
      return r.q_row.size() == w.actions && r.action < w.actions;
    }
    return r.samples >= reqs[i].steps;
  });
  if (!ok) return "in-process replay: a request failed or a reply was bad";
  if (!replay.problem().empty()) return replay.problem();

  const double route_us = tracer.total("Router::on_client_payload").first +
                          tracer.total("Router::on_shard_payload").first;
  (*out)["shard.route_ns_per_req"] =
      route_us * 1e3 / static_cast<double>(replay.requests());
  (*out)["serve.pump_us"] = median(tracer.durations("Server::pump"));
  return "";
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span s;
  s.id = static_cast<std::uint32_t>(index_ + 1);
  s.parent = tracer.stack_.empty() ? 0 : tracer.stack_.back();
  s.name = name;
  s.start_us = us_between(tracer.epoch_, Clock::now());
  tracer.spans_.push_back(s);
  tracer.stack_.push_back(s.id);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_us = us_between(tracer_.epoch_, Clock::now());
  tracer_.stack_.pop_back();
}

std::map<std::string, std::pair<double, std::uint64_t>> Tracer::self_times()
    const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const Span& s : spans_) {
    auto& [self, count] = out[s.name];
    self += (s.end_us - s.start_us) - child_us[s.id];
    ++count;
  }
  return out;
}

std::pair<double, std::uint64_t> Tracer::total(const std::string& name) const {
  std::pair<double, std::uint64_t> out{0.0, 0};
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.first += s.end_us - s.start_us;
      ++out.second;
    }
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::string run_probes(const Workload& w, std::uint64_t seed,
                       double batch_size, Tracer& tracer, Metrics* out) {
  const qta::env::GridWorld world(grid_of(w));
  const qta::qtaccel::PipelineConfig fast_cfg =
      serve::make_config(session_spec(w, seed));

  {
    const Tracer::Scope root(tracer, "probe.qtaccel");
    runtime::Engine engine(world, fast_cfg);
    (*out)["qtaccel.fast_ns_per_sample"] =
        per_call_s(tracer, "Engine::run_samples", [&] {
          engine.run_samples(engine.stats().samples + w.step_samples);
        }, 0.05) * 1e9 / static_cast<double>(w.step_samples);

    // Eight compatible lanes sessions of train_bulk's shape, whatever
    // the workload: the guard for merging the two replay kernels.
    const Workload& bulk = *find_workload("train_bulk");
    const qta::env::GridWorld bulk_world(grid_of(bulk));
    std::vector<std::unique_ptr<runtime::Engine>> lanes;
    std::vector<runtime::Engine*> lane_ptrs;
    for (std::uint64_t i = 0; i < 8; ++i) {
      lanes.push_back(std::make_unique<runtime::Engine>(
          bulk_world,
          serve::make_config(session_spec(bulk, derive_seed(seed, 5'000 + i),
                                          qta::qtaccel::Backend::kLanes))));
      lane_ptrs.push_back(lanes.back().get());
    }
    runtime::LaneGroupRunner group(lane_ptrs);
    const std::vector<std::uint64_t> steps(8, bulk.step_samples);
    (*out)["qtaccel.lanes8_ns_per_sample"] =
        per_call_s(tracer, "LaneGroupRunner::run_steps",
                   [&] { group.run_steps(steps); }, 0.05) *
        1e9 / static_cast<double>(8 * bulk.step_samples);
  }

  {
    const Tracer::Scope root(tracer, "probe.runtime");
    (*out)["runtime.engine_build_us"] =
        per_call_s(tracer, "Engine::Engine", [&] {
          const qta::env::GridWorld env(grid_of(w));
          const runtime::Engine engine(env, fast_cfg);
        }) * 1e6;

    // A parked session's chain: a v3 full image after one workload
    // Step, then one dirty-row delta per further Step. Two deltas is
    // the typical chain under --max-delta-chain=4 (lengths cycle 0..4).
    runtime::Engine engine(world, fast_cfg);
    auto step = [&] {
      engine.run_samples(engine.stats().samples + w.step_samples);
    };
    step();
    std::string full;
    (*out)["runtime.park_full_us"] =
        per_call_s(tracer, "save_snapshot_v3", [&] {
          std::ostringstream os;
          runtime::save_snapshot_v3(engine, os);
          full = std::move(os).str();
        }) * 1e6;
    std::vector<std::string> deltas;
    double delta_us = 0.0;
    for (int d = 0; d < 2; ++d) {
      engine.reset_dirty_rows();
      step();
      std::string delta;
      delta_us += per_call_s(tracer, "write_snapshot_delta", [&] {
        std::ostringstream os;
        runtime::write_snapshot_delta(os, engine.config(),
                                      engine.environment(),
                                      engine.save_state());
        delta = std::move(os).str();
      }) * 1e6;
      deltas.push_back(std::move(delta));
    }
    (*out)["runtime.park_delta_us"] = delta_us / 2.0;
    (*out)["runtime.full_kb"] = static_cast<double>(full.size()) / 1024.0;
    (*out)["runtime.delta_kb"] =
        static_cast<double>(deltas[0].size() + deltas[1].size()) / 2048.0;

    runtime::Engine restored(world, fast_cfg);
    (*out)["runtime.restore_us"] =
        per_call_s(tracer, "restore_chain", [&] {
          std::istringstream is(full);
          qta::qtaccel::MachineState ms =
              runtime::read_snapshot(is, fast_cfg, world);
          for (const std::string& delta : deltas) {
            std::istringstream ds(delta);
            runtime::apply_snapshot_delta(ds, fast_cfg, world, ms);
          }
          restored.load_state(ms);
        }) * 1e6;
    std::ostringstream a;
    std::ostringstream b;
    runtime::save_snapshot_v3(engine, a);
    runtime::save_snapshot_v3(restored, b);
    if (a.str() != b.str()) return "restore probe: chain does not round-trip";
  }

  {
    const Tracer::Scope root(tracer, "probe.serve");
    // The workload's request/reply mix, as the wire carries it.
    std::vector<serve::Request> reqs;
    std::vector<serve::Response> resps;
    const int queries = w.open_loop
                            ? static_cast<int>(std::lround(w.query_frac * 10))
                            : 5;
    for (int i = 0; i < 10; ++i) {
      serve::Request req;
      serve::Response resp;
      req.session = resp.session = 1 + static_cast<std::uint64_t>(i);
      req.type = resp.type = i < queries ? serve::RequestType::kQuery
                                         : serve::RequestType::kStep;
      req.steps = w.step_samples;
      req.state = static_cast<qta::StateId>(i);
      resp.samples = 1'000'000 + w.step_samples * static_cast<unsigned>(i);
      resp.episodes = 1'000;
      resp.cycles = 2'000'000;
      if (req.type == serve::RequestType::kQuery) {
        resp.q_row.assign(w.actions, 0.125 * i);
        resp.action = 1;
      }
      reqs.push_back(req);
      resps.push_back(resp);
    }
    std::size_t sink = 0;
    (*out)["serve.codec_ns_per_req"] =
        per_call_s(tracer, "codec.encode_decode", [&] {
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            sink += serve::decode_request(serve::encode_request(reqs[i]))
                        ->session;
            sink += serve::decode_response(serve::encode_response(resps[i]))
                        ->samples;
          }
        }) * 1e9 / static_cast<double>(reqs.size());
    if (sink == 0) return "codec probe: nothing decoded";

    qta::ThreadPool pool(1);
    const auto items = static_cast<std::size_t>(
        std::max(1.0, std::round(batch_size)));
    (*out)["pool.dispatch_us"] =
        per_call_s(tracer, "ThreadPool::parallel_for", [&] {
          pool.parallel_for(items, [](std::size_t) {});
        }) * 1e6;
  }

  return replay_stream(w, seed, tracer, out);
}

void run_net_probes(const Fleet& fleet, Tracer& tracer, Metrics* out) {
  const Tracer::Scope root(tracer, "probe.net");
  serve::Request ping;
  ping.type = serve::RequestType::kPing;
  serve::Response resp;
  {
    Conn conn;
    std::vector<double> rtt;
    if (conn.open(fleet.router().port)) {
      for (int i = 0; i < 2000; ++i) {
        const Clock::time_point t0 = Clock::now();
        if (!conn.call(ping, &resp)) break;
        rtt.push_back(us_between(t0, Clock::now()));
      }
    }
    (*out)["net.ping_rtt_us"] =
        percentile(rtt, 0.5).value.value_or(0.0);
  }
  {
    // Eight Pings written back to back to one worker, then eight reads.
    // A burst slower than 10 ms waited on a delayed ACK.
    Conn conn;
    int stalls = 0;
    constexpr int kBursts = 50;
    if (conn.open(fleet.workers()[0].port)) {
      for (int b = 0; b < kBursts; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 8; ++i) (void)conn.send(ping);
        for (int i = 0; i < 8; ++i) (void)conn.recv(&resp);
        if (seconds_since(t0) > 0.010) ++stalls;
      }
    }
    (*out)["net.burst8_stall_frac"] = stalls / static_cast<double>(kBursts);
  }
}

bool write_spans(const std::string& path, const Tracer& tracer,
                 const std::vector<RequestSpan>& requests) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const RequestSpan& r : requests) {
    sep();
    os << "{\"name\":\""
       << serve::request_type_name(static_cast<serve::RequestType>(r.type))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.conn
       << ",\"ts\":" << r.start_us << ",\"dur\":" << r.end_us - r.start_us
       << ",\"args\":{\"seq\":" << r.seq << "}}";
  }
  for (const Tracer::Span& s : tracer.spans()) {
    sep();
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":2,\"tid\":1"
       << ",\"ts\":" << s.start_us << ",\"dur\":" << s.end_us - s.start_us
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace qtbench
