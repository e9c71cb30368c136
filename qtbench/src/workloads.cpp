#include "workloads.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "env/grid_world.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "stats.h"

namespace qtbench {
namespace serve = qta::serve;
namespace {

// Why each workload exists is recorded in qtbench/README.md.
const Workload kWorkloads[] = {
    {.name = "train_bulk", .sessions = 8, .width = 256, .height = 256,
     .actions = 8, .step_samples = 262'144, .max_hot = 8},
    {.name = "train_churn", .sessions = 64, .width = 64, .height = 64,
     .actions = 4, .step_samples = 4'096, .max_hot = 8},
    {.name = "act_zipf", .sessions = 2048, .width = 16, .height = 16,
     .actions = 4, .step_samples = 64, .max_hot = 32, .max_queue = 4096,
     .open_loop = true, .zipf_s = 1.0, .query_frac = 0.8,
     .reference_rps = 4000.0},
};

// Seed tags: every generated stream derives from the run seed and one
// of these, so streams stay independent and repeat for a given seed.
constexpr std::uint64_t kTagSpec = 1'000;
constexpr std::uint64_t kTagGate = 3'000;

// The reply checks shared by both loops. Returns "" when the reply is
// well formed; otherwise what is wrong with it.
std::string check_step(const serve::Response& resp, const SessionLog& s,
                       std::uint64_t steps) {
  if (resp.samples < s.samples + steps) {
    std::ostringstream os;
    os << "session " << s.id << " retired " << resp.samples
       << " samples, expected at least " << s.samples + steps;
    return os.str();
  }
  return "";
}

std::string check_query(const serve::Response& resp, const SessionLog& s) {
  if (resp.q_row.size() != s.spec.actions || resp.action >= s.spec.actions) {
    return "session " + std::to_string(s.id) +
           ": Query reply has a malformed Q row or action";
  }
  return "";
}

// Applies one reply to the session log and window. A reply that breaks
// a correctness check counts as failed and is recorded in w.problem.
void account(const serve::Request& req, const serve::Response& resp,
             double latency_us, double at_s, SessionLog& s, Window& w) {
  ++w.tally.attempted;
  if (resp.status != serve::Status::kOk) {
    ++w.tally.failed;
    return;
  }
  std::string problem;
  if (req.type == serve::RequestType::kStep) {
    problem = check_step(resp, s, req.steps);
    if (problem.empty()) {
      w.samples += resp.samples - s.samples;
      w.retired.emplace_back(at_s, resp.samples - s.samples);
      s.samples = resp.samples;
      s.steps.push_back(req.steps);
      w.step_us.push_back(latency_us);
    }
  } else {
    problem = check_query(resp, s);
    if (problem.empty()) w.query_us.push_back(latency_us);
  }
  if (!problem.empty()) {
    ++w.tally.failed;
    if (w.problem.empty()) w.problem = problem;
    return;
  }
  ++w.tally.ok;
  ++s.touches;
}

void merge_into(Window& into, Window&& from) {
  into.samples += from.samples;
  into.tally.add(from.tally);
  into.step_us.insert(into.step_us.end(), from.step_us.begin(),
                      from.step_us.end());
  into.query_us.insert(into.query_us.end(), from.query_us.begin(),
                       from.query_us.end());
  into.retired.insert(into.retired.end(), from.retired.begin(),
                      from.retired.end());
  if (into.problem.empty()) into.problem = std::move(from.problem);
}

std::string replay_snapshot(const SessionLog& s) {
  qta::env::GridWorldConfig gc;
  gc.width = s.spec.width;
  gc.height = s.spec.height;
  gc.num_actions = s.spec.actions;
  qta::env::GridWorld world(gc);
  qta::runtime::Engine replay(world, serve::make_config(s.spec));
  for (const std::uint64_t n : s.steps) {
    replay.run_samples(replay.stats().samples + n);
  }
  if (replay.stats().samples != s.samples) return "";
  std::ostringstream os;
  qta::runtime::save_snapshot(replay, os);
  return std::move(os).str();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<double> slice_rates(const Window& w, int parts) {
  std::vector<double> slices(static_cast<std::size_t>(parts), 0.0);
  const double width = w.wall_s / parts;
  for (const auto& [at, samples] : w.retired) {
    const auto i = std::min<std::size_t>(static_cast<std::size_t>(at / width),
                                         slices.size() - 1);
    slices[i] += static_cast<double>(samples);
  }
  for (double& v : slices) v /= width;
  return slices;
}

void run_parallel(unsigned n, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> helpers;
  for (unsigned k = 1; k < n; ++k) helpers.emplace_back(fn, k);
  fn(0);
  for (std::thread& t : helpers) t.join();
}

OpenStream::OpenStream(const Workload& workload, std::uint64_t stream_seed)
    : workload_(workload),
      zipf_(workload.sessions, workload.zipf_s),
      rng_(derive_seed(stream_seed, 2)) {}

std::size_t OpenStream::next(const std::vector<SessionLog>& sessions,
                             serve::Request* req) {
  const std::size_t i = zipf_.draw(rng_);
  *req = serve::Request{};
  req->session = sessions[i].id;
  if (rng_.uniform() < workload_.query_frac) {
    req->type = serve::RequestType::kQuery;
    req->state = static_cast<qta::StateId>(
        rng_.below(std::uint64_t{workload_.width} * workload_.height));
  } else {
    req->type = serve::RequestType::kStep;
    req->steps = workload_.step_samples;
  }
  return i;
}

serve::SessionSpec session_spec(const Workload& workload, std::uint64_t seed,
                                qta::qtaccel::Backend backend) {
  serve::SessionSpec spec;
  spec.width = workload.width;
  spec.height = workload.height;
  spec.actions = workload.actions;
  spec.algorithm = qta::qtaccel::Algorithm::kQLearning;
  spec.backend = backend;
  spec.seed = seed | 1u;
  return spec;
}

Client::Client(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), epoch_(Clock::now()) {
  sessions_.resize(workload_.sessions);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    sessions_[i].spec =
        session_spec(workload_, derive_seed(seed_, kTagSpec + i));
  }
}

bool Client::setup(std::uint16_t router_port, std::string* error) {
  for (Conn& c : conns_) {
    if (!c.open(router_port)) {
      *error = "connect: " + c.error();
      return false;
    }
  }
  for (SessionLog& s : sessions_) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = s.spec;
    serve::Response resp;
    if (!conns_[0].call(req, &resp) || resp.status != serve::Status::kOk) {
      *error = "create session: " + conns_[0].error() + resp.error;
      return false;
    }
    s.id = resp.session;
  }
  std::string problems[kConnections];
  run_parallel(kConnections, [&](unsigned k) {
    for (std::size_t i = k; i < sessions_.size(); i += kConnections) {
      SessionLog& s = sessions_[i];
      serve::Request req;
      req.type = serve::RequestType::kStep;
      req.session = s.id;
      req.steps = workload_.step_samples;
      serve::Response resp;
      if (!conns_[k].call(req, &resp) || resp.status != serve::Status::kOk) {
        problems[k] = "warm-up step: " + conns_[k].error() + resp.error;
        return;
      }
      const std::string bad = check_step(resp, s, req.steps);
      if (!bad.empty()) {
        problems[k] = bad;
        return;
      }
      s.samples = resp.samples;
      s.steps.push_back(req.steps);
      ++s.touches;
    }
  });
  for (const std::string& p : problems) {
    if (!p.empty()) {
      *error = p;
      return false;
    }
  }
  return true;
}

Window Client::closed_loop(double seconds, std::size_t min_steps,
                          std::vector<RequestSpan>* spans) {
  Window parts[kConnections];
  std::vector<RequestSpan> span_parts[kConnections];
  Clock::time_point ends[kConnections];
  const Clock::time_point t0 = Clock::now();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> completed{0};
  auto more = [&] {
    const Clock::time_point now = Clock::now();
    return now < t0 + window ||
           (completed.load(std::memory_order_relaxed) < min_steps &&
            now < t0 + 3 * window);
  };
  run_parallel(kConnections, [&](unsigned k) {
    Window& w = parts[k];
    std::vector<std::size_t> mine;
    for (std::size_t i = k; i < sessions_.size(); i += kConnections) {
      mine.push_back(i);
    }
    for (std::size_t n = 0; more() && !mine.empty(); ++n) {
      SessionLog& s = sessions_[mine[n % mine.size()]];
      serve::Request req;
      req.type = serve::RequestType::kStep;
      req.session = s.id;
      req.steps = workload_.step_samples;
      serve::Response resp;
      const Clock::time_point ts = Clock::now();
      if (!conns_[k].call(req, &resp)) {
        w.problem = "connection " + std::to_string(k) + ": " +
                    conns_[k].error();
        ++w.tally.attempted;
        ++w.tally.failed;
        break;
      }
      const Clock::time_point te = Clock::now();
      account(req, resp, us_between(ts, te),
              std::chrono::duration<double>(te - t0).count(), s, w);
      completed.fetch_add(1, std::memory_order_relaxed);
      if (spans != nullptr) {
        span_parts[k].push_back({k, n, static_cast<std::uint8_t>(req.type),
                                 us_between(epoch_, ts),
                                 us_between(epoch_, te)});
      }
    }
    ends[k] = Clock::now();
  });
  Window out;
  Clock::time_point end = t0;
  for (unsigned k = 0; k < kConnections; ++k) {
    end = std::max(end, ends[k]);
    merge_into(out, std::move(parts[k]));
    if (spans != nullptr) {
      spans->insert(spans->end(), span_parts[k].begin(), span_parts[k].end());
    }
  }
  out.wall_s = std::chrono::duration<double>(end - t0).count();
  return out;
}

Window Client::open_loop(double rate, double seconds, std::uint64_t stream_seed,
                         std::vector<RequestSpan>* spans) {
  Window w;
  const std::vector<std::uint64_t> due =
      poisson_schedule(rate, seconds, derive_seed(stream_seed, 1));
  OpenStream stream(workload_, stream_seed);
  struct Pending {
    serve::Request req;
    std::size_t session;
    std::uint64_t due_ns;
  };
  std::deque<Pending> fifo[kConnections];
  std::string inbuf[kConnections];
  std::uint64_t seq[kConnections] = {};
  std::size_t outstanding = 0;

  // Start slightly in the future so the first due times are not late.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto now_ns = [&] {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
               .count()));
  };
  const auto on_time_ns =
      static_cast<std::uint64_t>(seconds * 1e9) + 10'000'000ull;
  const std::uint64_t drain_limit_ns =
      static_cast<std::uint64_t>(seconds * 1e9) + 30'000'000'000ull;
  // Requests still in flight when the loop gives up count as failed.
  auto abandon = [&](std::string why) {
    w.problem = std::move(why);
    w.tally.attempted += outstanding;
    w.tally.failed += outstanding;
    return w;
  };
  std::size_t next = 0;
  bool mid_sampled = false;
  while (next < due.size() || outstanding > 0) {
    std::uint64_t now = now_ns();
    if (now > drain_limit_ns) {
      return abandon("replies still outstanding 30 s after the window");
    }
    while (next < due.size() && due[next] <= now) {
      Pending p;
      p.session = stream.next(sessions_, &p.req);
      p.due_ns = due[next];
      const unsigned c = conn_of(p.session);
      w.lateness_us.push_back(static_cast<double>(now - p.due_ns) / 1e3);
      if (!conns_[c].send(p.req)) {
        return abandon("send: " + conns_[c].error());
      }
      fifo[c].push_back(std::move(p));
      ++outstanding;
      ++next;
      if (!mid_sampled && next >= due.size() / 2) {
        w.backlog_mid = outstanding;
        mid_sampled = true;
      }
      if (next == due.size()) w.backlog_end = outstanding;
      now = now_ns();
    }
    // Sleep in ppoll until a reply arrives or the next request is due
    // (no spinning: a spinning client steals a core from the fleet).
    const std::int64_t wait_ns =
        next < due.size() ? static_cast<std::int64_t>(due[next] - now)
                          : 1'000'000;
    pollfd fds[kConnections];
    for (unsigned c = 0; c < kConnections; ++c) {
      fds[c] = {conns_[c].fd(), POLLIN, 0};
    }
    const timespec ts{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
    if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) continue;
    for (unsigned c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[65536];
      while (true) {
        const ssize_t r = ::recv(conns_[c].fd(), chunk, sizeof(chunk),
                                 MSG_DONTWAIT);
        if (r > 0) {
          inbuf[c].append(chunk, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          return abandon("connection " + std::to_string(c) + " closed");
        }
        break;
      }
      const std::uint64_t recv_ns = now_ns();
      while (true) {
        std::optional<std::string> payload = serve::unframe(inbuf[c]);
        if (!payload.has_value()) break;
        std::optional<serve::Response> resp =
            serve::decode_response(*payload);
        if (!resp.has_value() || fifo[c].empty()) {
          return abandon("undecodable or unexpected reply");
        }
        Pending p = std::move(fifo[c].front());
        fifo[c].pop_front();
        --outstanding;
        const double latency_us =
            static_cast<double>(recv_ns - p.due_ns) / 1e3;
        if (recv_ns <= on_time_ns) ++w.answered_on_time;
        account(p.req, *resp, latency_us, static_cast<double>(recv_ns) / 1e9,
                sessions_[p.session], w);
        if (spans != nullptr) {
          const double base = us_between(epoch_, t0);
          spans->push_back({c, seq[c], static_cast<std::uint8_t>(p.req.type),
                            base + static_cast<double>(p.due_ns) / 1e3,
                            base + static_cast<double>(recv_ns) / 1e3});
        }
        ++seq[c];
      }
    }
  }
  w.wall_s = static_cast<double>(now_ns()) / 1e9;
  return w;
}

std::string Client::gate(Tally* tally, std::size_t* checked) {
  // The 16 most-touched sessions (ties to the lower index), then 16
  // more drawn by the seed.
  std::vector<std::size_t> order(sessions_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return sessions_[a].touches > sessions_[b].touches;
  });
  std::set<std::size_t> picked(order.begin(),
                               order.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min<std::size_t>(
                                                       16, order.size())));
  Rng rng(derive_seed(seed_, kTagGate));
  const std::size_t want = std::min<std::size_t>(32, sessions_.size());
  while (picked.size() < want) picked.insert(rng.below(sessions_.size()));
  const std::vector<std::size_t> sample(picked.begin(), picked.end());

  std::vector<std::string> remote(sample.size());
  for (std::size_t j = 0; j < sample.size(); ++j) {
    const std::size_t i = sample[j];
    serve::Request req;
    req.type = serve::RequestType::kSnapshot;
    req.session = sessions_[i].id;
    serve::Response resp;
    ++tally->attempted;
    if (!conns_[conn_of(i)].call(req, &resp) ||
        resp.status != serve::Status::kOk) {
      ++tally->failed;
      return "snapshot of session " + std::to_string(sessions_[i].id) +
             " failed: " + conns_[conn_of(i)].error() + resp.error;
    }
    ++tally->ok;
    remote[j] = std::move(resp.snapshot);
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex mu;
  std::string problem;
  run_parallel(kConnections, [&](unsigned) {
    for (std::size_t j = cursor++; j < sample.size(); j = cursor++) {
      const SessionLog& s = sessions_[sample[j]];
      if (replay_snapshot(s) != remote[j]) {
        const std::lock_guard<std::mutex> lock(mu);
        problem = "session " + std::to_string(s.id) +
                  ": fleet snapshot differs from the local replay";
      }
    }
  });
  *checked = sample.size();
  return problem;
}

}  // namespace qtbench
