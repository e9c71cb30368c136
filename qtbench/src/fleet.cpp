#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "serve/tcp.h"

extern char** environ;

namespace qtbench {
namespace serve = qta::serve;
namespace {

// Readiness: the daemon writes "<port>\n" once its listener is bound.
// Polled every 200 us so set-up time is not quantized by the poll.
bool wait_port_file(const std::string& path, pid_t& pid, std::uint16_t* port,
                    std::string* error) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      *port = static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr,
                                                      10));
      return *port != 0;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      pid = -1;  // reaped
      *error = "daemon exited before publishing " + path;
      return false;
    }
    const timespec nap{0, 200'000};
    ::nanosleep(&nap, nullptr);
  }
  *error = "timed out waiting for " + path;
  return false;
}

std::string join(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& a : args) out += (out.empty() ? "" : " ") + a;
  return out;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  ProcSample out;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t close = line.rfind(')');
  if (close != std::string::npos) {
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream is(line.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && (is >> field); ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
    out.user_s = utime / hz;
    out.sys_s = stime / hz;
  }
  std::ifstream status(base + "/status");
  while (std::getline(status, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    const double v = std::strtod(line.c_str() + colon + 1, nullptr);
    if (key == "VmHWM") out.hwm_mb = v / 1024.0;
    if (key == "voluntary_ctxt_switches" ||
        key == "nonvoluntary_ctxt_switches") {
      out.ctxsw += v;
    }
  }
  return out;
}

Fleet::~Fleet() {
  if (!running_) return;
  for (Daemon* d : all()) {
    if (d->pid > 0) {
      ::kill(d->pid, SIGKILL);
      ::waitpid(d->pid, nullptr, 0);
    }
  }
}

std::vector<Daemon*> Fleet::all() {
  std::vector<Daemon*> out;
  for (Daemon& w : workers_) out.push_back(&w);
  out.push_back(&router_);
  return out;
}

bool Fleet::spawn(Daemon& d, const std::vector<std::string>& args,
                  std::string* error) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string log = options_.run_dir + "/" + d.name + ".log";
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  const int rc = ::posix_spawn(&d.pid, argv[0], &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot spawn " + args[0];
    d.pid = -1;
    return false;
  }
  running_ = true;
  return true;
}

bool Fleet::start(const FleetOptions& options, std::string* error) {
  options_ = options;
  std::filesystem::create_directories(options_.run_dir);
  const std::string dir = options_.run_dir + "/";
  workers_.assign(2, Daemon{});
  std::string shards;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Daemon& w = workers_[i];
    w.name = "qtserved" + std::to_string(i);
    std::remove((dir + w.name + ".port").c_str());
    std::remove((dir + w.name + ".http").c_str());
    worker_args_ = {"--workers=1",
                    "--max-hot=" + std::to_string(options_.max_hot),
                    "--max-queue=" + std::to_string(options_.max_queue)};
    std::vector<std::string> args = {options_.bin_dir + "/qtserved",
                                     "--port=0",
                                     "--port-file=" + dir + w.name + ".port",
                                     "--http-port=0",
                                     "--http-port-file=" + dir + w.name +
                                         ".http"};
    args.insert(args.end(), worker_args_.begin(), worker_args_.end());
    if (!spawn(w, args, error)) return false;
  }
  for (Daemon& w : workers_) {
    if (!wait_port_file(dir + w.name + ".port", w.pid, &w.port, error) ||
        !wait_port_file(dir + w.name + ".http", w.pid, &w.http_port,
                        error)) {
      return false;
    }
    shards += (shards.empty() ? "" : ",") + std::string("127.0.0.1:") +
              std::to_string(w.port);
  }
  router_.name = "qtrouterd";
  std::remove((dir + "qtrouterd.port").c_str());
  std::remove((dir + "qtrouterd.http").c_str());
  std::vector<std::string> args = {options_.bin_dir + "/qtrouterd",
                                   "--shards=" + shards, "--port=0",
                                   "--port-file=" + dir + "qtrouterd.port",
                                   "--http-port=0",
                                   "--http-port-file=" + dir +
                                       "qtrouterd.http"};
  if (!spawn(router_, args, error)) return false;
  return wait_port_file(dir + "qtrouterd.port", router_.pid, &router_.port,
                        error) &&
         wait_port_file(dir + "qtrouterd.http", router_.pid,
                        &router_.http_port, error);
}

std::vector<std::string> Fleet::stop() {
  std::vector<std::string> stragglers;
  if (!running_) return stragglers;
  {
    Conn conn;
    if (conn.open(router_.port)) {
      const timeval timeout{5, 0};
      ::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
      serve::Request req;
      req.type = serve::RequestType::kShutdown;
      serve::Response resp;
      (void)conn.call(req, &resp);
    }
  }
  // A clean exit takes milliseconds; one shared grace period for all.
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  std::vector<Daemon*> alive;
  for (Daemon* d : all()) {
    if (d->pid > 0) alive.push_back(d);
  }
  while (true) {
    std::erase_if(alive, [](Daemon* d) {
      if (::waitpid(d->pid, nullptr, WNOHANG) != d->pid) return false;
      d->pid = -1;
      return true;
    });
    if (alive.empty() || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (Daemon* d : alive) {
    ::kill(d->pid, SIGKILL);
    ::waitpid(d->pid, nullptr, 0);
    d->pid = -1;
    stragglers.push_back(d->name);
  }
  running_ = false;
  return stragglers;
}

std::string Fleet::describe() const {
  return "qtrouterd (defaults: --checkpoint-every=64 --vnodes=64, no "
         "migration/rebalance) + 2 x qtserved " +
         join(worker_args_);
}

Conn::~Conn() {
  if (fd_ >= 0) serve::tcp_close(fd_);
}

bool Conn::open(std::uint16_t port) {
  fd_ = serve::tcp_connect("127.0.0.1", port, &error_);
  return fd_ >= 0;
}

bool Conn::send(const serve::Request& req) {
  return serve::send_frame(fd_, serve::encode_request(req), &error_);
}

bool Conn::recv(serve::Response* resp) {
  std::string payload;
  if (!serve::recv_frame(fd_, &payload, &error_)) return false;
  std::optional<serve::Response> decoded =
      serve::decode_response(payload, &error_);
  if (!decoded.has_value()) return false;
  *resp = std::move(*decoded);
  return true;
}

bool Conn::call(const serve::Request& req, serve::Response* resp) {
  return send(req) && recv(resp);
}

}  // namespace qtbench
