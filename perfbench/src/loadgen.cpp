#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr long kReload = -1;  ///< pending-queue marker of a reload line

struct Pending {
  long index = 0;  ///< tape position, or kReload
  double due_s = 0.0;
};

/// One client connection; closes its socket on destruction. A `tuned`
/// connection sets TCP_NODELAY and acknowledges every reply at once; an
/// untuned one keeps the kernel's default socket options.
class Connection {
 public:
  Connection(int port, bool tuned) : tuned_(tuned) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("loadgen: connect failed: " + err);
    }
    if (tuned_) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    quick_ack();
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  /// Acknowledge received replies at once. The server does not set
  /// TCP_NODELAY, so with the kernel's delayed ACK a reply written while
  /// the previous one is unacknowledged waits in the server's Nagle buffer
  /// for up to the delayed-ACK timeout. Linux clears the flag after use,
  /// so it is re-armed after every read.
  void quick_ack() {
    if (!tuned_) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  std::string out;  ///< bytes queued for sending
  std::size_t out_pos = 0;
  std::string in;   ///< received bytes not yet split into lines
  std::deque<Pending> pending;

  /// Send as much queued output as the socket takes now.
  void flush() {
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("loadgen: send failed");
      }
      out_pos += static_cast<std::size_t>(n);
    }
    out.clear();
    out_pos = 0;
  }

  /// Read whatever has arrived; false once the peer closed.
  bool receive() {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        quick_ack();
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  }

 private:
  bool tuned_ = true;
  int fd_ = -1;
};

}  // namespace

LatencySummary summarize(const std::vector<double>& latency_us,
                         const std::vector<double>& lag_us, double rate,
                         double sub_window_s) {
  LatencySummary out;
  const auto per_sub = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * sub_window_s)));
  std::vector<double> p50s, p99s;
  for (std::size_t b = 0; b < latency_us.size(); b += per_sub) {
    const std::size_t e = std::min(latency_us.size(), b + per_sub);
    if (e - b < per_sub / 2 && !p50s.empty()) break;  // short tail
    const std::vector<double> lat(
        latency_us.begin() + static_cast<std::ptrdiff_t>(b),
        latency_us.begin() + static_cast<std::ptrdiff_t>(e));
    const double p50 = quantile(lat, 0.50);
    const double p99 = quantile(lat, 0.99);
    p50s.push_back(p50);
    p99s.push_back(p99);
    bool healthy = true;
    if (e <= lag_us.size()) {
      const std::vector<double> lag(
          lag_us.begin() + static_cast<std::ptrdiff_t>(b),
          lag_us.begin() + static_cast<std::ptrdiff_t>(e));
      healthy = quantile(lag, 0.99) <= kHealthyLagUs;
    }
    out.healthy_sub_windows += healthy ? 1 : 0;
    out.subs.push_back({p50, p99, healthy});
  }
  out.sub_windows = static_cast<int>(p50s.size());
  out.p50_us = median(p50s);
  out.p99_us = median(p99s);
  return out;
}

WindowResult run_window(int port, const std::vector<std::string>& tape,
                        const WindowConfig& cfg, Tracer& tracer,
                        std::uint64_t parent) {
  if (tape.empty() || cfg.rate <= 0.0 || cfg.duration_s <= 0.0) {
    throw std::invalid_argument("loadgen: empty tape or window");
  }
  // Sleep with microsecond precision: the default 50 us timer slack would
  // show up as generator lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  WindowResult res;
  Connection conns[2] = {Connection(port, !cfg.default_sockets),
                         Connection(port, !cfg.default_sockets)};
  const long total = std::max(
      1L, static_cast<long>(std::floor(cfg.rate * cfg.duration_s)));
  const double period = 1.0 / cfg.rate;
  const double t0 = now_s() + 0.001;
  const double last_due = t0 + static_cast<double>(total - 1) * period;
  const double drain_until = last_due + std::max(cfg.deadline_s, 0.05) + 0.5;
  const auto due_of = [&](long i) {
    return t0 + static_cast<double>(i) * period;
  };
  std::vector<double> reload_sent;
  double next_reload =
      cfg.reload_every_s > 0.0 ? t0 + cfg.reload_every_s / 2.0
                               : std::numeric_limits<double>::infinity();
  res.latency_us.assign(static_cast<std::size_t>(total), -1.0);
  res.lag_us.reserve(static_cast<std::size_t>(total));
  long next = 0;
  long outstanding = 0;
  bool inflight_recorded = false;

  const auto complete = [&](Connection& c, const std::string& line,
                            double at) {
    if (c.pending.empty()) {
      throw std::runtime_error("loadgen: unexpected reply '" + line + "'");
    }
    const Pending p = c.pending.front();
    c.pending.pop_front();
    --outstanding;
    const bool ok = line.rfind("ok ", 0) == 0;
    if (p.index == kReload) {
      if (tracer.enabled()) tracer.record("reload", p.due_s, at, parent);
      res.reload_ms.push_back((at - p.due_s) * 1e3);
      res.reload_replies.push_back(line);
      return;
    }
    if (!ok) ++res.errors;
    const double lat_s = at - p.due_s;
    res.latency_us[static_cast<std::size_t>(p.index)] = lat_s * 1e6;
    if (!ok || lat_s > cfg.deadline_s) ++res.failed;
    if (ok && lat_s * 1e6 > cfg.limit_us) ++res.late;
    const std::size_t tape_index =
        (cfg.tape_offset + static_cast<std::size_t>(p.index)) % tape.size();
    if (cfg.sample_every > 0 && p.index % cfg.sample_every == 0) {
      res.samples.push_back({tape_index, line});
    }
    if (tracer.enabled()) tracer.record("request", p.due_s, at, parent);
  };

  for (;;) {
    double now = now_s();
    while (next < total && due_of(next) <= now) {
      Connection& c = conns[next % 2];
      const std::size_t tape_index =
          (cfg.tape_offset + static_cast<std::size_t>(next)) % tape.size();
      c.out += tape[tape_index];
      c.out += '\n';
      c.pending.push_back({next, due_of(next)});
      res.lag_us.push_back((now - due_of(next)) * 1e6);
      ++outstanding;
      ++next;
    }
    if (next == total && !inflight_recorded) {
      inflight_recorded = true;
      res.inflight_at_end = outstanding;
    }
    if (now >= next_reload && next < total) {
      conns[0].out += "reload\n";
      conns[0].pending.push_back({kReload, now});
      reload_sent.push_back(now);
      ++outstanding;
      next_reload += cfg.reload_every_s;
    }
    for (auto& c : conns) c.flush();
    if (next == total && outstanding == 0) break;
    if (now > drain_until) break;

    pollfd fds[2];
    for (int k = 0; k < 2; ++k) {
      fds[k].fd = conns[k].fd();
      fds[k].events = static_cast<short>(
          POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
      fds[k].revents = 0;
    }
    double wait_s = 0.001;
    if (next < total) wait_s = std::min(wait_s, due_of(next) - now);
    wait_s = std::max(0.0, wait_s);
    timespec ts{0, static_cast<long>(wait_s * 1e9)};
    const int ready = ::ppoll(fds, 2, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("loadgen: ppoll failed");
    }
    if (ready <= 0) continue;
    for (int k = 0; k < 2; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[k];
      const bool open = c.receive();
      const double at = now_s();
      std::size_t pos = 0;
      std::size_t nl = 0;
      while ((nl = c.in.find('\n', pos)) != std::string::npos) {
        complete(c, c.in.substr(pos, nl - pos), at);
        pos = nl + 1;
      }
      c.in.erase(0, pos);
      if (!open && !c.pending.empty()) {
        throw std::runtime_error("loadgen: server closed the connection");
      }
    }
  }

  res.sent = total;
  // Unanswered requests failed; they enter the percentiles at the drain
  // horizon so a stalled window can never look fast.
  for (auto& lat : res.latency_us) {
    if (lat < 0.0) {
      ++res.failed;
      lat = (drain_until - t0) * 1e6;
    }
  }
  for (std::size_t r = 0; r < reload_sent.size(); ++r) {
    for (long i = 0; i < total; ++i) {
      const double d = due_of(i) - reload_sent[r];
      if (d >= 0.0 && d < 0.010) {
        res.reload_window_us.push_back(
            res.latency_us[static_cast<std::size_t>(i)]);
      }
    }
  }
  res.reloads_unanswered =
      static_cast<long>(reload_sent.size() - res.reload_replies.size());
  res.latency = summarize(res.latency_us, res.lag_us, cfg.rate,
                          cfg.sub_window_s);
  // Little's law: a server keeping up holds about rate x latency requests;
  // more than the limit allows means the queue is growing.
  res.backlog = static_cast<double>(res.inflight_at_end) >
                std::max(8.0, cfg.rate * cfg.limit_us * 1e-6);
  return res;
}

WindowResult run_sequential(int port, const std::vector<std::string>& tape,
                            const SequentialConfig& cfg) {
  if (tape.empty() || cfg.requests <= 0) {
    throw std::invalid_argument("loadgen: empty tape or sequential window");
  }
  WindowResult res;
  Connection c(port, true);
  const double give_up = now_s() + cfg.timeout_s;
  // Send `line` and wait for its reply; false past the timeout.
  const auto ask = [&](const std::string& line, std::string& reply) {
    c.out += line;
    c.out += '\n';
    for (;;) {
      c.flush();
      const std::size_t nl = c.in.find('\n');
      if (nl != std::string::npos) {
        reply = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        return true;
      }
      if (now_s() > give_up) return false;
      pollfd fd{c.fd(),
                static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
      timespec ts{0, 10'000'000};
      if (::ppoll(&fd, 1, &ts, nullptr) < 0 && errno != EINTR) {
        throw std::runtime_error("loadgen: ppoll failed");
      }
      if ((fd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !c.receive()) {
        throw std::runtime_error("loadgen: server closed the connection");
      }
    }
  };
  res.sent = cfg.requests;
  std::string reply;
  for (long i = 0; i < cfg.requests; ++i) {
    if (cfg.reload_every > 0 && i > 0 && i % cfg.reload_every == 0) {
      if (!ask("reload", reply)) {
        ++res.reloads_unanswered;
        res.failed += cfg.requests - i;
        break;
      }
      res.reload_replies.push_back(reply);
    }
    const std::size_t tape_index =
        (cfg.tape_offset + static_cast<std::size_t>(i)) % tape.size();
    if (!ask(tape[tape_index], reply)) {
      res.failed += cfg.requests - i;  // this one and every one not sent
      break;
    }
    if (reply.rfind("ok ", 0) != 0) {
      ++res.errors;
      ++res.failed;
    }
    if (cfg.sample_every > 0 && i % cfg.sample_every == 0) {
      res.samples.push_back({tape_index, reply});
    }
  }
  return res;
}

}  // namespace perfbench
