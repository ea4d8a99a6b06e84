// Open-loop request generator for the FrontServer line protocol: one
// thread, two localhost TCP connections, requests sent on a fixed schedule
// whatever the server's progress. Every request is timed from the moment
// it was due, so a stall charges its wait to every request queued behind
// it; the generator's own lateness is recorded as its health check.
//
// A window is summarised per sub-window (0.25 s by default, so a p99 has
// dozens of samples beyond it at the benchmark's rates): its p50 and p99
// are the medians of the sub-window p50s and p99s. Each sub-window also
// records whether the generator itself kept to its schedule (lag p99
// within kHealthyLagUs); a window where it mostly did not measured a
// stalled generator, not the server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Generator lateness (p99, microseconds) beyond which a sub-window is
/// unhealthy.
inline constexpr double kHealthyLagUs = 500.0;

struct SubWindow {
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool healthy = true;  ///< the generator kept to its schedule
};

struct LatencySummary {
  std::vector<SubWindow> subs;  ///< in time order
  double p50_us = 0.0;         ///< median of sub-window p50s
  double p99_us = 0.0;         ///< median of sub-window p99s
  int sub_windows = 0;
  int healthy_sub_windows = 0;
  /// At least half the sub-windows were healthy: the generator applied
  /// the load it was asked to, so the window measured the server.
  [[nodiscard]] bool healthy() const {
    return 2 * healthy_sub_windows >= sub_windows;
  }
};

/// Summarise per-request latencies (request order) sent at `rate`, with
/// the generator lateness of each send (empty = always on time).
[[nodiscard]] LatencySummary summarize(const std::vector<double>& latency_us,
                                       const std::vector<double>& lag_us,
                                       double rate, double sub_window_s);

struct WindowConfig {
  double rate = 1000.0;        ///< requests per second
  double duration_s = 1.0;     ///< sending window
  double reload_every_s = 0.0; ///< `reload` line period (0 = none)
  double deadline_s = 0.1;     ///< answered later than this = failed
  double limit_us = 1000.0;    ///< latency limit: p99 and `late` replies
  std::size_t tape_offset = 0; ///< first tape line of this window
  int sample_every = 0;        ///< keep every k-th reply (0 = none)
  double sub_window_s = 0.25;  ///< percentile summary granularity
  /// Client sockets keep the kernel defaults (no TCP_NODELAY, delayed
  /// ACKs), as a plain client's would.
  bool default_sockets = false;
};

struct ReplySample {
  std::size_t tape_index = 0;
  std::string reply;
};

struct WindowResult {
  long sent = 0;
  long errors = 0;  ///< "err" replies
  long failed = 0;  ///< error replies, unanswered, or past the deadline
  long late = 0;    ///< ok replies later than limit_us after their due time
  std::vector<double> latency_us;  ///< per request, from its due time
  std::vector<double> lag_us;      ///< generator lateness per send
  std::vector<ReplySample> samples;
  std::vector<double> reload_ms;   ///< per answered reload, send to reply
  std::vector<std::string> reload_replies;
  long reloads_unanswered = 0;
  /// Latencies of requests due within 10 ms after a reload was sent.
  std::vector<double> reload_window_us;
  long inflight_at_end = 0;  ///< unanswered when the last request was sent
  bool backlog = false;      ///< more in flight than the limit allows
  LatencySummary latency;
  /// The window met its limit: p99 within it, no growing backlog, and no
  /// failed request.
  [[nodiscard]] bool meets_limit(double limit_us) const {
    return failed == 0 && !backlog && latency.p99_us <= limit_us;
  }
};

/// Drive `tape` (lines without newline, reused cyclically) against
/// 127.0.0.1:`port`. Request spans go under `parent` when tracing.
[[nodiscard]] WindowResult run_window(int port,
                                      const std::vector<std::string>& tape,
                                      const WindowConfig& cfg, Tracer& tracer,
                                      std::uint64_t parent);

/// A sequential client on one connection: each request is sent when the
/// reply to the one before it has arrived, so every request meets an idle
/// server and walks the whole path (socket, parse, pool hand-off, predict,
/// reply) alone.
struct SequentialConfig {
  long requests = 10000;
  long reload_every = 0;        ///< a `reload` line per k requests (0 = none)
  std::size_t tape_offset = 0;  ///< first tape line of this window
  int sample_every = 0;         ///< keep every k-th reply (0 = none)
  double timeout_s = 30.0;      ///< the window fails past this
};

/// Drive `tape` sequentially against 127.0.0.1:`port`. The result has no
/// latencies: `sent`, `errors`, `failed`, `samples` and the reload fields
/// are filled.
[[nodiscard]] WindowResult run_sequential(
    int port, const std::vector<std::string>& tape,
    const SequentialConfig& cfg);

}  // namespace perfbench
