// The serve phase of every workload: a FrontServer over the workload's
// checkpoint tree, its set-up time, latency at the base rate over TCP and
// the server's CPU time per request, and (traced runs) the highest rate
// that meets the p99 limit, the in-process latency and bursts, the batch
// replay and the reload windows. Every sampled reply is checked against
// offline selector resolution and CompiledNet::predict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmlp/core/flow.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// FrontServer worker pool of every workload.
inline constexpr int kServePool = 2;
/// Server instances the base window is split over (thread placement
/// differs per instance); latency pools their sub-windows.
inline constexpr int kServeInstances = 3;
/// req/s of the latency window and the first rung of the max-rate ladder:
/// about a fifth of the server's capacity on a 4-core machine.
inline constexpr double kBaseRate = 8000.0;
/// The serve_max_rps limit on p99: above the few-ms wake-up tail an idle
/// virtual machine adds, so the ladder finds where queueing starts.
inline constexpr double kP99LimitUs = 5000.0;
/// A request answered later than this has failed, as if unanswered. One
/// answered within it but past kP99LimitUs is late: serve.on_time_frac
/// counts it, ok_frac does not (host CPU steal alone makes most requests
/// late on a busy shared machine).
inline constexpr double kDeadlineS = 1.0;
/// req/s of the default-socket client window (traced runs).
inline constexpr double kDefaultClientRate = 1000.0;

struct ServePlan {
  double base_s = 3.0;          ///< base window, over all instances
  double trial_s = 0.5;         ///< each rung of the max-rate ladder
  double reload_every_s = 0.0;  ///< `reload` period (0 = none)
  /// Requests of each sequential window, and its `reload` line per this
  /// many requests (0 = none).
  long sequential_requests = 3000;
  long reload_every_requests = 0;
};

/// Which flow produced each checkpoint subdirectory, for test-row lookup.
struct ServedFlow {
  std::string name;
  const pmlp::core::FlowResult* result = nullptr;
};

/// One rung of the max-rate ladder, for the side report.
struct LadderPoint {
  int instance = 0;
  double rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool healthy = true;
  bool pass = false;
};

struct ServeOutcome {
  double setup_s = 0.0;  ///< median FrontServer load+compile+listen, CPU
  long attempted = 0;    ///< requests sent in every window
  long failed = 0;
  long late = 0;         ///< base windows: answered past kP99LimitUs
  long checked = 0;      ///< sampled replies verified offline
  /// Base-window sub-windows, and those in which the generator kept to
  /// its schedule.
  long sub_windows = 0;
  long healthy_sub_windows = 0;
  std::vector<double> cpu_per_req_us;  ///< per sequential window
  std::vector<LadderPoint> ladder;  ///< every window, in run order
  std::vector<std::string> errors;  ///< correctness-gate failures
};

/// Run the serve phase. Its set-up time is in the outcome; with tracing on,
/// the serve layer's metrics go to `layer`. `wrong_answer` corrupts one
/// sampled reply before the check (the gate's own test).
[[nodiscard]] ServeOutcome run_serve_phase(
    const std::string& tree, const std::vector<ServedFlow>& flows,
    const ServePlan& plan, std::uint64_t seed, Tracer& tracer,
    std::uint64_t parent, bool wrong_answer, Metrics& layer);

}  // namespace perfbench
