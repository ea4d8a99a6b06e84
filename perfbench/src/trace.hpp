// In-memory span recorder for the traced benchmark run. Spans carry a name,
// start, end, the id of the span that caused them and a lane (thread) id;
// they are kept in memory and written once, at exit, as Chrome trace-event
// JSON that loads in Perfetto and chrome://tracing. A disabled tracer
// records nothing, so the untraced run pays one branch per call site.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Seconds elapsed since `t0` (a now_s() value).
[[nodiscard]] inline double since(double t0) { return now_s() - t0; }

/// CPU seconds (user + system) of every thread of this process, and of the
/// calling thread alone. Time a thread waits for a processor, whether the
/// benchmark's other threads, other processes or the hypervisor hold it, is
/// not counted.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// The CPUs the calling thread may run on, in order.
[[nodiscard]] std::vector<int> allowed_cpus();

/// While alive, the calling thread, and every thread it starts, runs on one
/// CPU; the thread's previous CPU mask is restored on destruction.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Mean over groups of each group's median; empty groups are skipped.
[[nodiscard]] double mean_of_medians(
    const std::vector<std::vector<double>>& groups);

/// Runs `rep` `reps_per_cpu` times on every allowed CPU, taking the CPUs in
/// turn, and returns the mean over CPUs of each CPU's median sample. A
/// virtual CPU's speed depends on what the host runs beside it (another
/// tenant on its sibling hardware thread), so at any one time the CPUs
/// differ: the same single-threaded work read about 0.10 s on some and
/// 0.13 s on others in one run. A plain median over repetitions that land
/// on whichever CPU then flips between the two.
template <class Rep>
double across_cpus(int reps_per_cpu, Rep rep) {
  const std::vector<int> cpus = allowed_cpus();
  std::vector<std::vector<double>> by_cpu(cpus.size());
  for (int r = 0; r < reps_per_cpu; ++r) {
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      const PinnedToCpu pin(cpus[c]);
      by_cpu[c].push_back(rep());
    }
  }
  return mean_of_medians(by_cpu);
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled), so children can name their parent
  /// before it ends. Thread-safe.
  std::uint64_t new_id();
  /// Record a finished span under a new_id() id. Thread-safe.
  void record(std::uint64_t id, std::string name, double start_s,
              double end_s, std::uint64_t parent, int lane = 0);
  /// Record a finished span under a fresh id; returns the id.
  std::uint64_t record(std::string name, double start_s, double end_s,
                       std::uint64_t parent, int lane = 0) {
    const std::uint64_t id = new_id();
    record(id, std::move(name), start_s, end_s, parent, lane);
    return id;
  }

  /// Write every recorded span as a Chrome trace-event JSON file.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    int lane = 0;
  };

  bool enabled_;
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: opened at construction, recorded at destruction (or close()).
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent = 0,
       int lane = 0)
      : tracer_(tracer),
        name_(std::move(name)),
        parent_(parent),
        lane_(lane),
        id_(tracer.new_id()),
        start_s_(now_s()) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] double start_s() const { return start_s_; }

  /// Record the span ending now; returns its duration in seconds. Later
  /// calls do nothing and return 0.
  double close() {
    if (closed_) return 0.0;
    closed_ = true;
    const double end_s = now_s();
    tracer_.record(id_, std::move(name_), start_s_, end_s, parent_, lane_);
    return end_s - start_s_;
  }

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t parent_;
  int lane_;
  std::uint64_t id_;
  double start_s_;
  bool closed_ = false;
};

}  // namespace perfbench
