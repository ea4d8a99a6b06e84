#include "serve_phase.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "loadgen.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"

namespace perfbench {

namespace core = pmlp::core;

namespace {

constexpr double kMaxRate = 128000.0;  ///< ladder ceiling
constexpr int kSetupReps = 4;  ///< FrontServer load+listen repeats per CPU
/// Sequential windows: the server's CPU time per request there is the
/// process's minus the client's (this thread). Time the server waits for a
/// processor is not in it, and one request at a time leaves no batching
/// that could depend on the timing.
constexpr int kSequentialWindows = 24;
/// In-process bursts: requests per burst, timed bursts per repetition and
/// repetitions per CPU.
constexpr int kBurst = 256;
constexpr int kBursts = 16;
constexpr int kBurstRepsPerCpu = 3;

struct TapeEntry {
  std::string selector;
  std::vector<std::uint8_t> codes;
  std::size_t model = 0;  ///< offline-resolved entry index
};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Offline selector resolution, written from the rules documented in
/// serve.hpp; returns entries.size() when nothing matches.
std::size_t resolve(const std::vector<core::FrontEntry>& entries,
                    const std::string& selector) {
  const std::string area_key = "best-accuracy-under-area=";
  const std::string acc_key = "best-area-over-accuracy=";
  std::size_t best = entries.size();
  if (selector.rfind(area_key, 0) == 0) {
    const double limit = std::strtod(selector.c_str() + area_key.size(),
                                     nullptr);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& m = entries[i];
      if (m.area_cm2 > limit) continue;
      if (best == entries.size() ||
          m.test_accuracy > entries[best].test_accuracy ||
          (m.test_accuracy == entries[best].test_accuracy &&
           m.area_cm2 < entries[best].area_cm2)) {
        best = i;
      }
    }
    return best;
  }
  if (selector.rfind(acc_key, 0) == 0) {
    const double floor = std::strtod(selector.c_str() + acc_key.size(),
                                     nullptr);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& m = entries[i];
      if (m.test_accuracy < floor) continue;
      if (best == entries.size() || m.area_cm2 < entries[best].area_cm2 ||
          (m.area_cm2 == entries[best].area_cm2 &&
           m.test_accuracy > entries[best].test_accuracy)) {
        best = i;
      }
    }
    return best;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].file == selector) return i;
  }
  return best;
}

std::vector<TapeEntry> make_tape(const std::vector<core::FrontEntry>& entries,
                                 const std::vector<ServedFlow>& flows,
                                 std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, entries.size() - 1);
  std::uniform_real_distribution<double> kind(0.0, 1.0);
  std::vector<TapeEntry> tape;
  tape.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = entries[pick(rng)];
    const double k = kind(rng);
    TapeEntry t;
    if (k < 0.6) {
      t.selector = e.file;
    } else if (k < 0.8) {
      t.selector = "best-accuracy-under-area=" + exact(e.area_cm2);
    } else {
      t.selector = "best-area-over-accuracy=" + exact(e.test_accuracy);
    }
    t.model = resolve(entries, t.selector);
    const std::string& file = entries[t.model].file;
    const std::string flow_name = file.substr(0, file.find('/'));
    const core::FlowResult* result = nullptr;
    for (const auto& f : flows) {
      if (f.name == flow_name) result = f.result;
    }
    if (result == nullptr) {
      throw std::runtime_error("serve tape: no flow for " + file);
    }
    const auto& test = result->baseline.test;
    std::uniform_int_distribution<std::size_t> row(0, test.size() - 1);
    const auto r = test.row(row(rng));
    t.codes.assign(r.begin(), r.end());
    tape.push_back(std::move(t));
  }
  return tape;
}

std::string line_of(const TapeEntry& t) {
  std::string line = t.selector;
  for (const std::uint8_t c : t.codes) {
    line += ' ';
    line += std::to_string(static_cast<int>(c));
  }
  return line;
}

/// CPU placement of the serve windows: the server's threads on every CPU
/// but the first, the load generator alone on the first. The server then
/// cannot take the generator's processor, so a generator that falls behind
/// was held up from outside the benchmark (host CPU steal, other tenants),
/// never by the server it measures. No-op on fewer than three CPUs. The
/// calling thread's mask is restored on destruction.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0 ||
        CPU_COUNT(&all_) < 3) {
      return;
    }
    CPU_ZERO(&generator_);
    server_ = all_;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all_)) continue;
      if (CPU_COUNT(&generator_) == 0) {
        CPU_SET(c, &generator_);
        CPU_CLR(c, &server_);
      } else {
        server_cpus_.push_back(c);
      }
    }
    split_ = true;
  }
  ~CpuSplit() { all(); }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  /// The calling thread, and threads it starts from now on, run on the
  /// server's CPUs.
  void server() { set(server_); }
  /// The same, on the k-th of the server's CPUs alone (cycling).
  void server_cpu(std::size_t k) {
    if (!split_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(server_cpus_[k % server_cpus_.size()], &one);
    set(one);
  }
  /// How many CPUs server_cpu() cycles through (1 when unsplit).
  [[nodiscard]] std::size_t server_cpu_count() const {
    return split_ ? server_cpus_.size() : 1;
  }
  /// The calling thread runs alone on the generator's CPU.
  void generator() { set(generator_); }
  /// The calling thread runs on every CPU it started with.
  void all() { set(all_); }

 private:
  void set(const cpu_set_t& mask) {
    if (split_) (void)::sched_setaffinity(0, sizeof mask, &mask);
  }
  bool split_ = false;
  cpu_set_t all_{};
  cpu_set_t server_{};
  std::vector<int> server_cpus_;
  cpu_set_t generator_{};
};

/// A FrontServer accepting on its own thread until destruction.
class RunningServer {
 public:
  RunningServer(const std::string& tree, int pool)
      : server_(tree, core::ServeConfig{pool, 64, 0}) {
    server_.listen();
    thread_ = std::thread([this] {
      try {
        server_.serve_forever();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: serve_forever: %s\n", e.what());
      }
    });
  }
  ~RunningServer() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] core::FrontServer& server() { return server_; }

 private:
  core::FrontServer server_;
  std::thread thread_;
};

/// Offline checker of sampled replies against CompiledNet::predict.
class ReplyChecker {
 public:
  ReplyChecker(const std::vector<core::FrontEntry>& entries,
               const std::vector<TapeEntry>& tape)
      : entries_(entries), tape_(tape) {
    nets_.reserve(entries.size());
    for (const auto& e : entries) nets_.emplace_back(e.model);
  }

  /// Returns "" when `reply` is the right answer for tape line `index`.
  std::string check(std::size_t index, const std::string& reply,
                    bool corrupt) {
    const TapeEntry& t = tape_[index];
    std::istringstream is(reply);
    std::string ok, file;
    int predicted = -1;
    if (!(is >> ok >> file >> predicted) || ok != "ok") {
      return "reply '" + reply + "' to '" + t.selector + "' is not ok";
    }
    if (corrupt) predicted = (predicted + 1) % nets_[t.model].n_outputs();
    const std::string& want_file = entries_[t.model].file;
    if (file != want_file) {
      return "'" + t.selector + "' resolved to " + file + ", offline to " +
             want_file;
    }
    const int want = nets_[t.model].predict(t.codes, ws_);
    if (predicted != want) {
      return "served class " + std::to_string(predicted) + " of " + file +
             " differs from CompiledNet::predict " + std::to_string(want);
    }
    return "";
  }

 private:
  const std::vector<core::FrontEntry>& entries_;
  const std::vector<TapeEntry>& tape_;
  std::vector<core::CompiledNet> nets_;
  core::EvalWorkspace ws_;
};

/// submit() at `rate` with no socket: per-request latency from the due
/// time and generator lateness, both in request order, in microseconds.
struct InprocWindow {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  long failed = 0;
};
InprocWindow inproc_window(core::FrontServer& server,
                           const std::vector<TapeEntry>& tape, double rate,
                           double duration_s) {
  struct InFlight {
    std::future<core::ServeReply> reply;
    double due_s = 0.0;
  };
  const long total = static_cast<long>(std::floor(rate * duration_s));
  InprocWindow out;
  out.lag_us.reserve(static_cast<std::size_t>(total));
  std::deque<InFlight> queue;
  std::mutex mutex;  ///< guards queue and done
  std::condition_variable cv;
  bool done = false;
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      const core::ServeReply r = f.reply.get();
      out.latency_us.push_back((now_s() - f.due_s) * 1e6);
      if (!r.ok) ++out.failed;
    }
  });
  const double t0 = now_s() + 0.001;
  for (long i = 0; i < total; ++i) {
    const double due = t0 + static_cast<double>(i) / rate;
    while (now_s() < due) {
    }
    const auto& t = tape[static_cast<std::size_t>(i) % tape.size()];
    out.lag_us.push_back((now_s() - due) * 1e6);
    auto fut = server.submit(t.selector, t.codes);
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back({std::move(fut), due});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  cv.notify_one();
  collector.join();
  return out;
}

/// ns per predict_batch call of `fill` samples, over the tape's models.
double predict_replay_ns(const std::vector<core::FrontEntry>& entries,
                         const std::vector<TapeEntry>& tape, int fill) {
  std::vector<core::CompiledNet> nets;
  for (const auto& e : entries) nets.emplace_back(e.model);
  core::EvalWorkspace ws;
  std::vector<std::int32_t> preds(static_cast<std::size_t>(fill));
  std::vector<double> ns;
  std::vector<std::uint8_t> codes;
  long checksum = 0;
  const std::size_t n = std::min<std::size_t>(tape.size(), 2048);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& t = tape[i];
    codes.clear();
    for (int k = 0; k < fill; ++k) {
      codes.insert(codes.end(), t.codes.begin(), t.codes.end());
    }
    const double s = now_s();
    nets[t.model].predict_batch(codes.data(), static_cast<std::size_t>(fill),
                                preds.data(), ws);
    ns.push_back(since(s) * 1e9);
    checksum += preds[0];
  }
  const double out = median(ns);
  return checksum < 0 ? -out : out;
}

}  // namespace

ServeOutcome run_serve_phase(const std::string& tree,
                             const std::vector<ServedFlow>& flows,
                             const ServePlan& plan, std::uint64_t seed,
                             Tracer& tracer, std::uint64_t parent,
                             bool wrong_answer, Metrics& layer) {
  ServeOutcome out;
  const auto entries = core::load_front_any(tree);
  const auto tape = make_tape(entries, flows, seed, 8192);
  std::vector<std::string> lines;
  lines.reserve(tape.size());
  for (const auto& t : tape) lines.push_back(line_of(t));
  ReplyChecker checker(entries, tape);

  // Set-up: load + compile every model and listen, several times on every
  // CPU, in CPU seconds.
  {
    Span span(tracer, "serve setup", parent);
    out.setup_s = across_cpus(kSetupReps, [&] {
      const double c0 = process_cpu_s();
      core::FrontServer server(tree, core::ServeConfig{kServePool, 64, 0});
      server.listen();
      return process_cpu_s() - c0;
    });
  }

  const std::string reload_reply =
      "ok reload " + std::to_string(entries.size());
  bool corrupt_next = wrong_answer;
  const auto check_window = [&](const WindowResult& w) {
    for (const auto& s : w.samples) {
      const std::string err =
          checker.check(s.tape_index, s.reply, corrupt_next);
      corrupt_next = false;
      ++out.checked;
      if (!err.empty()) out.errors.push_back(err);
    }
    for (const auto& r : w.reload_replies) {
      if (r != reload_reply) {
        out.errors.push_back("reload replied '" + r + "'");
      }
    }
    if (w.reloads_unanswered > 0) {
      out.errors.push_back(std::to_string(w.reloads_unanswered) +
                           " reload(s) went unanswered");
    }
  };

  WindowConfig base;
  base.rate = kBaseRate;
  base.duration_s = plan.base_s / kServeInstances;
  base.reload_every_s = plan.reload_every_s;
  base.deadline_s = kDeadlineS;
  base.limit_us = kP99LimitUs;
  base.sample_every = 16;
  Tracer off(false);

  std::size_t offset = 0;
  int instance = 0;
  const auto note = [&](double rate, const WindowResult& r) {
    out.ladder.push_back({instance, rate, r.latency.p50_us, r.latency.p99_us,
                          r.latency.healthy(), r.meets_limit(kP99LimitUs)});
  };
  const auto warm_up = [&](core::FrontServer& server) {
    WindowConfig warm = base;
    warm.duration_s = 0.2;
    warm.reload_every_s = 0.0;
    warm.sample_every = 0;
    (void)run_window(server.port(), lines, warm, off, 0);
  };
  const auto account = [&](const WindowResult& w) {
    offset += static_cast<std::size_t>(w.sent);
    check_window(w);
    out.attempted += w.sent;
    out.failed += w.failed;
    out.late += w.late;
  };

  // Base windows on a fixed number of fresh server instances. The latency
  // medians pool every sub-window of every instance.
  CpuSplit cpus;
  std::vector<double> p50s, p99s;
  long base_sent = 0;
  double fill = 0.0, batches = 0.0, lag_p99 = 0.0;
  for (; instance < kServeInstances; ++instance) {
    cpus.server();
    RunningServer running(tree, kServePool);
    core::FrontServer& server = running.server();
    cpus.generator();
    warm_up(server);
    const core::ServeStats before = server.stats();
    Span span(tracer, "serve base window", parent);
    WindowConfig c = base;
    c.tape_offset = offset;
    const WindowResult w =
        run_window(server.port(), lines, c, tracer, span.id());
    span.close();
    const core::ServeStats after = server.stats();
    account(w);
    base_sent += w.sent;
    note(kBaseRate, w);
    for (const auto& sub : w.latency.subs) {
      p50s.push_back(sub.p50_us);
      p99s.push_back(sub.p99_us);
      out.healthy_sub_windows += sub.healthy ? 1 : 0;
    }
    batches = static_cast<double>(after.batches - before.batches);
    fill = after.batches > before.batches
               ? static_cast<double>(after.requests - before.requests) /
                     static_cast<double>(after.batches - before.batches)
               : 0.0;
    lag_p99 = quantile(w.lag_us, 0.99);
  }
  out.sub_windows = static_cast<long>(p50s.size());
  if (!tracer.enabled()) return out;

  // Sequential windows, each on a fresh server with every thread on one
  // CPU, the server's CPUs in turn. On one CPU each hand-off between the
  // server's threads is a switch there, never a wake-up sent to another
  // CPU, whose cost varies with what that CPU is doing. The figure is the
  // mean over the server's CPUs of each CPU's median window (see
  // across_cpus).
  std::vector<std::vector<double>> by_cpu(cpus.server_cpu_count());
  for (int k = 0; k < kSequentialWindows; ++k) {
    cpus.server_cpu(static_cast<std::size_t>(k));
    RunningServer one(tree, kServePool);
    cpus.generator();
    SequentialConfig seq;
    seq.requests = 500;
    seq.tape_offset = offset;
    (void)run_sequential(one.server().port(), lines, seq);  // warm-up
    Span span(tracer, "serve sequential window", parent);
    seq.requests = plan.sequential_requests;
    seq.reload_every = plan.reload_every_requests;
    seq.sample_every = 16;
    const double process0 = process_cpu_s();
    const double client0 = thread_cpu_s();
    const WindowResult sw = run_sequential(one.server().port(), lines, seq);
    const double cpu_s =
        (process_cpu_s() - process0) - (thread_cpu_s() - client0);
    span.close();
    account(sw);
    const double us = cpu_s * 1e6 / static_cast<double>(sw.sent);
    out.cpu_per_req_us.push_back(us);
    by_cpu[static_cast<std::size_t>(k) % by_cpu.size()].push_back(us);
  }
  const double sequential_us = mean_of_medians(by_cpu);

  const double p50 = median(p50s);
  layer.set("serve.p50_us", p50, "us");
  layer.set("serve.sequential_cpu_us", sequential_us, "us");

  // In-process bursts: submit() kBurst requests at once and wait for them
  // all, on a server whose threads share one CPU with this thread, every
  // CPU in turn. The pool drains full batches, so the figure is the
  // server's own work per request (selector resolution, batching,
  // predict) more than its wake-ups and sockets.
  cpus.all();
  std::size_t burst_next = offset;
  const double burst_us = across_cpus(kBurstRepsPerCpu, [&] {
    core::FrontServer server(tree, core::ServeConfig{kServePool, 64, 0});
    const auto burst = [&](bool check) {
      std::vector<std::pair<std::size_t, std::future<core::ServeReply>>>
          futures;
      futures.reserve(kBurst);
      for (int i = 0; i < kBurst; ++i) {
        const std::size_t index = burst_next++ % tape.size();
        futures.emplace_back(index, server.submit(tape[index].selector,
                                                  tape[index].codes));
      }
      for (auto& [index, future] : futures) {
        const core::ServeReply r = future.get();
        ++out.attempted;
        if (!r.ok) ++out.failed;
        if (check && index % 64 == 0) {
          const std::string err = checker.check(
              index, "ok " + r.file + " " + std::to_string(r.predicted),
              false);
          ++out.checked;
          if (!err.empty()) out.errors.push_back(err);
        }
      }
    };
    burst(false);  // warm-up
    const double c0 = process_cpu_s();
    for (int b = 0; b < kBursts; ++b) burst(true);
    return (process_cpu_s() - c0) * 1e6 / (kBursts * kBurst);
  });
  cpus.generator();
  layer.set("serve.burst_cpu_us", burst_us, "us");
  layer.set("serve.gen_healthy_frac",
            static_cast<double>(out.healthy_sub_windows) /
                static_cast<double>(std::max(1L, out.sub_windows)),
            "ratio");
  layer.set("serve.on_time_frac",
            1.0 - static_cast<double>(out.late) /
                      static_cast<double>(std::max(1L, base_sent)),
            "ratio");
  layer.set("serve.p99_us", median(p99s), "us");
  layer.set("serve.batch_fill", fill, "req/batch");
  layer.set("serve.batches", batches, "count");
  layer.set("serve.gen_lag_us.p99", lag_p99, "us");

  // Traced runs: one more instance for the rate ladder, the in-process
  // window, the batch replay, the default-socket client and the reload
  // window.
  cpus.server();
  RunningServer running(tree, kServePool);
  core::FrontServer& server = running.server();
  cpus.generator();
  warm_up(server);

  // Highest rate meeting the limit, on a fixed ladder of multiples of the
  // base rate (halving below it when the base misses): the crossing is
  // interpolated in log(p99) between the last pass and the first miss,
  // which is steadier than a pass/fail bisection. A rung in which the
  // generator fell behind is run once more.
  {
    Span span(tracer, "serve rate ladder", parent);
    const auto rung = [&](double rate) -> std::optional<WindowResult> {
      for (int attempt = 0; attempt < 2; ++attempt) {
        WindowConfig t = base;
        t.rate = rate;
        t.duration_s = plan.trial_s;
        t.tape_offset = offset;
        t.sample_every = 64;
        WindowResult r = run_window(server.port(), lines, t, off, 0);
        offset += static_cast<std::size_t>(r.sent);
        check_window(r);
        // Misses above capacity are the point of the ladder; only error
        // replies count as failed requests here.
        out.attempted += r.sent;
        out.failed += r.errors;
        note(rate, r);
        if (r.latency.healthy()) return r;
      }
      return std::nullopt;
    };
    double pass_rate = 0.0, pass_p99 = 0.0;
    double miss_rate = 0.0, miss_p99 = 0.0;
    bool miss_on_latency = false;
    bool measured = true;
    const auto step = [&](double rate) {
      const auto r = rung(rate);
      measured = r.has_value();
      if (!measured) return false;
      if (r->meets_limit(kP99LimitUs)) {
        pass_rate = rate;
        pass_p99 = r->latency.p99_us;
        return true;
      }
      miss_rate = rate;
      miss_p99 = r->latency.p99_us;
      miss_on_latency = r->latency.p99_us > kP99LimitUs;
      return false;
    };
    if (step(kBaseRate)) {
      for (int k = 2; kBaseRate * k <= kMaxRate; ++k) {
        if (!step(kBaseRate * k)) break;
      }
    } else if (measured) {
      for (double rate = kBaseRate / 2.0; rate >= kBaseRate / 16.0;
           rate /= 2.0) {
        if (step(rate) || !measured) break;
      }
    }
    double estimate = pass_rate;
    if (measured && pass_rate > 0.0 && miss_rate > pass_rate &&
        miss_on_latency && pass_p99 > 0.0) {
      const double frac = (std::log(kP99LimitUs) - std::log(pass_p99)) /
                          (std::log(miss_p99) - std::log(pass_p99));
      estimate =
          pass_rate + std::clamp(frac, 0.0, 1.0) * (miss_rate - pass_rate);
    }
    layer.set("serve.max_rps", estimate, "req/s");
  }

  // The in-process window starts a collector thread beside its spinning
  // generator; it runs unsplit.
  cpus.all();
  Span inproc_span(tracer, "serve in-process window", parent);
  const auto inproc =
      inproc_window(server, tape, kBaseRate, base.duration_s);
  inproc_span.close();
  cpus.generator();
  out.attempted += static_cast<long>(inproc.latency_us.size());
  out.failed += inproc.failed;
  const auto in_lat = summarize(inproc.latency_us, inproc.lag_us, kBaseRate,
                                base.sub_window_s);
  layer.set("serve.inproc_us.p50", in_lat.p50_us, "us");
  layer.set("serve.inproc_us.p99", in_lat.p99_us, "us");
  layer.set("serve.socket_us", p50 - in_lat.p50_us, "us");
  layer.set("serve.predict_ns",
            predict_replay_ns(entries, tape,
                              std::max(1, static_cast<int>(std::lround(fill)))),
            "ns");

  // A client with default socket options, at a plain client's pace: the
  // latency it sees includes the server's socket options (Nagle) against
  // the kernel's delayed ACK.
  {
    WindowConfig d = base;
    d.rate = kDefaultClientRate;
    d.duration_s = 1.0;
    d.reload_every_s = 0.0;
    d.tape_offset = offset;
    d.default_sockets = true;
    Span span(tracer, "serve default-client window", parent);
    const WindowResult w = run_window(server.port(), lines, d, off, 0);
    span.close();
    offset += static_cast<std::size_t>(w.sent);
    check_window(w);
    out.attempted += w.sent;
    out.failed += w.failed;
    layer.set("serve.default_client_us.p50", w.latency.p50_us, "us");
  }

  // Reload window: one reload per 0.25 s (or the workload's own period).
  {
    WindowConfig r = base;
    r.reload_every_s =
        plan.reload_every_s > 0.0 ? std::min(plan.reload_every_s, 0.25) : 0.25;
    r.tape_offset = offset;
    Span span(tracer, "serve reload window", parent);
    const WindowResult w =
        run_window(server.port(), lines, r, tracer, span.id());
    span.close();
    account(w);
    layer.set("serve.reload_ms", median(w.reload_ms), "ms");
    layer.set("serve.reload_p99_us", quantile(w.reload_window_us, 0.99),
              "us");
  }
  return out;
}

}  // namespace perfbench
