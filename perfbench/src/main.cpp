// pmlp_perfbench: the repository benchmark. One run builds the fronts of
// one workload from seeded inputs, verifies them (hardware equivalence,
// verify_rtl, resume identity, served answers), serves them, and prints
// one JSON line of metrics. See ../README.md for the workloads, metrics
// and the traced run.
//
//   pmlp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--inject serve-answer|resume-front]
//
// Exit codes: 0 every check passed; 1 a check failed (the JSON line still
// prints, with "correct": false); 2 usage error or a non-Release build.
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "flows.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/suite.hpp"
#include "report.hpp"
#include "serve_phase.hpp"
#include "trace.hpp"

namespace core = pmlp::core;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr const char* kUsage =
    "usage: pmlp_perfbench --workload flow-pendigits|campaign-suite|"
    "serve-mixed --seed <0..2^63-1> --seconds <1..600> --trace <0|1> "
    "[--inject serve-answer|resume-front]";

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict decimal parse: digits only, within [lo, hi].
std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError(flag + " needs a whole number, got '" + text + "'");
  }
  const std::uint64_t v = std::stoull(text);
  if (v < lo || v > hi) {
    throw UsageError(flag + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + text);
  }
  return v;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string inject;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "flow-pendigits" && value != "campaign-suite" &&
          value != "serve-mixed") {
        throw UsageError("unknown workload '" + value + "'");
      }
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value, 0, (1ull << 63) - 1);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_uint(flag, value, 1, 600));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw UsageError("--trace must be 0 or 1, got '" + value + "'");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--inject") {
      if (value != "serve-answer" && value != "resume-front") {
        throw UsageError("unknown --inject fault '" + value + "'");
      }
      a.inject = value;
    } else {
      throw UsageError("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw UsageError(
        "--workload, --seed, --seconds and --trace are all required");
  }
  return a;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Workload {
  FrontPlan front;
  ServePlan serve;
};

/// Every workload's plan. The training problem is the paper's fixed setup
/// (Table I data, split seed 1, GA seeds 1..k), so the fronts, their
/// counters and quality are exact per commit; the seed draws the serve
/// traffic. --seconds scales only the serve windows.
Workload make_workload(const Args& a) {
  Workload w;
  FrontPlan& f = w.front;
  ServePlan& s = w.serve;
  const double scale = static_cast<double>(a.seconds) / 20.0;
  // The base windows' latency is reported by the traced run only, which
  // gives them three times as long.
  s.base_s = a.trace ? 9.0 : 3.0;
  if (a.workload == "flow-pendigits") {
    f.datasets.push_back("Pendigits");
    for (std::uint64_t k = 1; k <= 3; ++k) {
      f.flows.push_back({"Pendigits_s" + std::to_string(k), 0, 1, k});
    }
    f.population = 120;
    f.generations = 600;
    f.campaign = false;
    f.threads = 4;
  } else {
    const char* names[] = {"BreastCancer", "Cardio", "Pendigits", "RedWine",
                           "WhiteWine"};
    for (std::uint64_t d = 0; d < 5; ++d) {
      f.datasets.push_back(names[d]);
      for (std::uint64_t k = 1; k <= 2; ++k) {
        f.flows.push_back({std::string(names[d]) + "_s" + std::to_string(k),
                           d, 1, k});
      }
    }
    f.campaign = true;
    f.threads = 4;
    if (a.workload == "campaign-suite") {
      f.population = 80;
      f.generations = 200;
      f.reps = 5;
    } else {
      f.population = 80;
      f.generations = 100;
      f.reps = 6;
      s.base_s = a.trace ? 12.0 : 4.0;
      s.reload_every_s = 1.0;
      s.reload_every_requests = 1000;
    }
  }
  if (a.trace) f.reps = 1;
  s.base_s = std::max(1.0, s.base_s * scale);
  s.trial_s = std::max(0.5, s.trial_s * scale);
  return w;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Removes the run's scratch tree on every exit path.
struct ScratchDir {
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path path;
};

/// Campaign/scheduler metrics from the stage completions of one pass:
/// pool utilisation, stage queueing between a flow's completions, and the
/// wall after the next-to-last flow finished.
void scheduler_metrics(const FrontRun& run, std::size_t n_flows,
                       Metrics& layer) {
  double stage_sum = 0.0;
  double wait = 0.0;
  std::vector<double> last_end(n_flows, -1.0);
  for (const auto& e : run.events) {
    stage_sum += e.stage.wall_seconds;
    const double start = e.end_s - e.stage.wall_seconds;
    double& prev = last_end[e.flow];
    if (prev >= 0.0 && start > prev) wait += start - prev;
    prev = e.end_s;
  }
  std::vector<double> finish = last_end;
  std::sort(finish.begin(), finish.end());
  const double tail =
      finish.size() >= 2 ? finish.back() - finish[finish.size() - 2]
                         : finish.back() - run.start_s;
  layer.set("campaign.pool_util",
            stage_sum / (run.flows_wall_s * run.pool_threads), "ratio");
  layer.set("campaign.stage_wait_s", wait, "s");
  layer.set("campaign.tail_s", tail, "s");
}

/// The traced flows' layer metrics, summed or pooled over flows.
void traced_metrics(const std::vector<TracedFlow>& flows, Metrics& layer) {
  static const char* kStage[] = {"split", "backprop", "baseline", "ga",
                                 "refine", "hardware", "select"};
  double stage[core::kNumFlowStages] = {};
  std::vector<double> gen_s, call_us;
  double eval_phase = 0.0, ga_wall = 0.0, busy = 0.0, lane_phase = 0.0;
  long evals = 0, calls = 0, dup = 0, distinct = 0, hits = 0, lookups = 0;
  double decode = 0.0, compile = 0.0, predict = 0.0, lookup = 0.0, sps = 0.0;
  long trials = 0, aborts = 0, candidates = 0;
  double bp_sps = 0.0;
  for (const auto& f : flows) {
    for (int s = 0; s < core::kNumFlowStages; ++s) stage[s] += f.stage_s[s];
    const auto& p = f.probe;
    gen_s.insert(gen_s.end(), p.generation_s.begin(), p.generation_s.end());
    call_us.insert(call_us.end(), p.call_us.begin(), p.call_us.end());
    eval_phase += p.eval_phase_s;
    lane_phase += p.eval_phase_s * p.lanes;
    ga_wall += p.ga_wall_s;
    busy += p.busy_s;
    calls += p.calls;
    dup += p.dup_in_generation;
    distinct += p.distinct;
    evals += f.result.training.evaluations;
    hits += f.result.training.cache_hits;
    lookups += f.result.training.evaluations;
    decode += f.replay.decode_us;
    compile += f.replay.compile_us;
    predict += f.replay.predict_us;
    lookup += f.replay.cache_lookup_us;
    sps += f.replay.samples_per_s;
    trials += f.result.refine.trials;
    aborts += f.result.refine.early_aborts;
    candidates += static_cast<long>(f.result.evaluated.size());
    bp_sps += f.result.backprop.samples_per_second;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, flows.size()));
  for (int s = 0; s < core::kNumFlowStages; ++s) {
    layer.set(std::string("stage.") + kStage[s] + "_s", stage[s], "s");
  }
  layer.set("ga.gen_s.p50", quantile(gen_s, 0.50), "s");
  layer.set("ga.gen_s.p99", quantile(gen_s, 0.99), "s");
  layer.set("ga.eval_phase_s", eval_phase, "s");
  layer.set("ga.select_vary_s", ga_wall - eval_phase, "s");
  layer.set("ga.evals", static_cast<double>(evals), "count");
  layer.set("ga.evals_per_s", static_cast<double>(evals) / ga_wall, "1/s");
  layer.set("ga.worker_util", lane_phase > 0.0 ? busy / lane_phase : 0.0,
            "ratio");
  layer.set("eval.calls", static_cast<double>(calls), "count");
  layer.set("eval.busy_s", busy, "s");
  layer.set("eval.call_us.p50", quantile(call_us, 0.50), "us");
  layer.set("eval.call_us.p99", quantile(call_us, 0.99), "us");
  layer.set("eval.cache_hit_rate",
            lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  layer.set("eval.dup_in_gen_frac",
            calls > 0 ? static_cast<double>(dup) / calls : 0.0, "ratio");
  layer.set("eval.unique_frac",
            calls > 0 ? static_cast<double>(distinct) / calls : 0.0, "ratio");
  layer.set("eval.decode_us", decode / n, "us");
  layer.set("eval.compile_us", compile / n, "us");
  layer.set("eval.predict_us", predict / n, "us");
  layer.set("eval.cache_lookup_us", lookup / n, "us");
  layer.set("kernel.samples_per_s", sps / n, "1/s");
  const double refine_s = stage[static_cast<int>(core::FlowStage::kRefine)];
  layer.set("refine.trials", static_cast<double>(trials), "count");
  layer.set("refine.early_abort_rate",
            trials > 0 ? static_cast<double>(aborts) / trials : 0.0, "ratio");
  layer.set("refine.trials_per_s",
            refine_s > 0.0 ? static_cast<double>(trials) / refine_s : 0.0,
            "1/s");
  layer.set("backprop.samples_per_s", bp_sps / n, "1/s");
  const double hw_s = stage[static_cast<int>(core::FlowStage::kHardware)];
  layer.set("hw.candidates", static_cast<double>(candidates), "count");
  layer.set("hw.candidate_ms", candidates > 0 ? hw_s * 1e3 / candidates : 0.0,
            "ms");
}

/// Check bookkeeping: every check is an operation (a flow that finished
/// is one), every failed check a failed operation.
struct Gate {
  long checks = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

int run(const Args& args) {
  const Workload w = make_workload(args);
  const FrontPlan& plan = w.front;
  const fs::path out_dir = ".bench_out";
  fs::create_directories(out_dir);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + (args.trace ? "1" : "0");
  ScratchDir scratch(out_dir / ("work-" + tag + "-" +
                                std::to_string(::getpid())));
  Tracer tracer(args.trace);
  Metrics e2e, layer;
  Gate gate;
  long attempted = 0, failed = 0;

  std::ostringstream env;
  env << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"flow_threads\": " << (plan.campaign ? 1 : plan.threads)
      << ", \"campaign_pool\": " << (plan.campaign ? plan.threads : 0)
      << ", \"serve_pool\": " << kServePool << ", \"simd_isa\": \""
      << core::simd_isa_name(core::active_simd_isa())
      << "\", \"block_samples\": " << core::CompiledNet::kBlockSamples
      << ", \"population\": " << plan.population
      << ", \"generations\": " << plan.generations
      << ", \"epochs\": " << plan.epochs << ", \"flows\": "
      << plan.flows.size() << ", \"reps\": " << plan.reps
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"serve_base_rate\": " << kBaseRate
      << ", \"serve_p99_limit_us\": " << kP99LimitUs << "}";
  std::cerr << "perfbench: " << args.workload << " env " << env.str() << "\n";

  Span workload_span(tracer, "workload " + args.workload);

  // Warm-up outside every measurement: SIMD dispatch, allocator, page-ins.
  {
    FrontPlan warm;
    warm.datasets.push_back("BreastCancer");
    warm.flows.push_back({"warmup", 0, 1, 1});
    warm.population = 8;
    warm.generations = 2;
    warm.epochs = 5;
    core::FlowEngine engine(make_datasets(warm)[0],
                            core::paper_topology("BreastCancer"),
                            flow_config(warm, warm.flows[0], 1));
    (void)std::move(engine).run();
  }

  // Set-up: dataset synthesis, several times on every CPU, in CPU seconds.
  std::vector<pmlp::datasets::Dataset> data;
  double data_setup_s = 0.0;
  {
    Span span(tracer, "setup datasets", workload_span.id());
    data_setup_s = across_cpus(3, [&] {
      const double c0 = process_cpu_s();
      data = make_datasets(plan);
      return process_cpu_s() - c0;
    });
  }

  // Fronts: untraced passes (several for a campaign), each into its own tree.
  std::vector<FrontRun> runs;
  for (int r = 0; r < plan.reps; ++r) {
    Span span(tracer, "fronts", workload_span.id());
    runs.push_back(build_fronts(
        plan, data, (scratch.path / ("tree" + std::to_string(r))).string(),
        args.trace, tracer, span.id()));
  }
  const FrontRun& run0 = runs.front();
  // CPU time to the front: per pass, the mean over its flows (sequential
  // flows are different GA seeds, each its own amount of work) or its one
  // campaign; the median over passes.
  std::vector<double> ttf, ttf_cpu, pass_cpu;
  for (const auto& r : runs) {
    ttf.insert(ttf.end(), r.time_to_front_s.begin(), r.time_to_front_s.end());
    ttf_cpu.insert(ttf_cpu.end(), r.cpu_to_front_s.begin(),
                   r.cpu_to_front_s.end());
    pass_cpu.push_back(sum(r.cpu_to_front_s) /
                       static_cast<double>(r.cpu_to_front_s.size()));
  }
  std::vector<double> hv;
  std::vector<double> pick;
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    const std::string& name = plan.flows[i].name;
    for (const auto& r : runs) {
      gate.expect(r.errors[i].empty(),
                  "flow " + name + " failed: " + r.errors[i]);
    }
    if (!run0.errors[i].empty()) continue;
    const auto& res = run0.results[i];
    for (const auto& p : res.evaluated) {
      gate.expect(p.functional_match,
                  "flow " + name + ": a hardware-evaluated point has no "
                  "functional_match");
    }
    hv.push_back(front_hypervolume(res));
    pick.push_back(res.best ? res.area_reduction : 1.0);
    for (std::size_t r = 1; r < runs.size(); ++r) {
      if (runs[r].errors[i].empty()) {
        gate.expect(front_text(runs[r].results[i].front) ==
                        front_text(res.front),
                    "flow " + name + ": repeated pass built another front");
      }
    }
  }
  for (const auto& r : runs) gate.expect(r.rtl_ok, r.rtl_error);

  // Resume: fresh CampaignRunners over the finished tree, on one worker so
  // that the time is the read path's, not the pool's wake-ups. Every run
  // checks the first; traced runs time it several times on every CPU.
  std::vector<double> resume_s, resume_cpu;
  double resume_cpu_s = 0.0;
  core::CampaignResult resumed;
  {
    Span span(tracer, "resume", workload_span.id());
    const auto resume_once = [&] {
      auto rr = resume_tree(plan, data, run0.root, 1);
      resume_s.push_back(rr.wall_s);
      resume_cpu.push_back(rr.cpu_s);
      if (resume_s.size() == 1) resumed = std::move(rr.result);
      return rr.cpu_s;
    };
    resume_cpu_s = args.trace ? across_cpus(8, resume_once) : resume_once();
  }
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    const auto& f = resumed.flows[i];
    const std::string& name = plan.flows[i].name;
    if (f.status != core::CampaignFlowStatus::kDone || !f.result) {
      gate.expect(false, "resume of " + name + " did not finish: " + f.error);
      continue;
    }
    bool all_reused = true;
    for (const auto& st : f.result->stages) {
      if (st.stage != core::FlowStage::kSelect && !st.reused) {
        all_reused = false;
      }
    }
    gate.expect(all_reused, "resume of " + name + " recomputed a stage");
    if (!run0.errors[i].empty()) continue;
    std::string text = front_text(f.result->evaluated);
    if (args.inject == "resume-front" && i == 0) text += "x";
    gate.expect(text == front_text(run0.results[i].evaluated),
                "resume of " + name + " is not byte-identical");
  }

  // Traced replica of the same flows (traced runs only).
  if (args.trace) {
    double traced_wall = 0.0;
    std::vector<TracedFlow> traced;
    {
      Span span(tracer, "traced flows", workload_span.id());
      traced = run_traced_flows(plan, data, (scratch.path / "traced").string(),
                                tracer, span.id(), &traced_wall);
    }
    long untraced_evals = 0, untraced_trials = 0, untraced_candidates = 0;
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      const std::string& name = plan.flows[i].name;
      if (!traced[i].error.empty()) {
        gate.expect(false, "traced flow " + name + ": " + traced[i].error);
        continue;
      }
      if (!run0.errors[i].empty()) continue;
      const auto& res = run0.results[i];
      untraced_evals += res.training.evaluations;
      untraced_trials += res.refine.trials;
      untraced_candidates += static_cast<long>(res.evaluated.size());
      const auto ga_file = fs::path(run0.root) / name / "ga_front.txt";
      std::istringstream is(core::read_artifact_file(ga_file.string()));
      const auto ga = core::load_training_result(is);
      gate.expect(estimated_text(ga.estimated_pareto) ==
                      estimated_text(traced[i].ga_front),
                  "traced GA front of " + name + " differs from untraced");
      gate.expect(front_text(traced[i].result.front) == front_text(res.front),
                  "traced true front of " + name + " differs from untraced");
    }
    traced_metrics(traced, layer);
    // The exact counters must agree between the traced and untraced runs.
    gate.expect(layer.get("ga.evals", -1) == untraced_evals,
                "ga.evals differs between traced and untraced flows");
    gate.expect(layer.get("refine.trials", -1) == untraced_trials,
                "refine.trials differs between traced and untraced flows");
    gate.expect(layer.get("hw.candidates", -1) == untraced_candidates,
                "hw.candidates differs between traced and untraced flows");
    scheduler_metrics(run0, plan.flows.size(), layer);
    layer.set("rtl.points", static_cast<double>(run0.rtl_points), "count");
    layer.set("rtl.vectors", static_cast<double>(run0.rtl_vectors), "count");
    layer.set("rtl.verify_s", run0.rtl_verify_s, "s");
    const TreeSize tree = walk_tree(run0.root);
    layer.set("ckpt.files", static_cast<double>(tree.files), "count");
    layer.set("ckpt.bytes", static_cast<double>(tree.bytes), "bytes");
    static const char* kStage[] = {"split", "backprop", "baseline", "ga",
                                   "refine", "hardware"};
    for (int s = 0; s < 6; ++s) {
      layer.set(std::string("resume.stage_load_s.") + kStage[s],
                resumed.stages[static_cast<std::size_t>(s)].wall_seconds,
                "s");
    }
    layer.set("trace.overhead_s", traced_wall - run0.flows_wall_s, "s");
    layer.set("flow.time_to_front_s", median(ttf), "s");
    layer.set("resume.wall_s", median(resume_s), "s");
    layer.set("resume.cpu_s", resume_cpu_s, "s");
  }

  // Serve the front.
  std::vector<ServedFlow> served;
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    if (run0.errors[i].empty()) {
      served.push_back({plan.flows[i].name, &run0.results[i]});
    }
  }
  ServeOutcome so;
  {
    Span span(tracer, "serve", workload_span.id());
    so = run_serve_phase(run0.root, served, w.serve, mix(args.seed, 999),
                         tracer, span.id(), args.inject == "serve-answer",
                         layer);
  }
  attempted += so.attempted;
  failed += so.failed;
  gate.expect(so.checked > 0, "no served reply was sampled for checking");
  for (const auto& e : so.errors) gate.expect(false, "serve: " + e);

  e2e.set("time_to_front_cpu_s", median(pass_cpu), "s");
  e2e.set("setup_s", data_setup_s + so.setup_s, "s");
  e2e.set("front_hv", sum(hv) / static_cast<double>(std::max<std::size_t>(
                                    1, hv.size())),
          "frac");
  e2e.set("pick_area_reduction_x", geomean(pick), "x");
  workload_span.close();

  attempted += gate.checks;
  failed += static_cast<long>(gate.failures.size());
  e2e.set("ok_frac",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& f : gate.failures) {
    std::cerr << "perfbench: CHECK FAILED: " << f << "\n";
  }
  const bool correct = gate.failures.empty();

  // Side report: environment, every metric of this run, exact counters.
  {
    std::ofstream rep(out_dir / ("report-" + tag + ".json"));
    rep << "{\"workload\": \"" << args.workload << "\", \"env\": " << env.str()
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"checks\": " << gate.checks
        << ", \"serve_late\": " << so.late
        << ", \"serve_healthy_sub_windows\": " << so.healthy_sub_windows
        << ", \"serve_sub_windows\": " << so.sub_windows
        << ", \"time_to_front_samples_s\": [";
    for (std::size_t i = 0; i < ttf.size(); ++i) {
      rep << (i ? ", " : "") << ttf[i];
    }
    rep << "], \"time_to_front_cpu_samples_s\": [";
    for (std::size_t i = 0; i < ttf_cpu.size(); ++i) {
      rep << (i ? ", " : "") << ttf_cpu[i];
    }
    rep << "], \"resume_samples_s\": [";
    for (std::size_t i = 0; i < resume_s.size(); ++i) {
      rep << (i ? ", " : "") << resume_s[i];
    }
    rep << "], \"resume_cpu_samples_s\": [";
    for (std::size_t i = 0; i < resume_cpu.size(); ++i) {
      rep << (i ? ", " : "") << resume_cpu[i];
    }
    rep << "], \"serve_cpu_samples_us\": [";
    for (std::size_t i = 0; i < so.cpu_per_req_us.size(); ++i) {
      rep << (i ? ", " : "") << so.cpu_per_req_us[i];
    }
    rep << "], \"end_to_end\": ";
    write_metrics_json(rep, e2e);
    rep << ", \"per_layer\": ";
    write_metrics_json(rep, layer);
    rep << ", \"serve_ladder\": [";
    for (std::size_t i = 0; i < so.ladder.size(); ++i) {
      const auto& l = so.ladder[i];
      rep << (i ? ", " : "") << "{\"instance\": " << l.instance
          << ", \"rate\": " << l.rate << ", \"p50_us\": " << l.p50_us
          << ", \"p99_us\": " << l.p99_us
          << ", \"healthy\": " << (l.healthy ? "true" : "false")
          << ", \"pass\": " << (l.pass ? "true" : "false") << "}";
    }
    rep << "]";
    rep << ", \"exact\": [\"ga.evals\", \"refine.trials\", "
           "\"eval.dup_in_gen_frac\", \"rtl.points\", \"hw.candidates\", "
           "\"front_hv\", \"pick_area_reduction_x\"]}\n";
  }
  if (args.trace) {
    const auto path = out_dir / ("trace-" + tag + ".json");
    tracer.write_chrome_json(path.string());
    std::cerr << "perfbench: trace written to " << path.string() << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": ";
  write_metrics_json(std::cout, args.trace ? layer : e2e);
  std::cout << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pmlp_perfbench: " << e.what() << "\n" << kUsage << "\n";
    return 2;
  }
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!release) {
    std::cerr << "pmlp_perfbench: refusing to measure a '"
              << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "pmlp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
