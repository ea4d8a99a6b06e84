#include "flows.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <sstream>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/pareto.hpp"
#include "pmlp/core/problem.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"

namespace perfbench {

namespace core = pmlp::core;
namespace fs = std::filesystem;

std::vector<pmlp::datasets::Dataset> make_datasets(const FrontPlan& plan) {
  std::vector<pmlp::datasets::Dataset> out;
  out.reserve(plan.datasets.size());
  for (const auto& name : plan.datasets) {
    out.push_back(pmlp::datasets::generate(core::find_paper_spec(name)));
  }
  return out;
}

core::FlowConfig flow_config(const FrontPlan& plan, const FlowPlan& flow,
                             int threads) {
  core::FlowConfig cfg;
  cfg.split_seed = flow.split_seed;
  cfg.backprop.epochs = plan.epochs;
  cfg.trainer.ga.population = plan.population;
  cfg.trainer.ga.generations = plan.generations;
  cfg.trainer.ga.seed = flow.ga_seed;
  cfg.trainer.n_threads = threads;
  return cfg;
}

namespace {

const std::string& dataset_of(const FrontPlan& plan, const FlowPlan& flow) {
  return plan.datasets[flow.data];
}

/// verify_rtl over the true front of the given flows: recorded stimulus is
/// the head of each flow's test split, plus the default LFSR vectors.
void verify_fronts(const FrontPlan& plan, FrontRun& run,
                   const std::vector<std::size_t>& flows,
                   const std::string& outdir) {
  std::vector<core::RtlPointSpec> specs;
  const core::RtlExportOptions opts;
  for (const std::size_t i : flows) {
    if (!run.errors[i].empty()) continue;
    const auto& r = run.results[i];
    const auto& test = r.baseline.test;
    const std::size_t rows = std::min<std::size_t>(
        test.size(), static_cast<std::size_t>(opts.max_recorded_vectors));
    for (std::size_t p = 0; p < r.front.size(); ++p) {
      core::RtlPointSpec spec;
      spec.name = plan.flows[i].name + "_front_" + std::to_string(p);
      spec.model = r.front[p].model;
      spec.recorded.assign(
          test.codes.begin(),
          test.codes.begin() + static_cast<std::ptrdiff_t>(
                                   rows * static_cast<std::size_t>(
                                              test.n_features)));
      specs.push_back(std::move(spec));
    }
  }
  try {
    const auto report = core::verify_rtl(specs, outdir, opts);
    if (!report.all_passed(/*require_sim=*/false)) {
      run.rtl_ok = false;
      run.rtl_error = "verify_rtl: a simulated testbench failed";
    }
    for (const auto& p : report.points) {
      ++run.rtl_points;
      run.rtl_vectors += static_cast<long>(p.n_vectors());
    }
  } catch (const std::exception& e) {
    run.rtl_ok = false;
    run.rtl_error = std::string("verify_rtl: ") + e.what();
  }
}

core::CampaignFlowSpec campaign_spec(
    const FrontPlan& plan, const std::vector<pmlp::datasets::Dataset>& data,
    const FlowPlan& flow) {
  core::CampaignFlowSpec spec;
  spec.name = flow.name;
  spec.dataset = dataset_of(plan, flow);
  spec.data = data[flow.data];
  spec.topology = core::paper_topology(spec.dataset);
  spec.config = flow_config(plan, flow, 1);
  return spec;
}

}  // namespace

FrontRun build_fronts(const FrontPlan& plan,
                      const std::vector<pmlp::datasets::Dataset>& data,
                      const std::string& root, bool record_events,
                      Tracer& tracer, std::uint64_t parent) {
  FrontRun run;
  run.root = root;
  run.results.resize(plan.flows.size());
  run.errors.resize(plan.flows.size());
  fs::create_directories(root);
  const std::string rtl_root = root + "_rtl";
  run.start_s = now_s();

  if (!plan.campaign) {
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      const FlowPlan& flow = plan.flows[i];
      Span span(tracer, "flow " + flow.name, parent);
      core::FlowEngine engine(data[flow.data],
                              core::paper_topology(dataset_of(plan, flow)),
                              flow_config(plan, flow, plan.threads));
      engine.set_checkpoint_dir((fs::path(root) / flow.name).string());
      if (record_events) {
        engine.set_progress([&run, i](const core::StageReport& r) {
          run.events.push_back({i, r, now_s()});
        });
      }
      const double t0 = now_s();
      const double c0 = process_cpu_s();
      try {
        while (engine.advance()) {
        }
        run.results[i] = std::move(engine).run();
      } catch (const std::exception& e) {
        run.errors[i] = e.what();
      }
      const double flow_s = since(t0);
      run.flows_wall_s += flow_s;
      Span verify(tracer, "verify_rtl", span.id());
      verify_fronts(plan, run, {i}, (fs::path(rtl_root) / flow.name).string());
      const double verify_s = verify.close();
      run.rtl_verify_s += verify_s;
      run.time_to_front_s.push_back(flow_s + verify_s);
      run.cpu_to_front_s.push_back(process_cpu_s() - c0);
    }
    run.pool_threads = 1;
  } else {
    core::CampaignConfig cfg;
    cfg.n_threads = plan.threads;
    cfg.checkpoint_root = root;
    core::CampaignRunner runner(cfg);
    for (const auto& flow : plan.flows) {
      runner.add_flow(campaign_spec(plan, data, flow));
    }
    if (record_events) {
      runner.set_progress([&run](const core::CampaignProgress& p) {
        run.events.push_back({p.flow_index, p.stage, now_s()});
      });
    }
    Span span(tracer, "campaign", parent);
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    core::CampaignResult result = runner.run();
    run.flows_wall_s = since(t0);
    run.pool_threads = result.n_threads;
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      auto& outcome = result.flows[i];
      if (outcome.status == core::CampaignFlowStatus::kDone &&
          outcome.result) {
        run.results[i] = std::move(*outcome.result);
      } else {
        run.errors[i] = std::string(core::campaign_flow_status_name(
                            outcome.status)) +
                        ": " + outcome.error;
      }
    }
    span.close();
    std::vector<std::size_t> all(plan.flows.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    Span verify(tracer, "verify_rtl", parent);
    verify_fronts(plan, run, all, rtl_root);
    run.rtl_verify_s = verify.close();
    run.time_to_front_s.push_back(run.flows_wall_s + run.rtl_verify_s);
    run.cpu_to_front_s.push_back(process_cpu_s() - c0);
  }
  return run;
}

ResumeRun resume_tree(const FrontPlan& plan,
                      const std::vector<pmlp::datasets::Dataset>& data,
                      const std::string& root, int threads) {
  core::CampaignConfig cfg;
  cfg.n_threads = threads;
  cfg.checkpoint_root = root;
  core::CampaignRunner runner(cfg);
  for (const auto& flow : plan.flows) {
    runner.add_flow(campaign_spec(plan, data, flow));
  }
  ResumeRun out;
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  out.result = runner.run();
  out.wall_s = since(t0);
  out.cpu_s = process_cpu_s() - c0;
  return out;
}

namespace {

/// train_ga_axc's packaging of an NSGA-II result, over the public API.
core::TrainingResult training_result(const core::HwAwareProblem& problem,
                                     const pmlp::nsga2::Result& ga) {
  core::TrainingResult out;
  for (const auto& ind : ga.pareto_front) {
    core::EstimatedPoint p;
    p.model = problem.codec().decode(ind.genes);
    p.train_accuracy = 1.0 - ind.objectives[0];
    p.fa_area = static_cast<long>(ind.objectives[1]);
    out.estimated_pareto.push_back(std::move(p));
  }
  std::sort(out.estimated_pareto.begin(), out.estimated_pareto.end(),
            [](const core::EstimatedPoint& a, const core::EstimatedPoint& b) {
              return a.fa_area < b.fa_area;
            });
  out.evaluations = ga.evaluations;
  out.wall_seconds = ga.wall_seconds;
  out.baseline_train_accuracy = problem.baseline_accuracy();
  out.evals_per_second =
      ga.wall_seconds > 0.0
          ? static_cast<double>(ga.evaluations) / ga.wall_seconds
          : 0.0;
  const auto stats = problem.cache_stats();
  out.cache_hits = stats.hits;
  out.cache_hit_rate = stats.hit_rate();
  out.simd_isa = core::simd_isa_name(core::active_simd_isa());
  out.eval_block = core::CompiledNet::kBlockSamples;
  return out;
}

TracedFlow traced_flow(const FrontPlan& plan, const FlowPlan& flow,
                       const pmlp::datasets::Dataset& data, int threads,
                       const std::string& root, Tracer& tracer,
                       std::uint64_t parent, int lane) {
  TracedFlow out;
  const auto& topology = core::paper_topology(dataset_of(plan, flow));
  const core::FlowConfig cfg = flow_config(plan, flow, threads);
  const core::ChromosomeCodec codec(topology, cfg.trainer.bits);
  try {
    Span flow_span(tracer, "flow " + flow.name, parent, lane);
    core::FlowEngine engine(data, topology, cfg);
    // A checkpoint tree of its own, so the traced flow writes the same
    // artifacts as the untraced one.
    const fs::path dir = fs::path(root) / flow.name;
    engine.set_checkpoint_dir(dir.string());
    const auto timed_advance = [&] {
      Span span(tracer, "advance", flow_span.id(), lane);
      const auto stage = engine.advance();
      const double dt = span.close();
      if (stage) out.stage_s[static_cast<int>(*stage)] += dt;
      return stage;
    };
    for (;;) {
      const auto stage = timed_advance();
      if (!stage || *stage == core::FlowStage::kBaseline) break;
    }
    {
      Span ga_span(tracer, "ga", flow_span.id(), lane);
      const core::HwAwareProblem problem(codec, engine.split().train,
                                         engine.baseline().net,
                                         cfg.trainer.problem);
      ProbeProblem probe(problem, tracer, ga_span.id(), lane, 256, 25);
      pmlp::nsga2::Config ga_cfg = cfg.trainer.ga;
      ga_cfg.n_threads = cfg.trainer.n_threads;
      ga_cfg.on_generation =
          [&probe](int generation,
                   const std::vector<pmlp::nsga2::Individual>& pop) {
            probe.end_generation(generation, pop);
          };
      probe.start();
      const auto ga = pmlp::nsga2::optimize(probe, ga_cfg);
      probe.finish();
      auto training = training_result(problem, ga);
      out.ga_front = training.estimated_pareto;
      // An injected stage is not checkpointed; write its artifact here.
      core::write_artifact_file((dir / "ga_front.txt").string(),
                                [&](std::ostream& os) {
                                  core::save_training_result(training, os);
                                });
      engine.provide_training(std::move(training));
      out.stage_s[static_cast<int>(core::FlowStage::kGa)] = ga_span.close();
      out.probe = probe.stats();
      out.captured = probe.captured();
    }
    while (timed_advance()) {
    }
    out.result = std::move(engine).run();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

std::vector<TracedFlow> run_traced_flows(
    const FrontPlan& plan, const std::vector<pmlp::datasets::Dataset>& data,
    const std::string& root, Tracer& tracer, std::uint64_t parent,
    double* wall_s) {
  std::vector<TracedFlow> out(plan.flows.size());
  const double t0 = now_s();
  if (!plan.campaign) {
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      const auto& flow = plan.flows[i];
      out[i] = traced_flow(plan, flow, data[flow.data], plan.threads, root,
                           tracer, parent, 0);
    }
  } else {
    // Campaign shape: every flow's stages serial, flows spread over a pool
    // of plan.threads workers.
    core::ThreadPool pool(plan.threads);
    std::vector<std::future<TracedFlow>> futures;
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        const auto& flow = plan.flows[i];
        return traced_flow(plan, flow, data[flow.data], 1, root, tracer,
                           parent, 1000 * static_cast<int>(i + 1));
      }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) out[i] = futures[i].get();
  }
  *wall_s = since(t0);
  // After the timed flows: re-time one evaluation's layers, single-threaded.
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].error.empty()) continue;
    const auto& flow = plan.flows[i];
    const core::ChromosomeCodec codec(
        core::paper_topology(dataset_of(plan, flow)),
        flow_config(plan, flow, 1).trainer.bits);
    out[i].replay = replay_evaluations(codec, out[i].result.baseline.train,
                                       out[i].captured);
  }
  return out;
}

std::string front_text(const std::vector<core::HwEvaluatedPoint>& points) {
  std::ostringstream os;
  core::save_evaluated_points(points, os);
  return os.str();
}

std::string estimated_text(const std::vector<core::EstimatedPoint>& points) {
  std::ostringstream os;
  for (const auto& p : points) {
    core::write_hexdouble(os, p.train_accuracy);
    os << ' ' << p.fa_area << '\n';
    core::save_model(p.model, os);
  }
  return os.str();
}

double front_hypervolume(const core::FlowResult& r) {
  const double base_area = r.baseline.baseline_cost.area_mm2;
  if (base_area <= 0.0) return 0.0;
  std::vector<core::Point2> pts;
  for (const auto& p : r.front) {
    pts.push_back({1.0 - p.test_accuracy, p.cost.area_mm2 / base_area});
  }
  return core::hypervolume2(pts, 1.0, 1.0);
}

TreeSize walk_tree(const std::string& root) {
  TreeSize out;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(root, ec)) {
    if (e.is_regular_file(ec)) {
      ++out.files;
      out.bytes += static_cast<long>(e.file_size(ec));
    }
  }
  return out;
}

}  // namespace perfbench
