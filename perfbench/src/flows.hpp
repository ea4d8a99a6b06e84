// Front building for every workload: the paper datasets, the untraced
// flows (one FlowEngine at a time, or one CampaignRunner over a shared
// pool) writing a checkpoint tree, verify_rtl over every front point, the
// resume of the finished tree, and the traced replica of the same flows
// whose GA runs through the ProbeProblem decorator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmlp/core/campaign.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

struct FlowPlan {
  std::string name;      ///< checkpoint subdirectory, "Pendigits_s0"
  std::size_t data = 0;  ///< index into FrontPlan::datasets
  std::uint64_t split_seed = 1;
  std::uint64_t ga_seed = 1;
};

struct FrontPlan {
  /// Table I names; each is its deterministic synthetic stand-in, so the
  /// workload seed varies splits and GA seeds over fixed data.
  std::vector<std::string> datasets;
  std::vector<FlowPlan> flows;
  int population = 0;
  int generations = 0;
  int epochs = 150;
  /// true: all flows in one CampaignRunner over a pool of `threads`
  /// workers (each flow's stages run serially). false: one FlowEngine at a
  /// time, each stage on `threads` workers.
  bool campaign = false;
  int threads = 4;
  int reps = 1;  ///< campaign mode: repetitions of the whole campaign
};

/// The datasets of a plan, in plan order.
[[nodiscard]] std::vector<pmlp::datasets::Dataset> make_datasets(
    const FrontPlan& plan);

/// The FlowConfig of one planned flow at `threads` flow-wide workers.
[[nodiscard]] pmlp::core::FlowConfig flow_config(const FrontPlan& plan,
                                                 const FlowPlan& flow,
                                                 int threads);

/// A stage completion as the engine or campaign reported it.
struct StageEvent {
  std::size_t flow = 0;
  pmlp::core::StageReport stage;
  double end_s = 0.0;
};

/// One untraced front-building pass into its own checkpoint tree.
struct FrontRun {
  std::string root;
  std::vector<pmlp::core::FlowResult> results;  ///< plan order
  std::vector<std::string> errors;              ///< plan order, "" = ok
  /// time_to_front samples: per flow (sequential) or per campaign, each
  /// the flows' wall plus verify_rtl of their front points.
  std::vector<double> time_to_front_s;
  /// The same samples in CPU seconds of the whole process.
  std::vector<double> cpu_to_front_s;
  double flows_wall_s = 0.0;  ///< flows only, whole pass
  double start_s = 0.0;
  int pool_threads = 1;
  long rtl_points = 0;
  long rtl_vectors = 0;
  double rtl_verify_s = 0.0;
  bool rtl_ok = true;
  std::string rtl_error;
  std::vector<StageEvent> events;  ///< recorded only when asked
};

/// Build the fronts of `plan` under `root`; `record_events` installs the
/// progress callbacks (traced runs only).
[[nodiscard]] FrontRun build_fronts(
    const FrontPlan& plan, const std::vector<pmlp::datasets::Dataset>& data,
    const std::string& root, bool record_events, Tracer& tracer,
    std::uint64_t parent);

/// A fresh CampaignRunner over a finished tree: every stage reloads.
struct ResumeRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU seconds
  pmlp::core::CampaignResult result;
};
[[nodiscard]] ResumeRun resume_tree(
    const FrontPlan& plan, const std::vector<pmlp::datasets::Dataset>& data,
    const std::string& root, int threads);

/// One flow run with tracing: stage spans around FlowEngine::advance(), GA
/// through nsga2::optimize on a ProbeProblem, handed back with
/// provide_training(). Each flow checkpoints under `root`, as the untraced
/// flows do.
struct TracedFlow {
  pmlp::core::FlowResult result;
  std::vector<pmlp::core::EstimatedPoint> ga_front;  ///< before refine
  GaProbeStats probe;
  std::vector<std::vector<int>> captured;  ///< genomes for the replay
  ReplayStats replay;
  double stage_s[pmlp::core::kNumFlowStages] = {};
  std::string error;
};
[[nodiscard]] std::vector<TracedFlow> run_traced_flows(
    const FrontPlan& plan, const std::vector<pmlp::datasets::Dataset>& data,
    const std::string& root, Tracer& tracer, std::uint64_t parent,
    double* wall_s);

/// Canonical text of a front (every point's model, accuracy and cost), for
/// byte-identity checks.
[[nodiscard]] std::string front_text(
    const std::vector<pmlp::core::HwEvaluatedPoint>& points);
[[nodiscard]] std::string estimated_text(
    const std::vector<pmlp::core::EstimatedPoint>& points);

/// Hypervolume of a flow's true front in (test accuracy, area reduction
/// versus its baseline), reference (0, 0): a share of the unit square.
[[nodiscard]] double front_hypervolume(const pmlp::core::FlowResult& r);

/// Files and bytes under a directory tree.
struct TreeSize {
  long files = 0;
  long bytes = 0;
};
[[nodiscard]] TreeSize walk_tree(const std::string& root);

}  // namespace perfbench
