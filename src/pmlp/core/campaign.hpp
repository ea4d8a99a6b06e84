// Campaign scheduler: one drain loop over N independent FlowEngines
// (dataset x seed x config grid), whether the grid runs inside one process
// (CampaignRunner, below) or across `pmlp campaign --worker` processes
// (CampaignWorker, worker.hpp).
//
// The loop (drain_campaign). Claim the next non-terminal flow round-robin,
// advance it until one stage is computed (checkpoint reloads ride along;
// the derived select stage is not a commit point), report every stage,
// then finish the claim: publish the result and `done.txt` when the
// pipeline completed, record the throw when a stage failed, or release
// the flow for the next claim. request_stop() is checked between stages.
// Stage granularity gives round-robin fairness across flows, and a slow
// flow never pins a thread for its whole pipeline.
//
// The two modes differ only in their ClaimStore:
// - in-memory (CampaignRunner): claims are exclusive under one mutex, each
//   flow keeps its FlowEngine across claims, the first throw fails the
//   flow, and idle threads block on a condition variable. The loop runs
//   on CampaignConfig::n_threads threads — the campaign's whole thread
//   budget: every flow runs its stages serially (TrainerConfig::n_threads
//   is forced to 1), and since every stage is bit-identical for any thread
//   count, each flow's result is exactly what run_flow() would produce.
// - lease directory (CampaignWorker): one thread per process, claims are
//   lease files with heartbeats and fencing, each claim builds a fresh
//   engine from the tree, and failures count up to `max_failures`.
//
// Checkpointing. With a checkpoint_root, flow `name` persists under
// `<root>/<name>/` through the ordinary FlowEngine artifact formats, so a
// killed campaign restarts cheaply: a later run with the same specs reloads
// every completed stage bit-identically and recomputes only what is missing.
// Runner- and worker-written trees are interchangeable.
//
// Failure isolation. A flow that throws (corrupt checkpoint, bad artifact,
// ...) is recorded as failed with its error message; the remaining flows run
// to completion.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pmlp/core/flow_engine.hpp"

namespace pmlp::core {

/// One independent flow of the campaign grid.
struct CampaignFlowSpec {
  /// Unique within the campaign; also the checkpoint subdirectory name, so
  /// it must be a valid path component ("Cardio_s2").
  std::string name;
  std::string dataset;  ///< display name for reports
  datasets::Dataset data;
  mlp::Topology topology;
  /// Per-flow flow config. CampaignRunner ignores the thread counts (flows
  /// share its threads and run their stages serially); results are
  /// unchanged because every stage is bit-identical for any setting.
  FlowConfig config;
};

enum class CampaignFlowStatus {
  kPending,  ///< never started: the campaign never ran, or request_stop()
             ///< hit before any of the flow's stages executed
  kDone,
  kFailed,   ///< threw; see `error` — other flows are unaffected
  kStopped,  ///< request_stop() hit it mid-pipeline; checkpoint is resumable
};

[[nodiscard]] const char* campaign_flow_status_name(CampaignFlowStatus s);

/// Outcome of one flow (per-flow slice of the CampaignResult).
struct CampaignFlowOutcome {
  std::string name;
  std::string dataset;
  mlp::Topology topology;
  CampaignFlowStatus status = CampaignFlowStatus::kPending;
  std::string error;                 ///< non-empty iff kFailed
  std::optional<FlowResult> result;  ///< set iff kDone
  /// Wall span from the flow's first scheduled stage to its completion
  /// (includes time interleaved with other flows' stages).
  double wall_seconds = 0.0;
};

/// Per-stage aggregate over every flow of the campaign.
struct CampaignStageRollup {
  double wall_seconds = 0.0;  ///< summed stage walls (compute or reload)
  long items = 0;             ///< summed stage work counters
  int executed = 0;           ///< stage runs, reloads included
  int reused = 0;             ///< of which checkpoint reloads
};

struct CampaignResult {
  std::vector<CampaignFlowOutcome> flows;  ///< add_flow() order
  double wall_seconds = 0.0;       ///< campaign wall clock
  double stage_wall_seconds = 0.0;  ///< summed per-stage wall spans over all
                                    ///< flows (exceeds wall_seconds when
                                    ///< flows overlap workers)
  /// Indexed by static_cast<int>(FlowStage).
  std::array<CampaignStageRollup, kNumFlowStages> stages{};
  int n_threads = 1;  ///< scheduler thread count
  int completed = 0;
  int failed = 0;
  int stopped = 0;
  int pending = 0;  ///< stopped before any stage ran
  [[nodiscard]] bool all_ok() const {
    return failed == 0 && stopped == 0 && pending == 0;
  }
  [[nodiscard]] double flows_per_second() const {
    return wall_seconds > 0.0 ? completed / wall_seconds : 0.0;
  }
};

/// Progress event: one stage of one flow completed (or reloaded).
struct CampaignProgress {
  std::size_t flow_index = 0;
  const std::string& flow_name;
  StageReport stage;
  int flows_done = 0;  ///< done + failed so far
  int flows_total = 0;
};
/// Invoked from scheduler threads, serialized by the runner (never
/// concurrently). Throwing from the callback fails the current flow.
using CampaignCallback = std::function<void(const CampaignProgress&)>;

struct CampaignConfig {
  /// Scheduler threads: 0 = all hardware threads, N = N threads. This is
  /// the campaign's TOTAL thread budget — flows never spawn pools of their
  /// own.
  int n_threads = 0;
  /// Per-flow checkpoint subdirectories live under this root (created on
  /// demand); empty disables checkpointing.
  std::string checkpoint_root;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg);
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Register a flow; returns its index (reported order). Throws
  /// std::invalid_argument on an empty or duplicate name.
  std::size_t add_flow(CampaignFlowSpec spec);

  CampaignRunner& set_progress(CampaignCallback cb);

  /// Stop scheduling new stages (in-flight stages finish). Flows that have
  /// not completed are reported kStopped (or kPending if never started);
  /// their checkpoints remain resumable. Safe from any thread, including
  /// the progress callback, and from a signal handler (one atomic store).
  void request_stop();

  /// Run every flow to completion (or failure) and aggregate. One-shot:
  /// a runner cannot be reused after run() returns.
  [[nodiscard]] CampaignResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --------------------------------------------------------------- scheduler

/// Where a campaign's flows live and who may advance them: the only part
/// of the scheduler that differs between CampaignRunner (in-memory) and
/// CampaignWorker (lease directory).
class ClaimStore {
 public:
  /// The right to advance one flow's engine until the claim ends.
  struct Claim {
    std::size_t flow = 0;
    FlowEngine* engine = nullptr;
  };

  virtual ~ClaimStore() = default;

  /// The next non-terminal flow, round-robin. Waits while every such flow
  /// is claimed elsewhere; nullopt once all are terminal or on stop.
  virtual std::optional<Claim> claim() = 0;
  /// One stage of the claimed flow ran or reloaded. A throw fails the flow.
  virtual void on_stage(const Claim& c, const StageReport& report) = 0;
  /// Every stage is done: publish the result and `done.txt`, end the
  /// claim. A throw (before anything is published) fails the flow.
  virtual void complete(const Claim& c) = 0;
  /// A stage, on_stage() or complete() threw: record it, end the claim.
  virtual void fail(const Claim& c, const std::string& error) = 0;
  /// End the claim with the flow unfinished: after `computed` committed,
  /// or (nullopt) because stop was requested.
  virtual void release(const Claim& c, std::optional<FlowStage> computed) = 0;
};

/// The campaign scheduler loop: claim, advance to one computed stage,
/// finish the claim; until claim() returns nullopt. `stop` is checked
/// between stages. The only place a campaign calls FlowEngine::advance().
void drain_campaign(ClaimStore& store, const std::atomic<bool>& stop);

/// Machine-readable campaign report: totals, per-stage rollups and one full
/// flow report (write_flow_report_json) per completed flow.
void write_campaign_report_json(const CampaignResult& result,
                                std::ostream& os);

}  // namespace pmlp::core
