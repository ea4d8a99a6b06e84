#include "pmlp/core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pmlp/core/serialize.hpp"
#include "pmlp/core/thread_pool.hpp"

namespace pmlp::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* campaign_flow_status_name(CampaignFlowStatus s) {
  switch (s) {
    case CampaignFlowStatus::kPending: return "pending";
    case CampaignFlowStatus::kDone: return "done";
    case CampaignFlowStatus::kFailed: return "failed";
    case CampaignFlowStatus::kStopped: return "stopped";
  }
  return "?";
}

// --------------------------------------------------------------- scheduler

void drain_campaign(ClaimStore& store, const std::atomic<bool>& stop) {
  while (const auto claim = store.claim()) {
    try {
      std::optional<FlowStage> computed;
      bool finished = false;
      while (!stop.load()) {
        const auto stage = claim->engine->advance();
        if (!stage) {
          finished = true;
          break;
        }
        const StageReport& report = claim->engine->stages().back();
        store.on_stage(*claim, report);
        // kSelect is derived (never checkpointed): computing it is not a
        // commit point, so the claim runs on to the completion branch.
        if (!report.reused && *stage != FlowStage::kSelect) {
          computed = stage;
          break;
        }
      }
      if (finished) {
        store.complete(*claim);
      } else {
        store.release(*claim, computed);
      }
    } catch (const std::exception& e) {
      store.fail(*claim, e.what());
    } catch (...) {
      store.fail(*claim, "unknown error");
    }
  }
}

// ------------------------------------------------------------------ runner

/// In-memory claim store: every flow keeps its engine across claims, and
/// unclaimed flows wait in a FIFO, so a released flow goes to the back
/// (round-robin at stage granularity).
struct CampaignRunner::Impl final : ClaimStore {
  struct Flow {
    CampaignFlowSpec spec;
    std::unique_ptr<FlowEngine> engine;  ///< null once the flow is terminal
    CampaignFlowOutcome outcome;
    std::chrono::steady_clock::time_point started{};
  };

  CampaignConfig cfg;
  CampaignCallback progress;
  std::vector<Flow> flows;
  std::atomic<bool> stop{false};
  bool ran = false;

  std::mutex mutex;  ///< guards everything below
  std::condition_variable cv;
  std::deque<std::size_t> ready;
  int claimed = 0;
  int done = 0;  ///< terminal flows
  CampaignResult result;

  std::optional<Claim> claim() override {
    std::unique_lock<std::mutex> lock(mutex);
    // Non-terminal flows are either ready or claimed: nothing ready and
    // nothing claimed means every flow is terminal. `stop` is set without
    // the mutex (request_stop() may run in a signal handler), but a
    // waiter only blocks while a flow is claimed, and the end of that
    // claim notifies.
    cv.wait(lock,
            [this] { return stop.load() || !ready.empty() || claimed == 0; });
    if (stop.load() || ready.empty()) return std::nullopt;
    const std::size_t i = ready.front();
    ready.pop_front();
    ++claimed;
    Flow& f = flows[i];
    if (f.started == std::chrono::steady_clock::time_point{}) {
      f.started = std::chrono::steady_clock::now();
    }
    return Claim{i, f.engine.get()};
  }

  void on_stage(const Claim& c, const StageReport& rep) override {
    std::lock_guard<std::mutex> lock(mutex);
    auto& roll = result.stages[static_cast<int>(rep.stage)];
    roll.wall_seconds += rep.wall_seconds;
    roll.items += rep.items;
    ++roll.executed;
    if (rep.reused) ++roll.reused;
    result.stage_wall_seconds += rep.wall_seconds;
    if (!progress) return;
    try {
      progress(CampaignProgress{c.flow, flows[c.flow].spec.name, rep, done,
                                static_cast<int>(flows.size())});
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("progress callback: ") + e.what());
    }
  }

  void complete(const Claim& c) override {
    Flow& f = flows[c.flow];
    // Cheap assembly: the artifacts move out of the engine.
    f.outcome.result = std::move(*f.engine).run();
    if (!cfg.checkpoint_root.empty()) {
      // Terminal marker of the tree protocol (worker.hpp): workers and
      // `campaign status` treat a done.txt flow as finished. Advisory
      // only — a failure to write it never fails the flow.
      try {
        write_artifact_file(
            (std::filesystem::path(cfg.checkpoint_root) / f.spec.name /
             "done.txt")
                .string(),
            [](std::ostream& os) { save_record(DoneMarker{"-"}, os); });
      } catch (const std::exception&) {
      }
    }
    finish(f, CampaignFlowStatus::kDone, "");
  }

  void fail(const Claim& c, const std::string& error) override {
    finish(flows[c.flow], CampaignFlowStatus::kFailed, error);
  }

  void release(const Claim& c, std::optional<FlowStage>) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready.push_back(c.flow);
      --claimed;
    }
    cv.notify_all();  // on stop, every waiter must wake up and leave
  }

  void finish(Flow& f, CampaignFlowStatus status, const std::string& error) {
    f.outcome.status = status;
    f.outcome.error = error;
    f.outcome.wall_seconds = seconds_since(f.started);
    f.engine.reset();  // free the artifacts of failed flows eagerly
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++(status == CampaignFlowStatus::kDone ? result.completed
                                             : result.failed);
      ++done;
      --claimed;
    }
    cv.notify_all();
  }
};

CampaignRunner::CampaignRunner(CampaignConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
}

CampaignRunner::~CampaignRunner() = default;

std::size_t CampaignRunner::add_flow(CampaignFlowSpec spec) {
  if (impl_->ran) {
    throw std::logic_error("CampaignRunner: add_flow after run()");
  }
  if (spec.name.empty() || spec.name == "." || spec.name == ".." ||
      spec.name.find('/') != std::string::npos) {
    throw std::invalid_argument(
        "CampaignRunner: flow name must be a non-empty path component, got '" +
        spec.name + "'");
  }
  for (const auto& f : impl_->flows) {
    if (f.spec.name == spec.name) {
      throw std::invalid_argument("CampaignRunner: duplicate flow name '" +
                                  spec.name + "'");
    }
  }
  Impl::Flow f;
  f.outcome.name = spec.name;
  f.outcome.dataset = spec.dataset;
  f.outcome.topology = spec.topology;
  f.spec = std::move(spec);
  impl_->flows.push_back(std::move(f));
  return impl_->flows.size() - 1;
}

CampaignRunner& CampaignRunner::set_progress(CampaignCallback cb) {
  impl_->progress = std::move(cb);
  return *this;
}

void CampaignRunner::request_stop() { impl_->stop.store(true); }

CampaignResult CampaignRunner::run() {
  Impl& im = *impl_;
  if (im.ran) {
    throw std::logic_error("CampaignRunner::run() is one-shot");
  }
  im.ran = true;
  const auto t0 = std::chrono::steady_clock::now();
  const int threads = resolve_n_threads(im.cfg.n_threads);

  // Build every engine up front. Stages run serially inside a flow, so N
  // flows never oversubscribe the campaign's threads — bit-identical to
  // any other thread setting by the engines' determinism contract.
  for (std::size_t i = 0; i < im.flows.size(); ++i) {
    auto& f = im.flows[i];
    FlowConfig cfg = f.spec.config;
    cfg.trainer.n_threads = 1;
    cfg.trainer.ga.n_threads = 1;
    cfg.hardware.n_threads = 1;
    f.engine = std::make_unique<FlowEngine>(std::move(f.spec.data),
                                            f.spec.topology, cfg);
    if (!im.cfg.checkpoint_root.empty()) {
      f.engine->set_checkpoint_dir(
          (std::filesystem::path(im.cfg.checkpoint_root) / f.spec.name)
              .string());
    }
    im.ready.push_back(i);
  }

  // No more threads than flows. The calling thread only waits: draining
  // on it as well measured 4-7% more CPU time on the campaign-suite
  // benchmark (10 flows, 4 threads, 4-vCPU x86 VM).
  {
    std::vector<std::jthread> drainers;
    for (int t = 0; t < std::min<int>(threads, im.flows.size()); ++t) {
      drainers.emplace_back([&im] { drain_campaign(im, im.stop); });
    }
  }

  // Flows the stop left unfinished: kPending when none of their stages
  // ran (nothing to resume), kStopped otherwise (checkpoint resumable).
  CampaignResult out = std::move(im.result);
  for (auto& f : im.flows) {
    if (!f.engine) continue;  // terminal
    const bool ran_stage = !f.engine->stages().empty();
    f.outcome.status =
        ran_stage ? CampaignFlowStatus::kStopped : CampaignFlowStatus::kPending;
    f.outcome.wall_seconds = ran_stage ? seconds_since(f.started) : 0.0;
    ++(ran_stage ? out.stopped : out.pending);
    f.engine.reset();
  }
  out.n_threads = threads;
  out.wall_seconds = seconds_since(t0);
  out.flows.reserve(im.flows.size());
  for (auto& f : im.flows) out.flows.push_back(std::move(f.outcome));
  return out;
}

// -------------------------------------------------------------- JSON report

void write_campaign_report_json(const CampaignResult& result,
                                std::ostream& os) {
  std::ostringstream body;
  body.precision(17);
  body << "{\"campaign\":{\"n_threads\":" << result.n_threads
       << ",\"flows_total\":" << result.flows.size()
       << ",\"completed\":" << result.completed
       << ",\"failed\":" << result.failed
       << ",\"stopped\":" << result.stopped
       << ",\"pending\":" << result.pending
       << ",\"wall_seconds\":" << result.wall_seconds
       << ",\"stage_wall_seconds\":" << result.stage_wall_seconds
       << ",\"flows_per_second\":" << result.flows_per_second();
  body << ",\"stage_rollup\":{";
  bool first = true;
  for (int s = 0; s < kNumFlowStages; ++s) {
    const auto& roll = result.stages[s];
    if (roll.executed == 0) continue;
    if (!first) body << ",";
    first = false;
    body << "\"" << flow_stage_name(static_cast<FlowStage>(s))
         << "\":{\"wall_seconds\":" << roll.wall_seconds
         << ",\"items\":" << roll.items << ",\"executed\":" << roll.executed
         << ",\"reused\":" << roll.reused << "}";
  }
  body << "},\"flows\":[";
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const auto& f = result.flows[i];
    if (i) body << ",";
    body << "{\"name\":";
    json_escape(f.name, body);
    body << ",\"dataset\":";
    json_escape(f.dataset, body);
    body << ",\"status\":\"" << campaign_flow_status_name(f.status)
         << "\",\"error\":";
    if (f.error.empty()) {
      body << "null";
    } else {
      json_escape(f.error, body);
    }
    body << ",\"wall_seconds\":" << f.wall_seconds << ",\"report\":";
    if (f.result) {
      std::ostringstream report;
      write_flow_report_json(*f.result, f.dataset, f.topology, report);
      std::string text = report.str();
      while (!text.empty() && text.back() == '\n') text.pop_back();
      body << text;
    } else {
      body << "null";
    }
    body << "}";
  }
  body << "]}}";
  os << body.str() << '\n';
}

}  // namespace pmlp::core
