#include "probe.hpp"

#include <algorithm>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "report.hpp"

namespace perfbench {

namespace core = pmlp::core;
namespace nsga2 = pmlp::nsga2;

namespace {

/// Two independent 64-bit hashes of a genome: FNV-1a and a splitmix-style
/// mix. Distinct genomes colliding on both is not a practical concern.
std::array<std::uint64_t, 2> genome_hash(std::span<const int> genes) {
  std::uint64_t fnv = 1469598103934665603ull;
  std::uint64_t mix = 0x243F6A8885A308D3ull;
  for (const int g : genes) {
    const auto v = static_cast<std::uint32_t>(g);
    fnv = (fnv ^ v) * 1099511628211ull;
    mix += v + 0x9E3779B97F4A7C15ull;
    mix = (mix ^ (mix >> 30)) * 0xBF58476D1CE4E5B9ull;
    mix = (mix ^ (mix >> 27)) * 0x94D049BB133111EBull;
    mix ^= mix >> 31;
  }
  return {fnv, mix};
}

}  // namespace

struct ProbeProblem::ProbeWorkspace final : nsga2::Problem::Workspace {
  std::unique_ptr<nsga2::Problem::Workspace> inner;
  int lane = 0;
  std::vector<Call> calls;  ///< this generation's calls, in call order
};

ProbeProblem::ProbeProblem(const core::HwAwareProblem& inner, Tracer& tracer,
                           std::uint64_t parent, int lane_base, int capture,
                           int span_every)
    : inner_(inner),
      tracer_(tracer),
      parent_(parent),
      lane_base_(lane_base),
      capture_(static_cast<std::size_t>(std::max(0, capture))),
      span_every_(std::max(1, span_every)) {}

std::unique_ptr<nsga2::Problem::Workspace> ProbeProblem::make_workspace()
    const {
  auto ws = std::make_unique<ProbeWorkspace>();
  ws->inner = inner_.make_workspace();
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  ws->lane = static_cast<int>(lanes_.size());
  lanes_.push_back(ws.get());
  return ws;
}

nsga2::Problem::Evaluation ProbeProblem::evaluate(std::span<const int> genes,
                                                  Workspace* ws) const {
  auto* probe = dynamic_cast<ProbeWorkspace*>(ws);
  if (probe == nullptr) return inner_.evaluate(genes, ws);
  Call call;
  call.start_s = now_s();
  auto ev = inner_.evaluate(genes, probe->inner.get());
  call.end_s = now_s();
  call.hash = genome_hash(genes);
  probe->calls.push_back(call);
  return ev;
}

void ProbeProblem::start() {
  run_start_s_ = now_s();
  generation_start_s_ = run_start_s_;
}

void ProbeProblem::end_generation(int generation,
                                  const std::vector<nsga2::Individual>& pop) {
  const double end_s = now_s();
  const std::uint64_t gen_span =
      tracer_.record("generation", generation_start_s_, end_s, parent_,
                     lane_base_);
  const bool sampled = generation % span_every_ == 0;
  const bool spans = tracer_.enabled() && sampled;

  std::unordered_set<std::array<std::uint64_t, 2>, HashOf> in_generation;
  double phase_start = end_s;
  double phase_end = generation_start_s_;
  long calls = 0;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  stats_.lanes = std::max(stats_.lanes, static_cast<int>(lanes_.size()));
  for (ProbeWorkspace* lane : lanes_) {
    for (const Call& c : lane->calls) {
      ++calls;
      phase_start = std::min(phase_start, c.start_s);
      phase_end = std::max(phase_end, c.end_s);
      stats_.busy_s += c.end_s - c.start_s;
      stats_.call_us.push_back((c.end_s - c.start_s) * 1e6);
      if (!in_generation.insert(c.hash).second) ++stats_.dup_in_generation;
      seen_.insert(c.hash);
      if (spans) {
        tracer_.record("evaluate", c.start_s, c.end_s, gen_span,
                       lane_base_ + 1 + lane->lane);
      }
    }
    lane->calls.clear();
  }
  stats_.calls += calls;
  if (calls > 0) stats_.eval_phase_s += phase_end - phase_start;
  stats_.generation_s.push_back(end_s - generation_start_s_);
  generation_start_s_ = end_s;

  // Capture a few survivors of every sampled generation, so the replay
  // sees early dense genomes and late pruned ones alike.
  std::size_t quota = sampled ? 8 : 0;
  for (const auto& ind : pop) {
    if (quota == 0 || captured_.size() >= capture_) break;
    if (std::find(captured_.begin(), captured_.end(), ind.genes) ==
        captured_.end()) {
      captured_.push_back(ind.genes);
      --quota;
    }
  }
}

void ProbeProblem::finish() {
  stats_.ga_wall_s = now_s() - run_start_s_;
  stats_.distinct = static_cast<long>(seen_.size());
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  lanes_.clear();  // the workspaces died with optimize()'s evaluator
}

ReplayStats replay_evaluations(const core::ChromosomeCodec& codec,
                               const pmlp::datasets::QuantizedDataset& train,
                               const std::vector<std::vector<int>>& genomes) {
  ReplayStats out;
  if (genomes.empty() || train.size() == 0) return out;
  std::vector<double> decode_us, compile_us, predict_us, lookup_us;
  core::EvalWorkspace ws;
  core::EvalCache cache(genomes.size());
  for (const auto& g : genomes) {
    cache.insert(g, nsga2::Problem::Evaluation{{0.0, 0.0}, 0.0});
  }
  long checksum = 0;
  for (const auto& g : genomes) {
    double t0 = now_s();
    const core::ApproxMlp model = codec.decode(g);
    decode_us.push_back(since(t0) * 1e6);
    t0 = now_s();
    const core::CompiledNet net(model);
    compile_us.push_back(since(t0) * 1e6);
    t0 = now_s();
    const auto preds = net.predict_batch(train, ws);
    predict_us.push_back(since(t0) * 1e6);
    checksum += preds.empty() ? 0 : preds.front();
    nsga2::Problem::Evaluation ev;
    t0 = now_s();
    checksum += cache.lookup(g, ev) ? 1 : 0;
    lookup_us.push_back(since(t0) * 1e6);
  }
  out.decode_us = median(decode_us);
  out.compile_us = median(compile_us);
  out.predict_us = median(predict_us);
  out.cache_lookup_us = median(lookup_us);
  out.samples_per_s = out.predict_us > 0.0
                          ? static_cast<double>(train.size()) /
                                (out.predict_us * 1e-6)
                          : 0.0;
  // Keep the timed calls observable so none is optimized away.
  if (checksum < 0) out.samples_per_s = -1.0;
  return out;
}

}  // namespace perfbench
