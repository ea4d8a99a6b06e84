// Greedy post-GA refinement (an extension beyond the paper): given a trained
// approximate MLP, try clearing mask bits one at a time — cheapest-first by
// the FA-count gain of the removal — keeping every change that does not push
// training accuracy below a floor. This squeezes the last FAs out of each
// Pareto point before synthesis; bench_ablation quantifies the benefit.
//
// refine_greedy runs on the incremental RefineEngine (refine_engine.hpp):
// memoized forward planes, a read-only what-if pass from the mutated layer
// down, and an early-aborted accuracy scan. The original
// full-re-evaluation loop lives on as the bit-identical reference oracle in
// refine_engine_test, sharing refine_bias_candidate with refine_greedy.
// refine_front fans the per-Pareto-point refinement out over a ThreadPool;
// one engine per point, per-index output slots, bit-identical to the serial
// loop for any thread count.
#pragma once

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/dataset.hpp"

namespace pmlp::core {

struct RefineConfig {
  /// Lowest acceptable training accuracy (absolute, e.g. baseline - 0.05).
  double accuracy_floor = 0.0;
  /// Maximum full passes over all remaining mask bits.
  int max_passes = 3;
  /// Also try rounding biases toward fewer set bits (cheaper constants).
  bool refine_biases = true;
};

struct RefineReport {
  long bits_cleared = 0;
  long biases_simplified = 0;
  long fa_before = 0;
  long fa_after = 0;
  double accuracy_before = 0.0;
  double accuracy_after = 0.0;
  int passes = 0;
  /// Candidate edits evaluated (identical between engine and naive paths).
  long trials = 0;
  /// Trials the engine rejected, each at the first sample block that
  /// exhausted its misclassification budget (0 on the naive path — it
  /// always scans everything). Diagnostic only; decisions are unaffected.
  long early_aborts = 0;
};

/// Refine `net` in place against `train`; returns what changed. Runs on the
/// incremental RefineEngine; bit-identical to the full-re-evaluation loop.
RefineReport refine_greedy(ApproxMlp& net,
                           const datasets::QuantizedDataset& train,
                           const RefineConfig& cfg);

/// The bias the greedy loop tries for neuron `o` of layer `l`: the current
/// bias rounded to at most two set bits (magnitude-wise, e.g. 0b0110111 ->
/// 0b0111000), or the current bias itself when the rounding leaves the
/// BitConfig range.
[[nodiscard]] std::int64_t refine_bias_candidate(const ApproxMlp& net, int l,
                                                 int o);

/// Aggregate accounting of one refine_front call (summed point reports) —
/// surfaced as the flow's refine-stage counters and by run_bench.sh as the
/// refine_stage block of BENCH_table3.json.
struct RefineFrontReport {
  long points = 0;
  long trials = 0;
  long early_aborts = 0;
  long bits_cleared = 0;
  long biases_simplified = 0;
  [[nodiscard]] double early_abort_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(early_aborts) /
                             static_cast<double>(trials);
  }
};

/// The flow's post-GA refinement stage (shared by FlowEngine and the
/// benches): greedily refine every estimated-Pareto point in place and
/// refresh its train_accuracy / fa_area. Each point's accuracy floor is
///   max(point accuracy - max_point_loss,
///       baseline_train_accuracy - max_total_loss).
/// Points fan out over a ThreadPool (0 = all hardware threads, 1 = serial,
/// default); results are bit-identical for any `n_threads`.
RefineFrontReport refine_front(std::span<EstimatedPoint> front,
                               const datasets::QuantizedDataset& train,
                               double baseline_train_accuracy,
                               double max_point_loss, double max_total_loss,
                               int n_threads = 1);

}  // namespace pmlp::core
