// Incremental evaluation engine for greedy post-GA refinement.
//
// refine_greedy tries thousands of single-parameter edits (clear one mask
// bit, round one bias) and keeps each edit only if training accuracy stays
// above a floor. The naive loop re-runs a full forward pass of the whole
// network over the whole dataset per trial, even though clearing one bit in
// layer L leaves every activation below L untouched, and most trials (~86%
// on a Pendigits front) are rejected. This engine scores a trial as a
// read-only what-if pass and writes state only for the trials it keeps:
//
//   planes  — the committed network's accumulators and activations live as
//             neuron-major planes: one plane holds one neuron's values for
//             every training sample, contiguous (the input codes and the
//             labels are planes too). Nothing below the edited layer is
//             ever recomputed.
//   what-if — a trial walks the samples in blocks of
//             CompiledNet::kBlockSamples. Per block it computes into block
//             scratch the edited neuron's new accumulator (a mask-bit clear
//             subtracts sign * ((x & bit) << k), a bias edit adds
//             new - old) and activation — the whole layer's activations when
//             the QReLU shift changes — then each later layer's
//             accumulators as the stored ones plus term(new) - term(old)
//             over the inputs whose activations changed somewhere in the
//             block, then a first-index argmax and the block's correct
//             count. A block whose change dies out before the output layer
//             keeps its stored count.
//   abort   — the accuracy floor is translated before the scan into an
//             exact misclassification budget, checked after every block; a
//             rejected trial wrote nothing, so there is nothing to undo.
//   commit  — an accepted trial re-runs the same pass with writes on: the
//             changed planes and the block counts are stored.
//
// Lanes are int32 when a static bound proves it exact — CompiledNet's
// per-neuron |bias| + sum(mask << k), but over the whole BitConfig bias
// range because bias candidates can round up; mask clears only shrink it,
// so it holds for the engine's lifetime — and int64 otherwise (a bias
// candidate beyond that range widens the planes once). The pass is one
// portable loop nest over contiguous samples, templated on the lane type
// and compiled both plain and as an AVX2 clone, picked per trial by
// active_simd_isa() (so PMLP_SIMD=off and set_simd_isa apply).
//
// All arithmetic is the same integer adds/shifts as ApproxMlp::forward,
// merely reordered into deltas (exact: every partial sum is the accumulator
// of some in-range input), and the accept test is the naive code's double
// comparison translated into an integer correct-count threshold via binary
// search over the same predicate — so decisions, reports and final masks
// are bit-identical to the naive loop (refine_engine_test keeps that loop
// as the oracle). QReLU shifts mirror update_qrelu_shifts() exactly: an edit
// in layer L can only change layer L's shift (shifts are pure functions of a
// layer's own parameters).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/datasets/dataset.hpp"

namespace pmlp::core {

/// Work counters of one RefineEngine (one refine_greedy call).
struct RefineEngineStats {
  long trials = 0;        ///< candidate edits evaluated
  /// Trials rejected; each stops at the first sample block that exhausts
  /// the misclassification budget, so this counts every rejected trial.
  long early_aborts = 0;
};

/// Lane-typed memo planes and the what-if pass, and the edit it scores
/// (refine_engine.cpp).
class RefineMemo;
struct RefineEdit;

/// Incremental trial evaluator bound to one net and one training set. The
/// net is edited in place: a kept trial leaves the edit (and the memoized
/// state) committed, a rejected trial leaves net and memo as they were.
/// Layer QReLU shifts are kept in sync with the current parameters at all
/// times (the invariant the naive loop re-establishes by calling
/// update_qrelu_shifts() before every accuracy()).
class RefineEngine {
 public:
  /// Builds the memoized state. `accuracy_before()` reflects the shifts the
  /// net arrived with (what the naive loop's first accuracy() call sees);
  /// the engine then syncs every shift to the current parameters, as the
  /// naive loop's first edit would.
  RefineEngine(ApproxMlp& net, const datasets::QuantizedDataset& train);
  ~RefineEngine();

  RefineEngine(const RefineEngine&) = delete;
  RefineEngine& operator=(const RefineEngine&) = delete;

  /// Training accuracy of the incoming net, pre shift-sync.
  [[nodiscard]] double accuracy_before() const { return accuracy_before_; }
  /// Training accuracy of the current committed state.
  [[nodiscard]] double accuracy() const;

  /// Try clearing bit `bit` of conn(o, i) in layer `l` (the bit must be set
  /// and within the layer's input width). Keeps the edit and returns the new
  /// accuracy when it passes the naive accept test `acc + 1e-12 >= min_acc`;
  /// reverts the edit (mask and shift) and returns nullopt otherwise.
  std::optional<double> try_clear_mask_bit(int l, int o, int i, int bit,
                                           double min_acc);
  /// Same protocol for replacing neuron (l, o)'s bias with `candidate`
  /// (must differ from the current bias).
  std::optional<double> try_set_bias(int l, int o, std::int64_t candidate,
                                     double min_acc);

  [[nodiscard]] const RefineEngineStats& stats() const { return stats_; }

 private:
  /// Score the edit already applied to `net_`, committing it to the memo
  /// when it passes; the caller reverts the net on nullopt.
  std::optional<double> trial(const RefineEdit& edit, double min_acc);

  ApproxMlp& net_;
  const datasets::QuantizedDataset& train_;
  double accuracy_before_ = 0.0;
  std::unique_ptr<RefineMemo> memo_;
  RefineEngineStats stats_;
};

}  // namespace pmlp::core
