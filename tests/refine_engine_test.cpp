// Tests for the incremental refine engine (refine_engine.hpp / refine.cpp):
// the planes/what-if/early-abort refine_greedy must be bit-identical to the
// naive full-re-evaluation oracle below on every path (mask bits, biases,
// stale shifts, fully-pruned models, strict floors, hidden-layer
// propagation, block edges, int64 lanes, every ISA), and the pool-parallel
// refine_front must match the serial loop exactly for any thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <random>
#include <vector>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/refine_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;

namespace {

ds::QuantizedDataset make_train(int n_samples, std::uint64_t seed) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = n_samples;
  spec.seed = seed;
  return ds::quantize_inputs(ds::generate(spec), 4);
}

/// A trained, doped-style model (all masks set, pow2 weights) — the shape
/// refine sees in the real flow — with the given hidden layer widths.
core::ApproxMlp trained_model(const ds::QuantizedDataset& train,
                              std::uint64_t seed,
                              const std::vector<int>& hidden = {3},
                              const core::BitConfig& bits = {}) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = static_cast<int>(train.size());
  spec.seed = seed;
  auto raw = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 60;
  bp.seed = seed;
  std::vector<int> widths{raw.n_features};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(raw.n_classes);
  auto fnet = mlp::train_float_mlp(mlp::Topology{widths}, raw, bp);
  return core::ApproxMlp::from_quant_baseline(mlp::QuantMlp::from_float(fnet),
                                              bits);
}

/// The first `n` samples of `d`.
ds::QuantizedDataset head(const ds::QuantizedDataset& d, std::size_t n) {
  ds::QuantizedDataset out = d;
  out.codes.resize(n * static_cast<std::size_t>(d.n_features));
  out.labels.resize(n);
  return out;
}

/// Pins the dispatched ISA for one scope.
struct ScopedIsa {
  core::SimdIsa prev;
  explicit ScopedIsa(core::SimdIsa isa) : prev(core::active_simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~ScopedIsa() { core::set_simd_isa(prev); }
};

/// Random sparse perturbation of masks/signs/exponents/biases — exercises
/// partially-pruned connections and shift changes the doped seed never has.
void perturb(core::ApproxMlp& net, std::uint64_t seed, bool sync_shifts) {
  std::mt19937_64 rng(seed);
  for (auto& layer : net.layers()) {
    const auto width_mask =
        static_cast<std::uint32_t>(pmlp::bitops::low_mask(layer.input_bits));
    for (auto& c : layer.conns) {
      if (rng() % 3 == 0) c.mask &= static_cast<std::uint32_t>(rng()) & width_mask;
      if (rng() % 5 == 0) c.sign = -c.sign;
      if (rng() % 4 == 0) {
        c.exponent = static_cast<int>(rng() % (net.bits().max_exponent() + 1));
      }
    }
    for (auto& b : layer.biases) {
      if (rng() % 3 == 0) {
        const auto span = net.bits().bias_max() - net.bits().bias_min();
        b = net.bits().bias_min() +
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(span));
      }
    }
  }
  if (sync_shifts) net.update_qrelu_shifts();
}

/// The original one-full-accuracy()-per-trial refine loop: the reference
/// oracle for the engine. Identical decisions, reports (minus early_aborts)
/// and final parameters are the contract.
core::RefineReport refine_greedy_naive(core::ApproxMlp& net,
                                       const ds::QuantizedDataset& train,
                                       const core::RefineConfig& cfg) {
  core::RefineReport report;
  report.fa_before = net.fa_area();
  report.accuracy_before = core::accuracy(net, train);

  double current_acc = report.accuracy_before;
  const auto keep = [&](double acc) {
    return acc + 1e-12 >= cfg.accuracy_floor &&
           acc + 1e-12 >= current_acc - 0.002;
  };
  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    bool changed = false;
    for (int l = 0; l < static_cast<int>(net.layers().size()); ++l) {
      auto& layer = net.layers()[static_cast<std::size_t>(l)];
      const auto width_mask =
          static_cast<std::uint32_t>(pmlp::bitops::low_mask(layer.input_bits));
      for (int o = 0; o < layer.n_out; ++o) {
        for (int i = 0; i < layer.n_in; ++i) {
          core::ApproxConn& c = layer.conn(o, i);
          std::uint32_t remaining = c.mask & width_mask;
          while (remaining != 0) {
            const int bit = std::countr_zero(remaining);
            remaining &= remaining - 1;
            const std::uint32_t saved = c.mask;
            c.mask = static_cast<std::uint32_t>(
                pmlp::bitops::set_bit(c.mask, bit, false));
            net.update_qrelu_shifts();
            report.trials += 1;
            const double acc = core::accuracy(net, train);
            if (keep(acc)) {
              current_acc = std::max(current_acc, acc);
              report.bits_cleared += 1;
              changed = true;
            } else {
              c.mask = saved;
            }
          }
        }
        if (cfg.refine_biases) {
          auto& bias = layer.biases[static_cast<std::size_t>(o)];
          const std::int64_t candidate = core::refine_bias_candidate(net, l, o);
          if (candidate != bias) {
            const std::int64_t saved = bias;
            bias = candidate;
            net.update_qrelu_shifts();
            report.trials += 1;
            const double acc = core::accuracy(net, train);
            if (keep(acc)) {
              current_acc = std::max(current_acc, acc);
              report.biases_simplified += 1;
              changed = true;
            } else {
              bias = saved;
            }
          }
        }
      }
    }
    report.passes = pass + 1;
    if (!changed) break;
  }
  net.update_qrelu_shifts();
  report.fa_after = net.fa_area();
  report.accuracy_after = core::accuracy(net, train);
  return report;
}

void expect_same_refine(core::ApproxMlp oracle_net, core::ApproxMlp engine_net,
                        const ds::QuantizedDataset& train,
                        const core::RefineConfig& cfg) {
  const auto oracle = refine_greedy_naive(oracle_net, train, cfg);
  const auto engine = core::refine_greedy(engine_net, train, cfg);

  // Same decisions -> same final parameters (masks, signs, biases, shifts).
  EXPECT_EQ(core::to_text(oracle_net), core::to_text(engine_net));
  // Same report, bit for bit (early_aborts is engine-only by design).
  EXPECT_EQ(oracle.bits_cleared, engine.bits_cleared);
  EXPECT_EQ(oracle.biases_simplified, engine.biases_simplified);
  EXPECT_EQ(oracle.fa_before, engine.fa_before);
  EXPECT_EQ(oracle.fa_after, engine.fa_after);
  EXPECT_EQ(oracle.accuracy_before, engine.accuracy_before);
  EXPECT_EQ(oracle.accuracy_after, engine.accuracy_after);
  EXPECT_EQ(oracle.passes, engine.passes);
  EXPECT_EQ(oracle.trials, engine.trials);
}

}  // namespace

TEST(RefineEngineOracle, TrainedModelDefaultConfig) {
  const auto train = make_train(240, 51);
  const auto model = trained_model(train, 51);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, StrictFloor) {
  const auto train = make_train(240, 52);
  const auto model = trained_model(train, 52);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train);  // no loss allowed
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, UnreachableFloorRejectsEverything) {
  const auto train = make_train(160, 53);
  const auto model = trained_model(train, 53);
  core::RefineConfig cfg;
  cfg.accuracy_floor = 1.5;  // beyond any accuracy: every trial must fail
  const auto before = core::to_text(model);
  expect_same_refine(model, model, train, cfg);
  auto copy = model;
  const auto report = core::refine_greedy(copy, train, cfg);
  EXPECT_EQ(report.bits_cleared, 0);
  EXPECT_EQ(report.biases_simplified, 0);
  EXPECT_EQ(core::to_text(copy), before);
  // All rejections happen before any sample is scanned.
  EXPECT_EQ(report.early_aborts, report.trials);
}

TEST(RefineEngineOracle, BiasRefineDisabled) {
  const auto train = make_train(200, 54);
  const auto model = trained_model(train, 54);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.05;
  cfg.refine_biases = false;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, MultiPassLooseFloor) {
  const auto train = make_train(200, 55);
  const auto model = trained_model(train, 55, /*hidden=*/{4});
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;  // everything may go
  cfg.max_passes = 5;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, PerturbedModelsPropertySweep) {
  const auto train = make_train(180, 56);
  const auto base = trained_model(train, 56);
  for (std::uint64_t seed : {7u, 19u, 101u, 4242u}) {
    auto model = base;
    perturb(model, seed, /*sync_shifts=*/true);
    core::RefineConfig cfg;
    cfg.accuracy_floor = core::accuracy(model, train) - 0.04;
    expect_same_refine(model, model, train, cfg);
  }
}

TEST(RefineEngineOracle, StaleIncomingShifts) {
  // Callers are supposed to hand over synced shifts, but the naive loop
  // tolerates stale ones (its first edit re-syncs); the engine must agree
  // on accuracy_before AND on every decision after the sync.
  const auto train = make_train(180, 57);
  auto model = trained_model(train, 57);
  perturb(model, 77, /*sync_shifts=*/false);  // leaves shifts stale
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.3;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, FullyPrunedModelUntouched) {
  const auto train = make_train(160, 58);
  const auto base = trained_model(train, 58);
  core::ApproxMlp empty(base.topology(), base.bits());
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;
  expect_same_refine(empty, empty, train, cfg);
  auto copy = empty;
  const auto report = core::refine_greedy(copy, train, cfg);
  EXPECT_EQ(report.fa_before, 0);
  EXPECT_EQ(report.fa_after, 0);
  EXPECT_EQ(report.bits_cleared, 0);
}

TEST(RefineEngineOracle, TwoHiddenLayersAtBlockEdges) {
  // 10-4-3-2: a first-layer edit reaches the output through a hidden layer
  // of changed activations. Sample counts straddle the 64-sample block
  // (one partial block, exactly one, one plus one lane, many blocks).
  const auto full = make_train(700, 63);
  const auto base = trained_model(full, 63, /*hidden=*/{4, 3});
  for (const std::size_t n : {1u, 63u, 64u, 65u, 700u}) {
    const auto train = head(full, n);
    for (const bool perturbed : {false, true}) {
      auto model = base;
      if (perturbed) perturb(model, 64 + n, /*sync_shifts=*/true);
      core::RefineConfig cfg;
      cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
      SCOPED_TRACE(testing::Message() << n << " samples, perturbed "
                                      << perturbed);
      expect_same_refine(model, model, train, cfg);
    }
  }
}

TEST(RefineEngineOracle, Int64LanesWhenInt32IsUnproven) {
  // A QReLU clamp beyond int32 voids the int32 proof, so the planes take
  // int64 lanes (the SamplePlanes.OverflowUnsafeNetTakesInt64Fallback
  // recipe).
  core::BitConfig bits;
  bits.act_bits = 36;
  const auto train = make_train(200, 65);
  for (const std::vector<int>& hidden :
       {std::vector<int>{3}, std::vector<int>{4, 3}}) {
    const auto model = trained_model(train, 65, hidden, bits);
    core::RefineConfig cfg;
    cfg.accuracy_floor = core::accuracy(model, train) - 0.04;
    expect_same_refine(model, model, train, cfg);
  }
}

TEST(RefineEngineOracle, ScalarDispatchMatchesDetectedIsa) {
  const auto train = make_train(300, 66);
  auto model = trained_model(train, 66, /*hidden=*/{4, 3});
  perturb(model, 66, /*sync_shifts=*/true);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
  std::vector<std::string> texts;
  std::vector<core::RefineReport> reports;
  for (const core::SimdIsa isa :
       {core::detect_simd_isa(), core::SimdIsa::kScalar}) {
    ScopedIsa forced(isa);
    expect_same_refine(model, model, train, cfg);
    auto net = model;
    reports.push_back(core::refine_greedy(net, train, cfg));
    texts.push_back(core::to_text(net));
  }
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(reports[0].trials, reports[1].trials);
  EXPECT_EQ(reports[0].early_aborts, reports[1].early_aborts);
  EXPECT_EQ(reports[0].bits_cleared, reports[1].bits_cleared);
  EXPECT_EQ(reports[0].accuracy_after, reports[1].accuracy_after);
}

TEST(RefineEngine, OutOfRangeBiasCandidateWidensLanes) {
  // try_set_bias takes any candidate; one beyond the BitConfig bias range
  // voids the int32 proof, so the engine moves to int64 lanes and must
  // still score exactly what the naive forward pass does.
  const auto train = make_train(150, 67);
  auto model = trained_model(train, 67, /*hidden=*/{4, 3});
  core::RefineEngine engine(model, train);
  const std::int64_t huge = std::int64_t{1} << 40;
  for (const auto& [l, candidate] :
       {std::pair<int, std::int64_t>{0, huge}, {1, -huge}, {2, 5}}) {
    const auto acc = engine.try_set_bias(l, 0, candidate, 0.0);
    ASSERT_TRUE(acc.has_value());
    auto reference = model;
    reference.update_qrelu_shifts();
    EXPECT_EQ(reference.layers()[static_cast<std::size_t>(l)].qrelu_shift,
              model.layers()[static_cast<std::size_t>(l)].qrelu_shift);
    EXPECT_EQ(*acc, core::accuracy(model, train));
    EXPECT_EQ(engine.accuracy(), core::accuracy(model, train));
  }
}

TEST(RefineEngine, EarlyAbortEngagesUnderTightFloor) {
  // A tight-but-reachable floor makes most trials fail, and failing trials
  // should mostly abort before scanning the whole dataset.
  const auto train = make_train(240, 59);
  auto model = trained_model(train, 59);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train);
  const auto report = core::refine_greedy(model, train, cfg);
  EXPECT_GT(report.trials, 0);
  EXPECT_GT(report.early_aborts, 0);
}

TEST(RefineEngine, AccuracyMatchesNaiveAccuracy) {
  const auto train = make_train(200, 60);
  auto model = trained_model(train, 60);
  core::RefineEngine engine(model, train);
  EXPECT_EQ(engine.accuracy(), core::accuracy(model, train));
}

// --------------------------------------------------------------- refine_front

namespace {

/// A small synthetic "front": the trained model plus perturbed variants at
/// different sparsities, with the accuracies/areas refine_front expects.
std::vector<core::EstimatedPoint> make_front(const ds::QuantizedDataset& train,
                                             std::uint64_t seed, int n) {
  const auto base = trained_model(train, seed);
  std::vector<core::EstimatedPoint> front;
  for (int i = 0; i < n; ++i) {
    core::EstimatedPoint p;
    p.model = base;
    if (i > 0) perturb(p.model, seed + static_cast<std::uint64_t>(i), true);
    p.train_accuracy = core::accuracy(p.model, train);
    p.fa_area = p.model.fa_area();
    front.push_back(std::move(p));
  }
  return front;
}

/// The pre-engine refine_front loop, verbatim (naive refine + full accuracy
/// re-scan), as the oracle for the parallel fan-out.
void refine_front_naive(std::span<core::EstimatedPoint> front,
                        const ds::QuantizedDataset& train,
                        double baseline_train_accuracy, double max_point_loss,
                        double max_total_loss) {
  for (auto& point : front) {
    core::RefineConfig cfg;
    cfg.accuracy_floor = std::max(point.train_accuracy - max_point_loss,
                                  baseline_train_accuracy - max_total_loss);
    (void)refine_greedy_naive(point.model, train, cfg);
    point.train_accuracy = core::accuracy(point.model, train);
    point.fa_area = point.model.fa_area();
  }
}

void expect_same_front(const std::vector<core::EstimatedPoint>& a,
                       const std::vector<core::EstimatedPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(core::to_text(a[i].model), core::to_text(b[i].model)) << i;
    EXPECT_EQ(a[i].train_accuracy, b[i].train_accuracy) << i;
    EXPECT_EQ(a[i].fa_area, b[i].fa_area) << i;
  }
}

void check_front_threads(int n_threads) {
  const auto train = make_train(200, 61);
  const double baseline_acc = 0.8;

  auto oracle = make_front(train, 61, 6);
  refine_front_naive(oracle, train, baseline_acc, 0.01, 0.05);

  auto refined = make_front(train, 61, 6);
  const auto report =
      core::refine_front(refined, train, baseline_acc, 0.01, 0.05, n_threads);
  expect_same_front(oracle, refined);
  EXPECT_EQ(report.points, 6);
  EXPECT_GT(report.trials, 0);
}

}  // namespace

// One named test per thread count so CI can assert each configuration ran.
TEST(RefineFrontParallel, BitIdenticalThreads1) { check_front_threads(1); }

TEST(RefineFrontParallel, BitIdenticalThreads4) { check_front_threads(4); }

TEST(RefineFrontParallel, AutoThreadsMatchesSerial) {
  const auto train = make_train(160, 62);
  auto serial = make_front(train, 62, 5);
  const auto r1 = core::refine_front(serial, train, 0.8, 0.01, 0.05, 1);
  auto parallel = make_front(train, 62, 5);
  const auto r0 = core::refine_front(parallel, train, 0.8, 0.01, 0.05, 0);
  expect_same_front(serial, parallel);
  // The aggregated counters are scheduling-independent too.
  EXPECT_EQ(r1.trials, r0.trials);
  EXPECT_EQ(r1.early_aborts, r0.early_aborts);
  EXPECT_EQ(r1.bits_cleared, r0.bits_cleared);
  EXPECT_EQ(r1.biases_simplified, r0.biases_simplified);
}
