// End-to-end tests of the full Fig. 2 framework: dataset -> baseline ->
// GA-AxC training -> estimated Pareto -> netlist "synthesis" -> functional
// sign-off -> feasibility classification -> Verilog export.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/netlist/from_quant.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace hw = pmlp::hwmodel;
namespace nl = pmlp::netlist;

namespace {

struct Flow {
  ds::QuantizedDataset train;
  ds::QuantizedDataset test;
  mlp::Topology topology;
  mlp::QuantMlp baseline;
  hw::CircuitCost baseline_cost;
  core::TrainingResult training;
  std::vector<core::HwEvaluatedPoint> evaluated;

  static Flow make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 280;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 4);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig bp;
    bp.epochs = 60;
    bp.seed = 41;
    auto fnet = mlp::train_float_mlp(topo, split.train, bp);
    auto baseline = mlp::QuantMlp::from_float(fnet, 8, 4, 8);

    Flow f{ds::quantize_inputs(split.train, 4),
           ds::quantize_inputs(split.test, 4),
           topo,
           baseline,
           {},
           {},
           {}};
    const auto& lib = hw::CellLibrary::egfet_1v();
    f.baseline_cost =
        nl::build_bespoke_mlp(nl::to_bespoke_desc(baseline, "exact"))
            .nl.cost(lib);

    core::TrainerConfig cfg;
    cfg.ga.population = 30;
    cfg.ga.generations = 20;
    cfg.ga.seed = 8;
    f.training = core::train_ga_axc(topo, f.train, baseline, cfg);
    f.evaluated = core::evaluate_hardware(f.training.estimated_pareto, f.test,
                                          lib, {/*equivalence_samples=*/-1});
    return f;
  }
};

const Flow& flow() {
  static const Flow f = Flow::make();
  return f;
}

}  // namespace

TEST(EndToEnd, TrainingProducesNonEmptyFront) {
  ASSERT_FALSE(flow().training.estimated_pareto.empty());
  EXPECT_GT(flow().training.baseline_train_accuracy, 0.85);
}

TEST(EndToEnd, NetlistBitExactWithEq4ModelOnFullTestSet) {
  // equivalence_samples = -1 checked the entire test set per candidate.
  for (const auto& p : flow().evaluated) {
    EXPECT_TRUE(p.functional_match);
  }
}

TEST(EndToEnd, ApproximateCircuitsBeatBaselineArea) {
  // Paper headline: >5x area reduction at <=5% accuracy loss. Even this
  // scaled-down GA run must find a design several times smaller than the
  // exact bespoke baseline within the loss bound.
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best =
      core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());
  EXPECT_GT(flow().baseline_cost.area_mm2 / best->cost.area_mm2, 2.0);
  EXPECT_GT(flow().baseline_cost.power_uw / best->cost.power_uw, 2.0);
}

TEST(EndToEnd, TrueParetoIsSubsetOfEvaluated) {
  const auto front = core::true_pareto(flow().evaluated);
  ASSERT_FALSE(front.empty());
  EXPECT_LE(front.size(), flow().evaluated.size());
  // Sorted by area.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].cost.area_mm2, front[i - 1].cost.area_mm2);
    // And accuracy must increase along the front (else dominated).
    EXPECT_GT(front[i].test_accuracy, front[i - 1].test_accuracy);
  }
}

TEST(EndToEnd, VoltageScalingImprovesFeasibilityZone) {
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best = core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());

  const auto circuit =
      nl::build_bespoke_mlp(best->model.to_bespoke_desc("best"));
  const auto& lib = hw::CellLibrary::egfet_1v();
  const auto cost_1v = circuit.nl.cost(lib);
  const auto cost_06v = circuit.nl.cost(lib.at_voltage(0.6));
  EXPECT_NEAR(cost_06v.power_uw / cost_1v.power_uw, 0.216, 1e-9);
  EXPECT_DOUBLE_EQ(cost_06v.area_mm2, cost_1v.area_mm2);

  // The 0.6 V zone can only be at least as good (lower power).
  const auto zone_1v =
      hw::classify_feasibility(cost_1v.area_cm2(), cost_1v.power_mw());
  const auto zone_06v =
      hw::classify_feasibility(cost_06v.area_cm2(), cost_06v.power_mw());
  EXPECT_LE(static_cast<int>(zone_06v), static_cast<int>(zone_1v));
}

TEST(EndToEnd, VerilogExportOfBestDesign) {
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best = core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());
  const auto circuit =
      nl::build_bespoke_mlp(best->model.to_bespoke_desc("best"));
  const auto v = nl::to_verilog(circuit.nl, "approx_mlp_best");
  EXPECT_NE(v.find("module approx_mlp_best"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // All 10 input features at 4 bits must appear as ports.
  EXPECT_NE(v.find("x9_3_"), std::string::npos);
}

TEST(EndToEnd, BaselineNetlistMatchesQuantMlp) {
  const auto circuit = nl::build_bespoke_mlp(
      nl::to_bespoke_desc(flow().baseline, "exact"));
  for (std::size_t i = 0; i < std::min<std::size_t>(flow().test.size(), 60);
       ++i) {
    EXPECT_EQ(circuit.predict(flow().test.row(i)),
              flow().baseline.predict(flow().test.row(i)));
  }
}

namespace {

/// Kendall tau-b rank correlation of (x, y) pairs: concordant minus
/// discordant pairs over the tie-corrected pair count.
double kendall_tau_b(const std::vector<double>& x,
                     const std::vector<double>& y) {
  long concordant = 0, discordant = 0, ties_x = 0, ties_y = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = i + 1; j < x.size(); ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0.0 && dy == 0.0) continue;
      if (dx == 0.0) {
        ++ties_x;
      } else if (dy == 0.0) {
        ++ties_y;
      } else if ((dx > 0.0) == (dy > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n_x = static_cast<double>(concordant + discordant + ties_y);
  const double n_y = static_cast<double>(concordant + discordant + ties_x);
  return n_x == 0.0 || n_y == 0.0
             ? 0.0
             : static_cast<double>(concordant - discordant) /
                   std::sqrt(n_x * n_y);
}

}  // namespace

TEST(EndToEnd, FaProxyCorrelatesWithNetlistArea) {
  // The paper's premise: the training-time FA-count proxy (Eq. 2) ranks
  // designs like the synthesized netlist area. Per Table I topology, score
  // 200 seeded chromosomes (random genes, each mask kept with a
  // per-chromosome probability in [0.1, 1.0]) plus the evolved front of
  // the matching topology. The proxy omits QReLU/argmax logic, so perfect
  // concordance is not expected, but the ranking must clearly agree.
  const auto& lib = hw::CellLibrary::egfet_1v();
  const char* names[] = {"BreastCancer", "Cardio", "Pendigits", "RedWine",
                         "WhiteWine"};
  std::uint64_t seed = 0;
  bool front_scored = false;
  for (const char* name : names) {
    const auto& topo = core::paper_topology(name);
    const core::ChromosomeCodec codec(topo, core::BitConfig{});
    std::mt19937_64 rng(++seed);
    std::uniform_real_distribution<double> keep_prob(0.1, 1.0);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    std::vector<double> proxy, area;
    for (int c = 0; c < 200; ++c) {
      const double keep = keep_prob(rng);
      std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
      for (int g = 0; g < codec.n_genes(); ++g) {
        const auto b = codec.bounds(g);
        int v = std::uniform_int_distribution<int>(b.lo, b.hi)(rng);
        if (codec.kind(g) == core::GeneKind::kMask && u01(rng) >= keep) v = 0;
        genes[static_cast<std::size_t>(g)] = v;
      }
      const core::ApproxMlp model = codec.decode(genes);
      const auto circuit =
          nl::build_bespoke_mlp(model.to_bespoke_desc("proxy"));
      proxy.push_back(static_cast<double>(model.fa_area()));
      area.push_back(nl::optimize(circuit.nl).cost(lib).area_mm2);
    }
    if (topo.layers == flow().topology.layers) {
      front_scored = true;
      for (const auto& p : flow().evaluated) {
        proxy.push_back(static_cast<double>(p.fa_area));
        area.push_back(p.cost.area_mm2);
      }
    }
    EXPECT_GE(kendall_tau_b(proxy, area), 0.4) << name;
  }
  EXPECT_TRUE(front_scored) << "no Table I topology matches the flow's";
}
