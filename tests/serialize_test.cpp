// Tests for model serialization (serialize.hpp) and greedy refinement
// (refine.hpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/worker.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;

namespace {

core::ApproxMlp random_model(std::uint64_t seed,
                             const mlp::Topology& topo = {{5, 3, 2}}) {
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return codec.decode(genes);
}

}  // namespace

TEST(Serialize, TextRoundTripPreservesEverything) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = random_model(seed);
    const auto restored = core::from_text(core::to_text(net));
    ASSERT_EQ(restored.topology().layers, net.topology().layers);
    EXPECT_EQ(restored.bits().weight_bits, net.bits().weight_bits);
    EXPECT_EQ(restored.bits().bias_bits, net.bits().bias_bits);
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      const auto& a = net.layers()[l];
      const auto& b = restored.layers()[l];
      EXPECT_EQ(a.qrelu_shift, b.qrelu_shift);
      for (int o = 0; o < a.n_out; ++o) {
        EXPECT_EQ(a.biases[static_cast<std::size_t>(o)],
                  b.biases[static_cast<std::size_t>(o)]);
        for (int i = 0; i < a.n_in; ++i) {
          EXPECT_EQ(a.conn(o, i).mask, b.conn(o, i).mask);
          EXPECT_EQ(a.conn(o, i).sign, b.conn(o, i).sign);
          EXPECT_EQ(a.conn(o, i).exponent, b.conn(o, i).exponent);
        }
      }
    }
  }
}

TEST(Serialize, RoundTripPreservesBehaviour) {
  const auto net = random_model(7);
  const auto restored = core::from_text(core::to_text(net));
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> x(5);
    for (auto& v : x) v = static_cast<std::uint8_t>(rng() & 0xF);
    EXPECT_EQ(restored.forward(x), net.forward(x));
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto net = random_model(11);
  const std::string path = "/tmp/pmlp_serialize_test.model";
  core::save_model_file(net, path);
  const auto restored = core::load_model_file(path);
  EXPECT_EQ(core::to_text(restored), core::to_text(net));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadHeader) {
  EXPECT_THROW((void)core::from_text("wrong v1\n"), std::invalid_argument);
  EXPECT_THROW((void)core::from_text("pmlp-approx-mlp v9\n"),
               std::invalid_argument);
  EXPECT_THROW((void)core::from_text(""), std::invalid_argument);
}

TEST(Serialize, RejectsOutOfRangeValues) {
  const auto net = random_model(13);
  auto text = core::to_text(net);
  // Corrupt a conn line with a huge exponent.
  const auto pos = text.find("conn 0 0 ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "conn 0 0 3 1 99");
  EXPECT_THROW((void)core::from_text(text), std::invalid_argument);
}

TEST(Serialize, RejectsUnknownTag) {
  const auto net = random_model(17);
  EXPECT_THROW((void)core::from_text(core::to_text(net) + "garbage 1\n"),
               std::invalid_argument);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)core::load_model_file("/nonexistent/x.model"),
               std::runtime_error);
}

// --------------------------------------------- flow checkpoint artifacts

namespace {

template <typename T, typename Save, typename Load>
T round_trip(const T& value, Save save, Load load) {
  std::ostringstream os;
  save(value, os);
  std::istringstream is(os.str());
  return load(is);
}

template <typename T, typename Save>
std::string dump(const T& value, Save save) {
  std::ostringstream os;
  save(value, os);
  return os.str();
}

ds::Dataset tiny_dataset() {
  ds::Dataset d;
  d.name = "tiny";
  d.n_features = 3;
  d.n_classes = 2;
  // Values picked to stress exact double round-trips (subnormal-ish,
  // repeating binary fractions, exact integers).
  d.features = {0.1, 0.25, 1.0, 1e-17, 0.3333333333333333, 0.9999999999999999};
  d.labels = {0, 1};
  return d;
}

ds::QuantizedDataset tiny_quant() {
  ds::QuantizedDataset d;
  d.name = "tinyq";
  d.n_features = 2;
  d.n_classes = 3;
  d.input_bits = 4;
  d.codes = {0, 15, 7, 8, 1, 14};
  d.labels = {0, 2, 1};
  return d;
}

}  // namespace

TEST(SerializeArtifacts, DatasetRoundTripExact) {
  const auto d = tiny_dataset();
  const auto r = round_trip(d, core::save_dataset, core::load_dataset);
  EXPECT_EQ(r.name, d.name);
  EXPECT_EQ(r.n_features, d.n_features);
  EXPECT_EQ(r.n_classes, d.n_classes);
  EXPECT_EQ(r.labels, d.labels);
  ASSERT_EQ(r.features.size(), d.features.size());
  for (std::size_t i = 0; i < d.features.size(); ++i) {
    EXPECT_EQ(r.features[i], d.features[i]);  // bit-exact, not approx
  }
}

TEST(SerializeArtifacts, DatasetRejectsMalformed) {
  const auto good =
      dump(tiny_dataset(), [](const auto& v, auto& os) {
        core::save_dataset(v, os);
      });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_dataset(is);
  };
  EXPECT_THROW((void)parse("pmlp-dataset v9\n"), std::invalid_argument);
  EXPECT_THROW((void)parse("wrong v1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(""), std::invalid_argument);
  // Missing end terminator.
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Label out of range.
  std::string bad = good;
  bad.replace(bad.find("row 0"), 5, "row 9");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Unknown tag.
  bad = good;
  bad.replace(bad.find("row"), 3, "wat");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Non-numeric feature.
  bad = good;
  bad.replace(bad.find("0x"), 2, "zz");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, QuantDatasetRoundTripAndRejects) {
  const auto d = tiny_quant();
  const auto r =
      round_trip(d, core::save_quant_dataset, core::load_quant_dataset);
  EXPECT_EQ(r.name, d.name);
  EXPECT_EQ(r.input_bits, d.input_bits);
  EXPECT_EQ(r.codes, d.codes);
  EXPECT_EQ(r.labels, d.labels);

  const auto good = dump(d, [](const auto& v, auto& os) {
    core::save_quant_dataset(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_quant_dataset(is);
  };
  EXPECT_THROW((void)parse("pmlp-quant-dataset v2\n"),
               std::invalid_argument);
  // Code above 2^input_bits - 1.
  std::string bad = good;
  bad.replace(bad.find(" 15"), 3, " 16");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
}

TEST(SerializeArtifacts, FloatMlpRoundTripExact) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 120;
  const auto data = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 10;
  bp.seed = 5;
  const auto net =
      mlp::train_float_mlp(mlp::Topology{{10, 3, 2}}, data, bp);
  const auto r = round_trip(net, core::save_float_mlp, core::load_float_mlp);
  ASSERT_EQ(r.topology().layers, net.topology().layers);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(r.layers()[l].weights, net.layers()[l].weights);
    EXPECT_EQ(r.layers()[l].biases, net.layers()[l].biases);
  }

  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_float_mlp(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_float_mlp(is);
  };
  EXPECT_THROW((void)parse("pmlp-float-mlp v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find("w 0"), 3, "w 9");  // neuron out of range
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, QuantMlpRoundTripPreservesBehaviour) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 120;
  const auto data = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 10;
  bp.seed = 5;
  const auto fnet =
      mlp::train_float_mlp(mlp::Topology{{10, 3, 2}}, data, bp);
  const auto net = mlp::QuantMlp::from_float(fnet);
  const auto r = round_trip(net, core::save_quant_mlp, core::load_quant_mlp);
  ASSERT_EQ(r.topology().layers, net.topology().layers);
  EXPECT_EQ(r.weight_bits(), net.weight_bits());
  const auto quant = ds::quantize_inputs(data, 4);
  for (std::size_t i = 0; i < quant.size(); ++i) {
    EXPECT_EQ(r.forward(quant.row(i)), net.forward(quant.row(i)));
  }

  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_quant_mlp(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_quant_mlp(is);
  };
  EXPECT_THROW((void)parse("pmlp-quant-mlp v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Weight outside the 8-bit signed range.
  std::string bad = good;
  const auto wpos = bad.find("w 0 ");
  const auto weol = bad.find('\n', wpos);
  bad.replace(wpos, weol - wpos, "w 0 999 0 0 0 0 0 0 0 0 0");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, TrainingResultRoundTrip) {
  core::TrainingResult t;
  t.evaluations = 1234;
  t.wall_seconds = 0.125;
  t.baseline_train_accuracy = 0.9000000000000001;
  t.evals_per_second = 9876.5;
  t.cache_hits = 77;
  t.cache_hit_rate = 0.25;
  for (std::uint64_t seed : {1u, 2u}) {
    core::EstimatedPoint p;
    p.model = random_model(seed);
    p.train_accuracy = 0.5 + 0.01 * static_cast<double>(seed);
    p.fa_area = 100 + static_cast<long>(seed);
    t.estimated_pareto.push_back(std::move(p));
  }

  const auto r = round_trip(t, core::save_training_result,
                            core::load_training_result);
  EXPECT_EQ(r.evaluations, t.evaluations);
  EXPECT_EQ(r.wall_seconds, t.wall_seconds);
  EXPECT_EQ(r.baseline_train_accuracy, t.baseline_train_accuracy);
  EXPECT_EQ(r.evals_per_second, t.evals_per_second);
  EXPECT_EQ(r.cache_hits, t.cache_hits);
  EXPECT_EQ(r.cache_hit_rate, t.cache_hit_rate);
  ASSERT_EQ(r.estimated_pareto.size(), t.estimated_pareto.size());
  for (std::size_t i = 0; i < t.estimated_pareto.size(); ++i) {
    EXPECT_EQ(core::to_text(r.estimated_pareto[i].model),
              core::to_text(t.estimated_pareto[i].model));
    EXPECT_EQ(r.estimated_pareto[i].train_accuracy,
              t.estimated_pareto[i].train_accuracy);
    EXPECT_EQ(r.estimated_pareto[i].fa_area, t.estimated_pareto[i].fa_area);
  }

  const auto good = dump(t, [](const auto& v, auto& os) {
    core::save_training_result(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_training_result(is);
  };
  EXPECT_THROW((void)parse("pmlp-training v2\n"), std::invalid_argument);
  // Truncation inside an embedded model (drops its endmodel + outer end).
  const auto cut = good.find("endmodel");
  EXPECT_THROW((void)parse(good.substr(0, cut)), std::invalid_argument);
  // Count mismatch.
  std::string bad = good;
  bad.replace(bad.find("count 2"), 7, "count 3");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Corrupt gene inside an embedded model block propagates.
  bad = good;
  const auto cpos = bad.find("conn 0 0 ");
  const auto ceol = bad.find('\n', cpos);
  bad.replace(cpos, ceol - cpos, "conn 0 0 3 1 99");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, EvaluatedPointsRoundTrip) {
  std::vector<core::HwEvaluatedPoint> points;
  for (std::uint64_t seed : {3u, 4u}) {
    core::HwEvaluatedPoint p;
    p.model = random_model(seed);
    p.test_accuracy = 0.75 + 0.001 * static_cast<double>(seed);
    p.fa_area = 55;
    p.functional_match = seed == 3u;
    p.cost.area_mm2 = 1.5;
    p.cost.power_uw = 2.5e3;
    p.cost.critical_delay_us = 12.0;
    p.cost.cell_count = 321;
    points.push_back(std::move(p));
  }
  const auto r = round_trip(points, core::save_evaluated_points,
                            core::load_evaluated_points);
  ASSERT_EQ(r.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(core::to_text(r[i].model), core::to_text(points[i].model));
    EXPECT_EQ(r[i].test_accuracy, points[i].test_accuracy);
    EXPECT_EQ(r[i].functional_match, points[i].functional_match);
    EXPECT_EQ(r[i].cost.area_mm2, points[i].cost.area_mm2);
    EXPECT_EQ(r[i].cost.power_uw, points[i].cost.power_uw);
    EXPECT_EQ(r[i].cost.cell_count, points[i].cost.cell_count);
  }

  const auto good = dump(points, [](const auto& v, auto& os) {
    core::save_evaluated_points(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_evaluated_points(is);
  };
  EXPECT_THROW((void)parse("pmlp-evaluated v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // functional_match must be 0/1.
  std::string bad = good;
  bad.replace(bad.find(" 55 1 "), 6, " 55 7 ");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

// save_front_dir and load_front_dir own the --save-front format together:
// every model and every index double must come back bit for bit, and a
// rerun with a smaller front must not leave the old models behind.
TEST(SerializeFront, SaveFrontDirRoundTripsBitExact) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("pmlp_serialize_front_" + std::to_string(::getpid()));
  const std::string dir = (root / "front").string();
  std::filesystem::remove_all(root);
  std::vector<core::HwEvaluatedPoint> front;
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    core::HwEvaluatedPoint p;
    p.model = random_model(seed);
    // No short decimal representation: only max_digits10 survives.
    p.test_accuracy = 2.0 / 3.0 + 1e-3 * static_cast<double>(seed);
    p.cost.area_mm2 = 100.0 / 3.0 * static_cast<double>(seed);
    p.cost.power_uw = 1e3 / 7.0 * static_cast<double>(seed);
    p.functional_match = seed != 6u;
    front.push_back(std::move(p));
  }
  core::save_front_dir(core::front_entries(front), dir);
  const auto loaded = core::load_front_dir(dir);
  ASSERT_EQ(loaded.size(), front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    char name[40];
    std::snprintf(name, sizeof name, "front_%03zu.model", i);
    EXPECT_EQ(loaded[i].file, name);
    EXPECT_EQ(core::to_text(loaded[i].model), core::to_text(front[i].model));
    EXPECT_EQ(loaded[i].test_accuracy, front[i].test_accuracy);
    EXPECT_EQ(loaded[i].area_cm2, front[i].cost.area_cm2());
    EXPECT_EQ(loaded[i].power_mw, front[i].cost.power_mw());
    EXPECT_EQ(loaded[i].functional_match, front[i].functional_match);
  }

  front.resize(1);
  core::save_front_dir(core::front_entries(front), dir);
  EXPECT_EQ(core::load_front_dir(dir).size(), 1u);  // no stale front_001
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + ".old"));
  std::filesystem::remove_all(root);
}

TEST(SerializeArtifacts, NamesWithSpacesRoundTrip) {
  auto d = tiny_dataset();
  d.name = "red wine quality";
  const auto r = round_trip(d, core::save_dataset, core::load_dataset);
  EXPECT_EQ(r.name, d.name);
  auto q = tiny_quant();
  q.name = "white wine";
  const auto rq =
      round_trip(q, core::save_quant_dataset, core::load_quant_dataset);
  EXPECT_EQ(rq.name, q.name);
}

TEST(SerializeArtifacts, FloatMlpRejectsMissingRows) {
  mlp::FloatMlp net(mlp::Topology{{4, 3, 2}}, 9);
  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_float_mlp(v, os);
  });
  // Drop one weight row but keep the file otherwise well-formed: must be
  // rejected, not silently filled with random initialization.
  const auto pos = good.find("w 1");
  const auto eol = good.find('\n', pos);
  std::string bad = good;
  bad.erase(pos, eol - pos + 1);
  std::istringstream is(bad);
  EXPECT_THROW((void)core::load_float_mlp(is), std::invalid_argument);
}

TEST(SerializeArtifacts, QuantMlpRejectsMissingRows) {
  mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
  const auto net = mlp::QuantMlp::from_float(fnet);
  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_quant_mlp(v, os);
  });
  // Missing bias line.
  auto pos = good.find("b 1");
  auto eol = good.find('\n', pos);
  std::string bad = good;
  bad.erase(pos, eol - pos + 1);
  {
    std::istringstream is(bad);
    EXPECT_THROW((void)core::load_quant_mlp(is), std::invalid_argument);
  }
  // Missing layer header line (would silently keep default qrelu shift).
  pos = good.find("layer 1");
  eol = good.find('\n', pos);
  bad = good;
  bad.erase(pos, eol - pos + 1);
  {
    std::istringstream is(bad);
    EXPECT_THROW((void)core::load_quant_mlp(is), std::invalid_argument);
  }
}

TEST(SerializeArtifacts, BaselinePricingRoundTripAndRejects) {
  mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
  core::BaselinePricing p;
  p.net = mlp::QuantMlp::from_float(fnet);
  p.cost.area_mm2 = 123.5;
  p.cost.power_uw = 4.5e3;
  p.cost.critical_delay_us = 7.25;
  p.cost.cell_count = 999;
  p.train_accuracy = 0.875;
  p.test_accuracy = 0.8333333333333333;

  const auto r = round_trip(p, core::save_baseline_pricing,
                            core::load_baseline_pricing);
  EXPECT_EQ(r.cost.area_mm2, p.cost.area_mm2);
  EXPECT_EQ(r.cost.power_uw, p.cost.power_uw);
  EXPECT_EQ(r.cost.critical_delay_us, p.cost.critical_delay_us);
  EXPECT_EQ(r.cost.cell_count, p.cost.cell_count);
  EXPECT_EQ(r.train_accuracy, p.train_accuracy);
  EXPECT_EQ(r.test_accuracy, p.test_accuracy);
  ASSERT_EQ(r.net.topology().layers, p.net.topology().layers);
  EXPECT_EQ(r.net.layers()[0].weights, p.net.layers()[0].weights);
  EXPECT_EQ(r.net.layers()[1].qrelu_shift, p.net.layers()[1].qrelu_shift);

  const auto good = dump(p, [](const auto& v, auto& os) {
    core::save_baseline_pricing(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_baseline_pricing(is);
  };
  EXPECT_THROW((void)parse("pmlp-baseline v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find(" 999"), 4, " -12");  // negative cell count
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, DatasetDigestDetectsChanges) {
  const auto d = tiny_dataset();
  auto d2 = d;
  EXPECT_EQ(core::dataset_digest(d), core::dataset_digest(d2));
  d2.features[0] += 1e-16;
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d2));
  auto d3 = d;
  d3.labels[0] = 1;
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d3));
  auto d4 = d;
  d4.name = "other";
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d4));
}

TEST(SerializeArtifacts, GaStateRoundTripExact) {
  nsga2::GenerationState st;
  st.next_generation = 7;
  st.evaluations = 421;
  std::mt19937_64 rng(99);
  rng.discard(12345);
  {
    std::ostringstream ros;
    ros << rng;
    st.rng = ros.str();
  }
  for (int i = 0; i < 4; ++i) {
    nsga2::Individual ind;
    ind.genes = {i, 2 * i, 5 - i};
    ind.objectives = {0.5 + i, 1e-17 * i};
    ind.constraint_violation = i == 2 ? 0.25 : 0.0;
    ind.rank = i % 2;
    // Boundary individuals carry infinite crowding — must survive a trip.
    ind.crowding =
        i == 0 ? std::numeric_limits<double>::infinity() : 0.125 * i;
    st.population.push_back(std::move(ind));
  }

  const auto r = round_trip(st, core::save_ga_state, core::load_ga_state);
  EXPECT_EQ(r.next_generation, st.next_generation);
  EXPECT_EQ(r.evaluations, st.evaluations);
  EXPECT_EQ(r.rng, st.rng);
  ASSERT_EQ(r.population.size(), st.population.size());
  for (std::size_t i = 0; i < st.population.size(); ++i) {
    EXPECT_EQ(r.population[i].genes, st.population[i].genes);
    EXPECT_EQ(r.population[i].objectives, st.population[i].objectives);
    EXPECT_EQ(r.population[i].constraint_violation,
              st.population[i].constraint_violation);
    EXPECT_EQ(r.population[i].rank, st.population[i].rank);
    EXPECT_EQ(r.population[i].crowding, st.population[i].crowding);
  }
  // The restored RNG blob must reproduce the exact stream.
  std::mt19937_64 restored;
  std::istringstream ris(r.rng);
  ris >> restored;
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored(), rng());

  const auto good = dump(st, [](const auto& v, auto& os) {
    core::save_ga_state(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_ga_state(is);
  };
  EXPECT_THROW((void)parse("pmlp-ga-state v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find("population 4"), 12, "population 5");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

// ------------------------------------------------------------ golden bytes
// One small hand-built instance per format, compared byte for byte with a
// reference text. The bytes are a compatibility contract (existing
// checkpoint trees must keep resuming), so a writer change that alters any
// byte fails here first; each literal also re-parses and re-writes to itself.

namespace {

core::ApproxMlp golden_model() {
  core::ApproxMlp net(mlp::Topology{{2, 1, 2}}, core::BitConfig{});
  auto& l0 = net.layers()[0];
  l0.conn(0, 0) = {5, 1, 2};
  l0.conn(0, 1) = {15, -1, 0};
  l0.biases[0] = -7;
  auto& l1 = net.layers()[1];
  l1.conn(0, 0) = {255, 1, 6};
  l1.conn(1, 0) = {0, -1, 3};
  l1.biases[0] = 2047;
  l1.biases[1] = -2048;
  net.update_qrelu_shifts();
  return net;
}

mlp::QuantMlp golden_quant_mlp() {
  std::vector<mlp::QuantLayer> layers(2);
  layers[0] = {2, 1, 4, 0, {-128, 127}, {-9}};
  layers[1] = {1, 2, 8, 5, {3, -4}, {100000, -1}};
  return mlp::QuantMlp(mlp::Topology{{2, 1, 2}}, std::move(layers), 8, 8);
}

const char* const kGoldenModel =
    "pmlp-approx-mlp v1\n"
    "topology 2 1 2\n"
    "bits 8 4 8 12\n"
    "layer 0\n"
    "conn 0 0 5 1 2\n"
    "conn 0 1 15 -1 0\n"
    "bias 0 -7\n"
    "layer 1\n"
    "conn 0 0 255 1 6\n"
    "conn 1 0 0 -1 3\n"
    "bias 0 2047\n"
    "bias 1 -2048\n";

const char* const kGoldenQuantMlp =
    "pmlp-quant-mlp v1\n"
    "topology 3 2 1 2\n"
    "bits 8 8\n"
    "layer 0 4 0\n"
    "w 0 -128 127\n"
    "b 0 -9\n"
    "layer 1 8 5\n"
    "w 0 3\n"
    "w 1 -4\n"
    "b 0 100000\n"
    "b 1 -1\n"
    "end\n";

const std::string kFailure =
    "FlowEngine: malformed checkpoint meta ftree/BreastCancer_s1/meta.txt";

struct Golden {
  const char* name;
  std::string written;
  std::string expected;
  std::function<std::string(const std::string&)> reparse;
};

/// Writer output of `value` plus a parse-then-rewrite of any text.
template <typename T, typename Save, typename Load>
Golden golden(const char* name, const T& value, const std::string& expected,
              Save save, Load load) {
  return {name, dump(value, save), expected,
          [save, load](const std::string& text) {
            std::istringstream is(text);
            return dump(load(is), save);
          }};
}

template <typename T>
Golden golden_record(const char* name, const T& value,
                     const std::string& expected) {
  return golden(
      name, value, expected,
      [](const T& v, std::ostream& os) { core::save_record(v, os); },
      [](std::istream& is) { return core::load_record<T>(is); });
}

std::vector<Golden> golden_artifacts() {
  std::vector<Golden> g;
  g.push_back(golden(
      "approx-mlp", golden_model(), kGoldenModel,
      [](const core::ApproxMlp& v, std::ostream& os) {
        core::save_model(v, os);
      },
      [](std::istream& is) { return core::load_model(is); }));

  ds::Dataset d;
  d.name = "tiny set";
  d.n_features = 2;
  d.n_classes = 2;
  d.features = {0.1, 1.0, 1e-17, 0.0};
  d.labels = {1, 0};
  g.push_back(golden("dataset", d,
                     "pmlp-dataset v1\n"
                     "name tiny set\n"
                     "shape 2 2 2\n"
                     "row 1 0x1.999999999999ap-4 0x1p+0\n"
                     "row 0 0x1.70ef54646d497p-57 0x0p+0\n"
                     "end\n",
                     core::save_dataset, core::load_dataset));

  ds::QuantizedDataset q;
  q.n_features = 2;
  q.n_classes = 3;
  q.input_bits = 4;
  q.codes = {0, 15, 7, 8};
  q.labels = {2, 0};
  g.push_back(golden("quant-dataset", q,
                     "pmlp-quant-dataset v1\n"
                     "name -\n"
                     "shape 2 3 4 2\n"
                     "row 2 0 15\n"
                     "row 0 7 8\n"
                     "end\n",
                     core::save_quant_dataset, core::load_quant_dataset));

  mlp::FloatMlp f(mlp::Topology{{2, 1, 2}}, 0);
  f.layers()[0].weights = {0.5, -1.25};
  f.layers()[0].biases = {0.1};
  f.layers()[1].weights = {3.0, -0.0};
  f.layers()[1].biases = {1e-300, -2.5};
  g.push_back(golden("float-mlp", f,
                     "pmlp-float-mlp v1\n"
                     "topology 3 2 1 2\n"
                     "layer 0\n"
                     "w 0 0x1p-1 -0x1.4p+0\n"
                     "b 0 0x1.999999999999ap-4\n"
                     "layer 1\n"
                     "w 0 0x1.8p+1\n"
                     "w 1 -0x0p+0\n"
                     "b 0 0x1.56e1fc2f8f359p-997\n"
                     "b 1 -0x1.4p+1\n"
                     "end\n",
                     core::save_float_mlp, core::load_float_mlp));

  g.push_back(golden("quant-mlp", golden_quant_mlp(), kGoldenQuantMlp,
                     core::save_quant_mlp, core::load_quant_mlp));

  core::BaselinePricing p;
  p.net = golden_quant_mlp();
  p.cost = {123.5, 4500.0, 7.25, 999};
  p.train_accuracy = 0.875;
  p.test_accuracy = 0.8333333333333333;
  g.push_back(golden("baseline", p,
                     std::string("pmlp-baseline v1\n"
                                 "cost 0x1.eep+6 0x1.194p+12 0x1.dp+2 999\n"
                                 "train_accuracy 0x1.cp-1\n"
                                 "test_accuracy 0x1.aaaaaaaaaaaaap-1\n") +
                         kGoldenQuantMlp + "end\n",
                     core::save_baseline_pricing,
                     core::load_baseline_pricing));

  core::TrainingResult t;
  t.evaluations = 1234;
  t.wall_seconds = 0.125;
  t.baseline_train_accuracy = 0.9;
  t.evals_per_second = 9876.5;
  t.cache_hits = 77;
  t.cache_hit_rate = 0.25;
  t.estimated_pareto.push_back({golden_model(), 0.75, 42});
  g.push_back(golden(
      "training", t,
      std::string("pmlp-training v1\n"
                  "counters 1234 0x1p-3 0x1.ccccccccccccdp-1 0x1.34a4p+13 77 "
                  "0x1p-2\n"
                  "count 1\n"
                  "point 0x1.8p-1 42\n"
                  "model\n") +
          kGoldenModel + "endmodel\nend\n",
      core::save_training_result, core::load_training_result));

  core::HwEvaluatedPoint hp;
  hp.model = golden_model();
  hp.test_accuracy = 0.5;
  hp.fa_area = 9;
  hp.functional_match = false;
  hp.cost = {1.5, 2500.0, 12.0, 321};
  g.push_back(golden(
      "evaluated", std::vector<core::HwEvaluatedPoint>{hp},
      std::string("pmlp-evaluated v1\n"
                  "count 1\n"
                  "point 0x1p-1 9 0 0x1.8p+0 0x1.388p+11 0x1.8p+3 321\n"
                  "model\n") +
          kGoldenModel + "endmodel\nend\n",
      [](const auto& v, std::ostream& os) {
        core::save_evaluated_points(v, os);
      },
      [](std::istream& is) { return core::load_evaluated_points(is); }));

  nsga2::GenerationState st;
  st.next_generation = 3;
  st.evaluations = 48;
  st.rng = "5489 17 4242";
  st.population.resize(2);
  st.population[0].genes = {1, -2, 3};
  st.population[0].objectives = {0.5, 12.0};
  st.population[0].rank = 0;
  st.population[0].crowding = std::numeric_limits<double>::infinity();
  st.population[1].genes = {0, 0, 7};
  st.population[1].objectives = {0.25, 3.0};
  st.population[1].constraint_violation = 0.125;
  st.population[1].rank = 1;
  st.population[1].crowding = 0.75;
  g.push_back(golden("ga-state", st,
                     "pmlp-ga-state v1\n"
                     "generation 3\n"
                     "evaluations 48\n"
                     "rng 5489 17 4242\n"
                     "population 2 3 2\n"
                     "ind 0 inf 0x0p+0\n"
                     "genes 1 -2 3\n"
                     "obj 0x1p-1 0x1.8p+3\n"
                     "ind 1 0x1.8p-1 0x1p-3\n"
                     "genes 0 0 7\n"
                     "obj 0x1p-2 0x1.8p+1\n"
                     "end\n",
                     core::save_ga_state, core::load_ga_state));

  g.push_back(golden_record(
      "flow-meta",
      core::FlowMeta{"Cardio", 12455177774272030355ull, 3519310273943452005ull},
      "pmlp-flow-meta v1\n"
      "dataset Cardio\n"
      "digest 12455177774272030355\n"
      "config 3519310273943452005\n"
      "end\n"));

  core::CampaignManifest m;
  m.population = 24;
  m.generations = 8;
  m.ga_checkpoint = 2;
  m.flows = {{"Cardio_s1", "Cardio", 1}, {"Cardio_s2", "Cardio", 2}};
  g.push_back(golden_record(
      "campaign", m,
      "pmlp-campaign v1\n"
      "population 24\n"
      "generations 8\n"
      "ga_checkpoint 2\n"
      "flows 2\n"
      "flow Cardio_s1 Cardio 1\n"
      "flow Cardio_s2 Cardio 2\n"
      "end\n"));

  g.push_back(golden_record(
      "claim", core::lease::ClaimInfo{"w1", "vm", 609, ""},
      "pmlp-claim v1\nworker w1\nhost vm\npid 609\nend\n"));
  g.push_back(golden_record("beat", core::BeatRecord{"w1", 7},
                            "pmlp-beat v1\nworker w1\ncount 7\nend\n"));
  g.push_back(golden_record("failures", core::FailureRecord{1, kFailure},
                            "pmlp-failures v1\ncount 1\nerror " + kFailure +
                                "\nend\n"));
  g.push_back(golden_record("done", core::DoneMarker{"wX"},
                            "pmlp-done v1\nworker wX\nend\n"));
  g.push_back(golden_record("failed", core::FailedMarker{"wX", kFailure},
                            "pmlp-failed v1\nworker wX\nerror " + kFailure +
                                "\nend\n"));
  return g;
}

}  // namespace

TEST(SerializeGolden, EveryFormatWritesItsReferenceBytes) {
  const auto formats = golden_artifacts();
  EXPECT_EQ(formats.size(), 16u);
  for (const auto& f : formats) {
    SCOPED_TRACE(f.name);
    EXPECT_EQ(f.written, f.expected);
    EXPECT_EQ(f.reparse(f.expected), f.expected);
  }
}

TEST(SerializeGolden, ManifestFileCarriesItsChecksumFooter) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pmlp_golden_manifest_" + std::to_string(::getpid()));
  core::CampaignManifest m;
  m.population = 24;
  m.generations = 8;
  m.ga_checkpoint = 2;
  m.flows = {{"Cardio_s1", "Cardio", 1}, {"Cardio_s2", "Cardio", 2}};
  core::save_campaign_manifest(m, dir.string());
  std::ifstream is(dir / "campaign.txt", std::ios::binary);
  std::stringstream text;
  text << is.rdbuf();
  EXPECT_EQ(text.str(),
            "pmlp-campaign v1\n"
            "population 24\n"
            "generations 8\n"
            "ga_checkpoint 2\n"
            "flows 2\n"
            "flow Cardio_s1 Cardio 1\n"
            "flow Cardio_s2 Cardio 2\n"
            "end\n"
            "# crc32 5f9ca27f lines 8\n");
  fs::remove_all(dir);
}

TEST(SerializeGolden, RecordsRejectMalformedText) {
  auto parse_failures = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_record<core::FailureRecord>(is);
  };
  EXPECT_THROW((void)parse_failures("pmlp-failures v2\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_failures("pmlp-failures v1\ncount -1\nerror x\nend\n"),
      std::invalid_argument);
  EXPECT_THROW((void)parse_failures("pmlp-failures v1\ncount 1\nerror x\n"),
               std::invalid_argument);  // missing end
  // An empty error keeps its (empty) line instead of swallowing `end`.
  EXPECT_EQ(parse_failures("pmlp-failures v1\ncount 2\nerror \nend\n").count,
            2);
  // Multi-line errors are flattened onto their one line.
  std::ostringstream os;
  core::save_record(core::FailedMarker{"w", "a\nb\r"}, os);
  EXPECT_EQ(os.str(), "pmlp-failed v1\nworker w\nerror a b \nend\n");

  auto parse_meta = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_record<core::FlowMeta>(is);
  };
  EXPECT_EQ(parse_meta("pmlp-flow-meta v1\ndataset red wine\ndigest 1\n"
                       "config 2\nend\n")
                .dataset,
            "red wine");
  EXPECT_THROW((void)parse_meta("pmlp-flow-meta v1\ndataset x\nconfig 2\n"
                                "digest 1\nend\n"),
               std::invalid_argument);  // lines out of order
  EXPECT_THROW((void)parse_meta("pmlp-flow-meta v1\ndataset x\ndigest z\n"
                                "config 2\nend\n"),
               std::invalid_argument);
}

// --------------------------------------------- crash-truncation property

namespace {

/// One artifact type for the truncation sweep: its canonical body and a
/// parse-then-redump functor (throws std::invalid_argument on damage).
struct SweepArtifact {
  const char* name;
  std::string body;
  std::function<std::string(const std::string&)> reparse;
};

template <typename T, typename Save, typename Load>
SweepArtifact sweep_artifact(const char* name, const T& value, Save save,
                             Load load) {
  SweepArtifact a;
  a.name = name;
  a.body = dump(value, save);
  a.reparse = [save, load](const std::string& text) {
    std::istringstream is(text);
    const T parsed = load(is);
    std::ostringstream os;
    save(parsed, os);
    return os.str();
  };
  return a;
}

}  // namespace

// A crash can leave any byte-prefix of an artifact on disk (the
// fsync+rename commit in write_artifact_file makes this impossible for the
// FINAL name, but the property must hold anyway: no prefix of any artifact
// may load as silently wrong data). For every artifact type and every
// prefix length: the read either throws std::invalid_argument or yields
// the exact original value.
TEST(SerializeArtifacts, EveryPrefixTruncationDetectedOrExact) {
  namespace fs = std::filesystem;
  std::vector<SweepArtifact> artifacts;
  artifacts.push_back(sweep_artifact(
      "dataset", tiny_dataset(), core::save_dataset, core::load_dataset));
  artifacts.push_back(sweep_artifact("quant_dataset", tiny_quant(),
                                     core::save_quant_dataset,
                                     core::load_quant_dataset));
  {
    mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
    artifacts.push_back(sweep_artifact("float_mlp", fnet,
                                       core::save_float_mlp,
                                       core::load_float_mlp));
    core::BaselinePricing p;
    p.net = mlp::QuantMlp::from_float(fnet);
    p.cost.area_mm2 = 123.5;
    p.train_accuracy = 0.875;
    p.test_accuracy = 0.8333333333333333;
    artifacts.push_back(sweep_artifact("baseline", p,
                                       core::save_baseline_pricing,
                                       core::load_baseline_pricing));
  }
  {
    core::TrainingResult t;
    t.evaluations = 12;
    core::EstimatedPoint p;
    p.model = random_model(5, mlp::Topology{{3, 2, 2}});
    p.train_accuracy = 0.75;
    p.fa_area = 42;
    t.estimated_pareto.push_back(std::move(p));
    artifacts.push_back(sweep_artifact("training", t,
                                       core::save_training_result,
                                       core::load_training_result));
    core::HwEvaluatedPoint hp;
    hp.model = random_model(6, mlp::Topology{{3, 2, 2}});
    hp.test_accuracy = 0.5;
    hp.fa_area = 9;
    hp.cost.cell_count = 10;
    const std::vector<core::HwEvaluatedPoint> pts = {hp};
    artifacts.push_back(sweep_artifact(
        "evaluated", pts,
        [](const auto& v, std::ostream& os) {
          core::save_evaluated_points(v, os);
        },
        [](std::istream& is) { return core::load_evaluated_points(is); }));
  }
  {
    nsga2::GenerationState st;
    st.next_generation = 2;
    st.evaluations = 8;
    std::mt19937_64 rng(3);
    std::ostringstream ros;
    ros << rng;
    st.rng = ros.str();
    nsga2::Individual ind;
    ind.genes = {1, 2};
    ind.objectives = {0.5};
    st.population.push_back(std::move(ind));
    artifacts.push_back(sweep_artifact("ga_state", st, core::save_ga_state,
                                       core::load_ga_state));
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("pmlp_serialize_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const auto& art : artifacts) {
    SCOPED_TRACE(art.name);
    const std::string full_path = (dir / art.name).string();
    core::write_artifact_file(full_path,
                              [&](std::ostream& os) { os << art.body; });
    std::string full;
    {
      std::ifstream is(full_path, std::ios::binary);
      std::stringstream ss;
      ss << is.rdbuf();
      full = ss.str();
    }
    ASSERT_GT(full.size(), art.body.size());  // footer appended
    const std::string cut_path = full_path + ".cut";
    int detected = 0, exact = 0;
    for (std::size_t n = 0; n < full.size(); ++n) {
      {
        std::ofstream os(cut_path, std::ios::binary | std::ios::trunc);
        os.write(full.data(), static_cast<std::streamsize>(n));
      }
      try {
        const std::string text = core::read_artifact_file(cut_path);
        EXPECT_EQ(art.reparse(text), art.body) << "prefix " << n;
        ++exact;
      } catch (const std::invalid_argument&) {
        ++detected;  // damage caught — the only acceptable failure mode
      }
    }
    // Almost every prefix must be rejected; the only loadable prefixes are
    // the complete-body-no-footer legacy form(s).
    EXPECT_GT(detected, static_cast<int>(full.size()) - 4) << art.name;
    EXPECT_LE(exact, 3) << art.name;
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ refine

namespace {

struct RefineFixture {
  ds::QuantizedDataset train;
  core::ApproxMlp model;

  static RefineFixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 240;
    auto raw = ds::generate(spec);
    mlp::BackpropConfig bp;
    bp.epochs = 60;
    bp.seed = 51;
    auto fnet = mlp::train_float_mlp(
        mlp::Topology{{raw.n_features, 3, raw.n_classes}}, raw, bp);
    auto baseline = mlp::QuantMlp::from_float(fnet);
    return RefineFixture{
        ds::quantize_inputs(raw, 4),
        core::ApproxMlp::from_quant_baseline(baseline, core::BitConfig{})};
  }
};

}  // namespace

TEST(Refine, ReducesAreaWithoutBreachingFloor) {
  auto f = RefineFixture::make();
  const double base_acc = core::accuracy(f.model, f.train);
  core::RefineConfig cfg;
  cfg.accuracy_floor = base_acc - 0.03;
  const auto report = core::refine_greedy(f.model, f.train, cfg);

  EXPECT_LE(report.fa_after, report.fa_before);
  EXPECT_GT(report.bits_cleared, 0);
  EXPECT_GE(report.accuracy_after, cfg.accuracy_floor - 1e-12);
  EXPECT_EQ(report.fa_after, f.model.fa_area());
}

TEST(Refine, StrictFloorBlocksChangesThatHurt) {
  auto f = RefineFixture::make();
  const double base_acc = core::accuracy(f.model, f.train);
  core::RefineConfig cfg;
  cfg.accuracy_floor = base_acc;  // no loss allowed at all
  const auto report = core::refine_greedy(f.model, f.train, cfg);
  EXPECT_GE(report.accuracy_after, base_acc - 1e-12);
}

TEST(Refine, IdempotentOnceConverged) {
  auto f = RefineFixture::make();
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(f.model, f.train) - 0.03;
  cfg.max_passes = 4;
  (void)core::refine_greedy(f.model, f.train, cfg);
  const long area = f.model.fa_area();
  const auto second = core::refine_greedy(f.model, f.train, cfg);
  EXPECT_EQ(second.fa_after, area);
  EXPECT_EQ(second.bits_cleared, 0);
}

TEST(Refine, FullyPrunedModelUntouched) {
  auto f = RefineFixture::make();
  core::ApproxMlp empty(f.model.topology(), f.model.bits());
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;
  const auto report = core::refine_greedy(empty, f.train, cfg);
  EXPECT_EQ(report.fa_before, 0);
  EXPECT_EQ(report.fa_after, 0);
  EXPECT_EQ(report.bits_cleared, 0);
}
