// Contract of the compiled sparse evaluation engine: CompiledNet inference
// and its streamed FA-area must be bit-identical to the naive reference
// oracle (ApproxMlp::forward / fa_area) on any chromosome, and the genome
// memo cache must never change a training outcome — only its speed.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/problem.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;

namespace {

/// Mask-gene shaping for the chromosome variants the GA actually visits.
enum class MaskStyle { kDense, kSparse, kFullyPruned, kCoarse };

std::vector<int> random_genes(const core::ChromosomeCodec& codec,
                              MaskStyle style, std::mt19937_64& rng) {
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    std::uniform_int_distribution<int> pick(b.lo, b.hi);
    int v = pick(rng);
    if (codec.kind(g) == core::GeneKind::kMask) {
      switch (style) {
        case MaskStyle::kDense:
          v = b.hi;
          break;
        case MaskStyle::kSparse:
          // Evolved fronts are mostly pruned: 60% of conns fully removed.
          if (rng() % 10 < 6) v = 0;
          break;
        case MaskStyle::kFullyPruned:
          v = 0;
          break;
        case MaskStyle::kCoarse:
          // Coarse pruning maps every non-zero mask to all-ones before
          // evaluation; feed it the all-or-nothing shape directly.
          v = (rng() & 1u) ? 0 : b.hi;
          break;
      }
    }
    genes[static_cast<std::size_t>(g)] = v;
  }
  return genes;
}

ds::QuantizedDataset random_dataset(int n_features, int n_classes,
                                    std::size_t n_samples, int bits,
                                    std::uint64_t seed) {
  ds::QuantizedDataset d;
  d.n_features = n_features;
  d.n_classes = n_classes;
  d.input_bits = bits;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> code(0, (1 << bits) - 1);
  std::uniform_int_distribution<int> label(0, n_classes - 1);
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (int f = 0; f < n_features; ++f) {
      d.codes.push_back(static_cast<std::uint8_t>(code(rng)));
    }
    d.labels.push_back(label(rng));
  }
  return d;
}

void expect_compiled_matches_naive(const core::ApproxMlp& net,
                                   const ds::QuantizedDataset& data) {
  const core::CompiledNet compiled(net);
  core::EvalWorkspace ws;
  ASSERT_EQ(compiled.fa_area(), net.fa_area());
  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto naive = net.forward(data.row(s));
    const auto fast = compiled.forward(data.row(s), ws);
    ASSERT_EQ(naive.size(), fast.size());
    for (std::size_t k = 0; k < naive.size(); ++k) {
      ASSERT_EQ(naive[k], fast[k]) << "sample " << s << " logit " << k;
    }
    ASSERT_EQ(net.predict(data.row(s)), compiled.predict(data.row(s), ws));
  }
  EXPECT_DOUBLE_EQ(core::accuracy(net, data),
                   compiled.accuracy(core::SamplePlanes(data), ws));
}

}  // namespace

TEST(CompiledNet, MatchesNaiveOnRandomChromosomes) {
  const mlp::Topology topo{{5, 4, 3}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(5, 3, 40, bits.input_bits, 11);

  std::mt19937_64 rng(42);
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  for (MaskStyle style : styles) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto genes = random_genes(codec, style, rng);
      expect_compiled_matches_naive(codec.decode(genes), data);
    }
  }
}

TEST(CompiledNet, MatchesNaiveAfterCoarsePruningTransform) {
  const mlp::Topology topo{{4, 3, 2}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(4, 2, 30, bits.input_bits, 3);

  std::mt19937_64 rng(7);
  for (int rep = 0; rep < 8; ++rep) {
    core::ApproxMlp net =
        codec.decode(random_genes(codec, MaskStyle::kSparse, rng));
    // The HwAwareProblem coarse_pruning transform: all-or-nothing masks.
    for (auto& layer : net.layers()) {
      const auto full = static_cast<std::uint32_t>(
          pmlp::bitops::low_mask(layer.input_bits));
      for (auto& c : layer.conns) {
        if (c.mask != 0) c.mask = full;
      }
    }
    net.update_qrelu_shifts();
    expect_compiled_matches_naive(net, data);
  }
}

TEST(CompiledNet, SingleWorkspaceServesManyNets) {
  const core::BitConfig bits;
  const auto small = random_dataset(3, 2, 10, bits.input_bits, 5);
  const auto large = random_dataset(8, 3, 10, bits.input_bits, 6);
  const core::ChromosomeCodec small_codec(mlp::Topology{{3, 2, 2}}, bits);
  const core::ChromosomeCodec large_codec(mlp::Topology{{8, 6, 3}}, bits);

  const core::SamplePlanes small_planes(small);
  const core::SamplePlanes large_planes(large);
  core::EvalWorkspace ws;
  std::mt19937_64 rng(9);
  for (int rep = 0; rep < 4; ++rep) {
    const core::CompiledNet a(
        small_codec.decode(random_genes(small_codec, MaskStyle::kSparse, rng)));
    const core::CompiledNet b(
        large_codec.decode(random_genes(large_codec, MaskStyle::kDense, rng)));
    // Alternate between shapes through the same (growing) workspace.
    (void)a.accuracy(small_planes, ws);
    (void)b.accuracy(large_planes, ws);
    const core::ApproxMlp ref = large_codec.decode(
        large_codec.encode(large_codec.decode(random_genes(
            large_codec, MaskStyle::kSparse, rng))));
    const core::CompiledNet c(ref);
    EXPECT_DOUBLE_EQ(c.accuracy(large_planes, ws), core::accuracy(ref, large));
  }
}

TEST(EvalCache, HitRefreshesAndEvictsLru) {
  core::EvalCache cache(2);
  const std::vector<int> g1{1, 2, 3}, g2{4, 5, 6}, g3{7, 8, 9};
  nsga2::Problem::Evaluation ev;
  ev.objectives = {0.5, 10.0};

  EXPECT_FALSE(cache.lookup(g1, ev));
  cache.insert(g1, {{0.1, 1.0}, 0.0});
  cache.insert(g2, {{0.2, 2.0}, 0.5});
  EXPECT_EQ(cache.size(), 2u);

  // Touch g1 so g2 becomes LRU, then insert g3: g2 must be evicted.
  EXPECT_TRUE(cache.lookup(g1, ev));
  EXPECT_EQ(ev.objectives[1], 1.0);
  cache.insert(g3, {{0.3, 3.0}, 0.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(g1, ev));
  EXPECT_FALSE(cache.lookup(g2, ev));
  EXPECT_TRUE(cache.lookup(g3, ev));
  EXPECT_EQ(ev.constraint_violation, 0.0);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_NEAR(stats.hit_rate(), 3.0 / 5.0, 1e-12);
}

TEST(EvalCache, CapacityZeroDisables) {
  core::EvalCache cache(0);
  const std::vector<int> g{1, 2, 3};
  nsga2::Problem::Evaluation ev;
  cache.insert(g, {{0.1, 1.0}, 0.0});
  EXPECT_FALSE(cache.lookup(g, ev));
  EXPECT_EQ(cache.size(), 0u);
}

namespace {

/// Small but real GA-AxC setup (quantized baseline + doped seeds), shared
/// across the front-identity tests below.
struct Fixture {
  ds::QuantizedDataset train;
  mlp::Topology topology;
  mlp::QuantMlp baseline;

  static Fixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 100;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 1);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig bp;
    bp.epochs = 15;
    bp.seed = 21;
    auto fnet = mlp::train_float_mlp(topo, split.train, bp);
    return Fixture{ds::quantize_inputs(split.train, 4), topo,
                   mlp::QuantMlp::from_float(fnet, 8, 4, 8)};
  }
};

const Fixture& fixture() {
  static const Fixture f = Fixture::make();
  return f;
}

nsga2::Result run_ga(const nsga2::Problem& problem, int n_threads,
                     int generations = 4) {
  nsga2::Config cfg;
  cfg.population = 16;
  cfg.generations = generations;
  cfg.seed = 77;
  cfg.n_threads = n_threads;
  return nsga2::optimize(problem, cfg);
}

void expect_identical(const nsga2::Result& a, const nsga2::Result& b) {
  ASSERT_EQ(a.population.size(), b.population.size());
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.population.size(); ++i) {
    EXPECT_EQ(a.population[i].genes, b.population[i].genes);
    EXPECT_EQ(a.population[i].objectives, b.population[i].objectives);
  }
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_EQ(a.pareto_front[i].genes, b.pareto_front[i].genes);
    EXPECT_EQ(a.pareto_front[i].objectives, b.pareto_front[i].objectives);
  }
}

/// Forwards to another problem and counts the genomes that reach it.
class CountingProblem final : public nsga2::Problem {
 public:
  explicit CountingProblem(const nsga2::Problem& inner) : inner_(inner) {}
  int n_genes() const override { return inner_.n_genes(); }
  nsga2::GeneBounds bounds(int gene) const override {
    return inner_.bounds(gene);
  }
  Evaluation evaluate(std::span<const int> genes) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.evaluate(genes);
  }
  std::vector<std::vector<int>> seed_individuals(int max) const override {
    return inner_.seed_individuals(max);
  }
  std::optional<int> mutate_gene(int gene, int current,
                                 std::mt19937_64& rng) const override {
    return inner_.mutate_gene(gene, current, rng);
  }
  long calls() const { return calls_.load(); }

 private:
  const nsga2::Problem& inner_;
  mutable std::atomic<long> calls_{0};
};

}  // namespace

TEST(EvalEngine, CachedAndUncachedFrontsIdenticalUnderParallelism) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  // Long enough that offspring rediscover genomes scored in an earlier
  // generation but no longer among the parents: only the cache serves those.
  constexpr int kGenerations = 24;

  core::ProblemConfig uncached_cfg;
  uncached_cfg.eval_cache_capacity = 0;
  core::HwAwareProblem uncached(codec, f.train, f.baseline, uncached_cfg);
  const CountingProblem counted(uncached);
  const auto reference = run_ga(counted, 1, kGenerations);
  EXPECT_LT(counted.calls(), 16 * (kGenerations + 1));

  core::ProblemConfig cached_cfg;
  cached_cfg.eval_cache_capacity = 1 << 12;
  std::vector<long> hits;
  for (int n_threads : {1, 2, 4}) {
    core::HwAwareProblem cached(codec, f.train, f.baseline, cached_cfg);
    expect_identical(reference, run_ga(cached, n_threads, kGenerations));
    const auto stats = cached.cache_stats();
    // The evaluator copies duplicates within a generation and clones of a
    // parent, so the cache sees exactly the genomes that reach the problem:
    // fewer than the slots scored, and the same at every thread
    // count. This cache never evicts (capacity >> lookups), so its hits do
    // not depend on the thread count either; with eviction they would,
    // because the LRU refresh order follows thread interleaving.
    EXPECT_EQ(stats.lookups(), counted.calls()) << n_threads << " threads";
    EXPECT_GT(stats.hits, 0) << "offspring should rediscover older genomes";
    hits.push_back(stats.hits);
  }
  EXPECT_EQ(hits[1], hits[0]);
  EXPECT_EQ(hits[2], hits[0]);
}

TEST(EvalEngine, TinyCacheStaysBitIdentical) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});

  core::ProblemConfig uncached_cfg;
  uncached_cfg.eval_cache_capacity = 0;
  core::HwAwareProblem uncached(codec, f.train, f.baseline, uncached_cfg);

  // A capacity far below the population forces constant eviction; the run
  // must still be bit-identical because cached values equal recomputation.
  core::ProblemConfig tiny_cfg;
  tiny_cfg.eval_cache_capacity = 3;
  core::HwAwareProblem tiny(codec, f.train, f.baseline, tiny_cfg);
  expect_identical(run_ga(uncached, 4), run_ga(tiny, 4));
}

TEST(EvalEngine, ProblemEvaluateMatchesNaiveObjectives) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::ProblemConfig cfg;  // cache on: both lookups below must agree
  core::HwAwareProblem problem(codec, f.train, f.baseline, cfg);

  std::mt19937_64 rng(123);
  for (int rep = 0; rep < 6; ++rep) {
    const auto genes = random_genes(codec, MaskStyle::kSparse, rng);
    const auto ev = problem.evaluate(genes);
    const core::ApproxMlp net = codec.decode(genes);
    EXPECT_DOUBLE_EQ(ev.objectives[0], 1.0 - core::accuracy(net, f.train));
    EXPECT_DOUBLE_EQ(ev.objectives[1], static_cast<double>(net.fa_area()));
    // Second call must hit the cache and return the same thing.
    const auto again = problem.evaluate(genes);
    EXPECT_EQ(ev.objectives, again.objectives);
    EXPECT_EQ(ev.constraint_violation, again.constraint_violation);
  }
  EXPECT_EQ(problem.cache_stats().hits, 6);
}

// ---------------------------------------------------------------- batching

namespace {

/// Force a dispatch for one scope, restoring the previous one on exit so
/// test order never leaks an override.
struct ScopedIsa {
  core::SimdIsa prev;
  explicit ScopedIsa(core::SimdIsa isa) : prev(core::active_simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~ScopedIsa() { core::set_simd_isa(prev); }
};

}  // namespace

TEST(SimdDispatch, NamesAndCapabilityClamping) {
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kNeon), "neon");

  const auto prev = core::active_simd_isa();
  const auto detected = core::detect_simd_isa();
  EXPECT_EQ(core::set_simd_isa(detected), detected);
  EXPECT_EQ(core::active_simd_isa(), detected);
  EXPECT_EQ(core::set_simd_isa(core::SimdIsa::kScalar),
            core::SimdIsa::kScalar);
  // Requesting an ISA this machine lacks degrades to scalar, never UB.
  const auto other = detected == core::SimdIsa::kAvx2 ? core::SimdIsa::kNeon
                                                      : core::SimdIsa::kAvx2;
  EXPECT_EQ(core::set_simd_isa(other), core::SimdIsa::kScalar);
  core::set_simd_isa(prev);
}

TEST(PredictBatch, BitIdenticalToPerSamplePredictAcrossStylesAndSizes) {
  const mlp::Topology topo{{6, 5, 4}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  // 129 = two full 64-sample blocks + a 1-sample tail, so every kernel
  // (full vector lanes, partial tail, single sample) is exercised.
  const auto data = random_dataset(6, 4, 129, bits.input_bits, 21);

  std::mt19937_64 rng(99);
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  const std::size_t sizes[] = {1, 7, 32, 129};
  const core::SamplePlanes planes(data);
  core::EvalWorkspace ws;
  for (MaskStyle style : styles) {
    for (int rep = 0; rep < 4; ++rep) {
      const core::ApproxMlp net = codec.decode(random_genes(codec, style, rng));
      const core::CompiledNet compiled(net);
      // Every net the paper's BitConfig can decode must take the fast path.
      EXPECT_TRUE(compiled.block_safe());
      for (std::size_t n : sizes) {
        std::vector<std::int32_t> preds(n);
        compiled.predict_batch(data.codes.data(), n, preds.data(), ws);
        for (std::size_t s = 0; s < n; ++s) {
          ASSERT_EQ(preds[s], compiled.predict(data.row(s), ws))
              << "style " << static_cast<int>(style) << " batch " << n
              << " sample " << s;
          ASSERT_EQ(preds[s], net.predict(data.row(s)));
        }
      }
      const auto all = compiled.predict_batch(data, ws);
      ASSERT_EQ(all.size(), data.size());
      EXPECT_DOUBLE_EQ(compiled.accuracy(planes, ws),
                       core::accuracy(net, data));
    }
  }
}

TEST(PredictBatch, ForcedScalarDispatchBitIdenticalToSimd) {
  // Every batch size 1..130 covers one and two full blocks, each short
  // last-block length, and a one-sample block after two full ones.
  const mlp::Topology topo{{6, 5, 4}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(6, 4, 130, bits.input_bits, 5);

  std::mt19937_64 rng(17);
  core::EvalWorkspace ws;
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  for (MaskStyle style : styles) {
    for (int rep = 0; rep < 4; ++rep) {
      core::ApproxMlp net = codec.decode(random_genes(codec, style, rng));
      // Decoded QReLU shifts keep every activation within act_max; zeroing
      // them on odd reps makes the act_max clamp bind.
      if (rep % 2 == 1) {
        for (auto& layer : net.layers()) layer.qrelu_shift = 0;
      }
      const core::CompiledNet compiled(net);
      std::vector<int> expected(data.size());
      for (std::size_t s = 0; s < data.size(); ++s) {
        expected[s] = net.predict(data.row(s));
      }
      for (std::size_t n = 1; n <= data.size(); ++n) {
        std::vector<std::int32_t> scalar_preds(n, -1);
        std::vector<std::int32_t> simd_preds(n, -1);
        {
          ScopedIsa forced(core::SimdIsa::kScalar);
          ASSERT_EQ(core::active_simd_isa(), core::SimdIsa::kScalar);
          compiled.predict_batch(data.codes.data(), n, scalar_preds.data(),
                                 ws);
        }
        {
          // On a scalar-only machine both runs dispatch scalar and the test
          // degenerates to a determinism check — still meaningful.
          ScopedIsa forced(core::detect_simd_isa());
          compiled.predict_batch(data.codes.data(), n, simd_preds.data(), ws);
        }
        for (std::size_t s = 0; s < n; ++s) {
          ASSERT_EQ(scalar_preds[s], simd_preds[s])
              << "n " << n << " sample " << s;
          ASSERT_EQ(scalar_preds[s], expected[s])
              << "n " << n << " sample " << s;
        }
      }
    }
  }
}

TEST(PredictBatch, OverflowUnsafeNetFallsBackToPerSamplePath) {
  // act_bits wide enough that the QReLU clamp exceeds int32 makes the
  // static bound fail: block_safe() must refuse and predict_batch must
  // route through the exact int64 per-sample path.
  core::BitConfig bits;
  bits.act_bits = 36;
  const mlp::Topology topo{{5, 4, 3}};
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(5, 3, 70, bits.input_bits, 9);

  std::mt19937_64 rng(31);
  core::EvalWorkspace ws;
  const core::ApproxMlp net =
      codec.decode(random_genes(codec, MaskStyle::kDense, rng));
  const core::CompiledNet compiled(net);
  EXPECT_FALSE(compiled.block_safe());
  std::vector<std::int32_t> preds(data.size());
  compiled.predict_batch(data.codes.data(), data.size(), preds.data(), ws);
  for (std::size_t s = 0; s < data.size(); ++s) {
    ASSERT_EQ(preds[s], net.predict(data.row(s)));
  }
  EXPECT_DOUBLE_EQ(compiled.accuracy(core::SamplePlanes(data), ws),
                   core::accuracy(net, data));
}

// ------------------------------------------------------------ sample planes

namespace {

/// Output-layer shapes for the planes tests. A fully pruned output layer
/// makes every logit its bias; with equal biases every class ties, so the
/// first-max rule alone decides.
enum class OutputStyle { kDense, kSparse, kFullyPruned, kPrunedTied };

core::ApproxMlp planes_net(const core::ChromosomeCodec& codec,
                           OutputStyle style, std::mt19937_64& rng) {
  const MaskStyle masks =
      style == OutputStyle::kDense ? MaskStyle::kDense : MaskStyle::kSparse;
  core::ApproxMlp net = codec.decode(random_genes(codec, masks, rng));
  if (style == OutputStyle::kFullyPruned || style == OutputStyle::kPrunedTied) {
    auto& out = net.layers().back();
    for (auto& c : out.conns) c.mask = 0;
    if (style == OutputStyle::kPrunedTied) {
      for (auto& b : out.biases) b = out.biases.front();
    }
    net.update_qrelu_shifts();
  }
  return net;
}

}  // namespace

TEST(SamplePlanes, AccuracyMatchesNaiveAndPredictBatchAcrossSizesAndIsas) {
  const core::BitConfig bits;
  const std::size_t sizes[] = {1, 63, 64, 65, 2449};
  const OutputStyle styles[] = {OutputStyle::kDense, OutputStyle::kSparse,
                                OutputStyle::kFullyPruned,
                                OutputStyle::kPrunedTied};
  const core::SimdIsa isas[] = {core::detect_simd_isa(),
                                core::SimdIsa::kScalar};
  std::mt19937_64 rng(2449);
  core::EvalWorkspace ws;
  for (int n_out : {2, 10}) {
    const core::ChromosomeCodec codec(mlp::Topology{{16, 5, n_out}}, bits);
    for (std::size_t n : sizes) {
      const auto data = random_dataset(16, n_out, n, bits.input_bits,
                                       static_cast<std::uint64_t>(n) + 1);
      const core::SamplePlanes planes(data);
      ASSERT_EQ(planes.size(), n);
      for (OutputStyle style : styles) {
        const core::ApproxMlp net = planes_net(codec, style, rng);
        const core::CompiledNet compiled(net);
        ASSERT_TRUE(compiled.block_safe());
        const double naive = core::accuracy(net, data);
        for (core::SimdIsa isa : isas) {
          ScopedIsa forced(isa);
          const auto preds = compiled.predict_batch(data, ws);
          std::size_t correct = 0;
          for (std::size_t s = 0; s < n; ++s) {
            ASSERT_EQ(preds[s], net.predict(data.row(s)))
                << "n_out " << n_out << " size " << n << " style "
                << static_cast<int>(style) << " sample " << s;
            if (preds[s] == data.labels[s]) ++correct;
          }
          const double acc = compiled.accuracy(planes, ws);
          EXPECT_EQ(acc, naive) << "n_out " << n_out << " size " << n
                                << " style " << static_cast<int>(style)
                                << " isa " << core::simd_isa_name(isa);
          EXPECT_EQ(acc, static_cast<double>(correct) /
                             static_cast<double>(n));
        }
      }
    }
  }
}

TEST(SamplePlanes, OverflowUnsafeNetTakesInt64Fallback) {
  core::BitConfig bits;
  bits.act_bits = 36;  // QReLU clamp beyond int32: block_safe() fails
  const core::ChromosomeCodec codec(mlp::Topology{{16, 5, 10}}, bits);
  const auto data = random_dataset(16, 10, 130, bits.input_bits, 36);
  const core::SamplePlanes planes(data);
  std::mt19937_64 rng(36);
  core::EvalWorkspace ws;
  for (OutputStyle style : {OutputStyle::kDense, OutputStyle::kPrunedTied}) {
    const core::ApproxMlp net = planes_net(codec, style, rng);
    const core::CompiledNet compiled(net);
    ASSERT_FALSE(compiled.block_safe());
    for (core::SimdIsa isa : {core::detect_simd_isa(), core::SimdIsa::kScalar}) {
      ScopedIsa forced(isa);
      EXPECT_EQ(compiled.accuracy(planes, ws), core::accuracy(net, data));
    }
  }
}

TEST(SamplePlanes, EmptyDatasetScoresZero) {
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(mlp::Topology{{4, 3, 2}}, bits);
  const auto data = random_dataset(4, 2, 0, bits.input_bits, 1);
  const core::SamplePlanes planes(data);
  std::mt19937_64 rng(1);
  core::EvalWorkspace ws;
  const core::CompiledNet compiled(planes_net(codec, OutputStyle::kDense, rng));
  EXPECT_EQ(planes.size(), 0u);
  EXPECT_EQ(compiled.accuracy(planes, ws), 0.0);
}

TEST(SamplePlanes, FeatureWidthMismatchThrows) {
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(mlp::Topology{{4, 3, 2}}, bits);
  const auto data = random_dataset(5, 2, 10, bits.input_bits, 1);
  const core::SamplePlanes planes(data);
  std::mt19937_64 rng(1);
  core::EvalWorkspace ws;
  const core::CompiledNet compiled(planes_net(codec, OutputStyle::kDense, rng));
  EXPECT_THROW((void)compiled.accuracy(planes, ws), std::invalid_argument);
}

TEST(ArgmaxKernel, MatchesArgmaxFirstOnTiesUnderEveryIsa) {
  // Values from a 3-symbol alphabet make ties the common case; every block
  // size 1..kBlockSamples covers full vectors and each tail length.
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> value(-1, 1);
  for (int n_out : {1, 2, 3, 10}) {
    for (int n = 1; n <= core::CompiledNet::kBlockSamples; ++n) {
      std::vector<std::int32_t> planes(static_cast<std::size_t>(n_out * n));
      for (auto& v : planes) v = value(rng);
      for (core::SimdIsa isa :
           {core::detect_simd_isa(), core::SimdIsa::kScalar}) {
        std::vector<std::int32_t> preds(static_cast<std::size_t>(n), -1);
        core::argmax_planes(isa, planes.data(), n_out, n, preds.data());
        for (int s = 0; s < n; ++s) {
          std::vector<std::int64_t> logits;
          for (int k = 0; k < n_out; ++k) {
            logits.push_back(planes[static_cast<std::size_t>(k * n + s)]);
          }
          ASSERT_EQ(preds[static_cast<std::size_t>(s)],
                    core::argmax_first(logits))
              << "n_out " << n_out << " n " << n << " sample " << s
              << " isa " << core::simd_isa_name(isa);
        }
      }
    }
  }
}
