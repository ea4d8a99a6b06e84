#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <utility>

#include "pmlp/nsga2/nsga2.hpp"

namespace nsga2 = pmlp::nsga2;

namespace {

/// Deb's O(N^2) peeling: the ranking oracle for the O(N log N) sweep.
int quadratic_non_dominated_sort(std::vector<nsga2::Individual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<int> dominate_count(n, 0);
  std::vector<std::size_t> current;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (nsga2::dominates(pop[i], pop[j])) {
        dominated[i].push_back(j);
        ++dominate_count[j];
      } else if (nsga2::dominates(pop[j], pop[i])) {
        dominated[j].push_back(i);
        ++dominate_count[i];
      }
    }
    if (dominate_count[i] == 0) {
      pop[i].rank = 0;
      current.push_back(i);
    }
  }

  int rank = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated[i]) {
        if (--dominate_count[j] == 0) {
          pop[j].rank = rank + 1;
          next.push_back(j);
        }
      }
    }
    current = std::move(next);
    ++rank;
  }
  return rank;
}

/// Crowding distance with one population scan per rank: the crowding
/// oracle for the bucketed pass.
void scan_crowding_distances(std::vector<nsga2::Individual>& pop) {
  if (pop.empty()) return;
  const std::size_t n_obj = pop.front().objectives.size();
  for (auto& ind : pop) ind.crowding = 0.0;
  int max_rank = 0;
  for (const auto& ind : pop) max_rank = std::max(max_rank, ind.rank);
  std::vector<std::size_t> idx;
  for (int r = 0; r <= max_rank; ++r) {
    idx.clear();
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (pop[i].rank == r) idx.push_back(i);
    }
    if (idx.empty()) continue;
    for (std::size_t m = 0; m < n_obj; ++m) {
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return pop[a].objectives[m] < pop[b].objectives[m];
      });
      const double lo = pop[idx.front()].objectives[m];
      const double hi = pop[idx.back()].objectives[m];
      pop[idx.front()].crowding = std::numeric_limits<double>::infinity();
      pop[idx.back()].crowding = std::numeric_limits<double>::infinity();
      if (hi <= lo) continue;
      for (std::size_t k = 1; k + 1 < idx.size(); ++k) {
        pop[idx[k]].crowding += (pop[idx[k + 1]].objectives[m] -
                                 pop[idx[k - 1]].objectives[m]) /
                                (hi - lo);
      }
    }
  }
}

/// A random population of `n` whose objectives and violations are drawn to
/// stress ties. kind: 0 = coarse grid (heavy ties, -0.0 next to 0.0),
/// 1 = continuous, 2 = a few repeated points, 3 = all feasible on a grid,
/// 4 = all infeasible with few distinct violations, 5 = mixed continuous.
std::vector<nsga2::Individual> random_population(std::size_t n, int kind,
                                                 std::mt19937_64& rng) {
  const double grid[] = {-0.0, 0.0, 1.0, 2.0, 3.0};
  std::uniform_real_distribution<double> real(0.0, 1.0);
  std::vector<std::vector<double>> pool;
  for (int k = 0; k < 4; ++k) pool.push_back({real(rng), real(rng)});
  std::vector<nsga2::Individual> pop(n);
  for (auto& ind : pop) {
    switch (kind) {
      case 0:
      case 3:
      case 4:
        ind.objectives = {grid[rng() % 5], grid[rng() % 5]};
        break;
      case 2:
        ind.objectives = pool[rng() % pool.size()];
        break;
      default:
        ind.objectives = {real(rng), real(rng)};
    }
    // Violations <= 0 are feasible; 0.5 / 1.0 / 2.0 repeat often.
    const double violations[] = {0.0, -1.0, 0.5, 1.0, 2.0};
    switch (kind) {
      case 3:
        ind.constraint_violation = rng() % 2 ? 0.0 : -1.0;
        break;
      case 4:
        ind.constraint_violation = violations[2 + rng() % 3];
        break;
      case 5:
        ind.constraint_violation = rng() % 3 == 0 ? real(rng) : 0.0;
        break;
      default:
        ind.constraint_violation = violations[rng() % 5];
    }
  }
  return pop;
}

nsga2::Individual make_ind(std::vector<double> objs, double violation = 0.0) {
  nsga2::Individual ind;
  ind.objectives = std::move(objs);
  ind.constraint_violation = violation;
  return ind;
}

/// Discrete bi-objective test problem: genes g_i in [0, 10];
/// f1 = sum(g), f2 = sum((10 - g)) — the whole diagonal is Pareto-optimal,
/// so convergence and spread are easy to quantify.
class LinearTradeoff final : public nsga2::Problem {
 public:
  explicit LinearTradeoff(int n = 8) : n_(n) {}
  [[nodiscard]] int n_genes() const override { return n_; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 10}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += 10 - g;
    }
    return {{f1, f2}, 0.0};
  }

 private:
  int n_;
};

/// Problem with a constraint: f1 must be >= 20 (violation otherwise).
class ConstrainedTradeoff final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 6; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 10}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += 10 - g;
    }
    return {{f1, f2}, std::max(0.0, 20.0 - f1)};
  }
};

/// Problem exposing seeding.
class SeededProblem final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 4; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 5}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0;
    for (int g : genes) f1 += g;
    return {{f1, -f1}, 0.0};
  }
  [[nodiscard]] std::vector<std::vector<int>> seed_individuals(
      int) const override {
    return {{5, 5, 5, 5}, {9, -3, 2, 2}};  // second is out of bounds
  }
};

/// Records every evaluate() call. Genes in [0, 2] make duplicates common;
/// the objectives are a pure function of the genes.
class CountingProblem final : public nsga2::Problem {
 public:
  explicit CountingProblem(int n) : n_(n) {}
  [[nodiscard]] int n_genes() const override { return n_; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 2}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      calls_.emplace_back(genes.begin(), genes.end());
    }
    return objectives_of(genes);
  }
  static Evaluation objectives_of(std::span<const int> genes) {
    double f1 = 0, f2 = 0;
    for (std::size_t g = 0; g < genes.size(); ++g) {
      f1 += genes[g] * static_cast<double>(g + 1);
      f2 += 2 - genes[g];
    }
    return {{f1, f2}, f1 < 4 ? 4 - f1 : 0.0};
  }
  /// The calls since the last take, in no particular order.
  std::vector<std::vector<int>> take_calls() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  int n_;
  mutable std::mutex mutex_;
  mutable std::vector<std::vector<int>> calls_;
};

}  // namespace

TEST(Dominates, ParetoRules) {
  const auto a = make_ind({1.0, 2.0});
  const auto b = make_ind({2.0, 3.0});
  const auto c = make_ind({2.0, 1.0});
  EXPECT_TRUE(nsga2::dominates(a, b));
  EXPECT_FALSE(nsga2::dominates(b, a));
  EXPECT_FALSE(nsga2::dominates(a, c));
  EXPECT_FALSE(nsga2::dominates(c, a));
  EXPECT_FALSE(nsga2::dominates(a, a));  // equal never dominates
}

TEST(Dominates, ConstraintDomination) {
  const auto feas = make_ind({9.0, 9.0}, 0.0);
  const auto infeas_small = make_ind({1.0, 1.0}, 0.5);
  const auto infeas_big = make_ind({0.0, 0.0}, 2.0);
  EXPECT_TRUE(nsga2::dominates(feas, infeas_small));
  EXPECT_FALSE(nsga2::dominates(infeas_small, feas));
  EXPECT_TRUE(nsga2::dominates(infeas_small, infeas_big));
}

TEST(FastNonDominatedSort, KnownFronts) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({2, 3}), make_ind({4, 1}),  // front 0
      make_ind({2, 6}), make_ind({3, 4}),                    // front 1
      make_ind({5, 5}),                                      // front 2
  };
  const int fronts = nsga2::fast_non_dominated_sort(pop);
  EXPECT_EQ(fronts, 3);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[1].rank, 0);
  EXPECT_EQ(pop[2].rank, 0);
  EXPECT_EQ(pop[3].rank, 1);
  EXPECT_EQ(pop[4].rank, 1);
  EXPECT_EQ(pop[5].rank, 2);
}

TEST(FastNonDominatedSort, MatchesQuadraticOracle) {
  std::mt19937_64 rng(0x5eed);
  long checked = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    // Mostly small populations, every 50th up to 400 individuals.
    const std::size_t n = trial % 50 == 0 ? 1 + rng() % 400 : 1 + rng() % 48;
    auto pop = random_population(n, trial % 6, rng);
    auto oracle = pop;
    const int fronts = nsga2::fast_non_dominated_sort(pop);
    const int oracle_fronts = quadratic_non_dominated_sort(oracle);
    ASSERT_EQ(fronts, oracle_fronts) << "trial " << trial << " n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(pop[i].rank, oracle[i].rank)
          << "trial " << trial << " individual " << i;
    }
    checked += static_cast<long>(n);
  }
  EXPECT_GT(checked, 10'000 * 20);
}

TEST(FastNonDominatedSort, RejectsOtherObjectiveCounts) {
  std::vector<nsga2::Individual> pop = {make_ind({1, 2}), make_ind({1, 2, 3})};
  EXPECT_THROW(nsga2::fast_non_dominated_sort(pop), std::invalid_argument);
}

TEST(CrowdingDistance, RejectsUnrankedIndividuals) {
  std::vector<nsga2::Individual> pop = {make_ind({1, 2}), make_ind({2, 1})};
  EXPECT_THROW(nsga2::assign_crowding_distances(pop), std::invalid_argument);
}

TEST(SelectSurvivors, OrderMatchesIndividualSortOracle) {
  // The survivor order is resume state: it must be exactly the order that
  // std::sort over the individuals by (rank, crowding) leaves, including
  // among ties (duplicate points, infinite boundary crowding).
  std::mt19937_64 rng(0xc0de);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t half = 2 + rng() % 200;
    auto merged = random_population(2 * half, trial % 6, rng);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      merged[i].genes = {static_cast<int>(i)};
    }

    auto oracle = merged;
    quadratic_non_dominated_sort(oracle);
    scan_crowding_distances(oracle);
    std::sort(oracle.begin(), oracle.end(),
              [](const nsga2::Individual& a, const nsga2::Individual& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.crowding > b.crowding;
              });

    std::vector<nsga2::Individual> survivors(half), rest(half);
    nsga2::select_survivors(merged, survivors, rest);
    for (std::size_t k = 0; k < 2 * half; ++k) {
      const auto& got = k < half ? survivors[k] : rest[k - half];
      ASSERT_EQ(got.genes, oracle[k].genes)
          << "trial " << trial << " slot " << k;
      ASSERT_EQ(got.rank, oracle[k].rank);
      // Bitwise: the same additions in the same order.
      ASSERT_TRUE(got.crowding == oracle[k].crowding ||
                  (std::isnan(got.crowding) && std::isnan(oracle[k].crowding)));
    }
  }
}

TEST(CrowdingDistance, BoundaryPointsInfinite) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({2, 3}), make_ind({4, 1})};
  nsga2::fast_non_dominated_sort(pop);
  nsga2::assign_crowding_distances(pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[2].crowding));
  EXPECT_TRUE(std::isfinite(pop[1].crowding));
  EXPECT_GT(pop[1].crowding, 0.0);
}

TEST(ExtractParetoFront, DropsInfeasibleAndDuplicates) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({1, 5}),  // duplicate objectives
      make_ind({0, 0}, 1.0),               // infeasible (would dominate)
      make_ind({2, 3})};
  const auto front = nsga2::extract_pareto_front(pop);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0].objectives, (std::vector<double>{1, 5}));
  EXPECT_EQ(front[1].objectives, (std::vector<double>{2, 3}));
}

TEST(Optimize, ConvergesToLinearFront) {
  LinearTradeoff problem(8);
  nsga2::Config cfg;
  cfg.population = 40;
  cfg.generations = 40;
  cfg.seed = 1;
  const auto res = nsga2::optimize(problem, cfg);
  EXPECT_EQ(res.evaluations, 40 + 40 * 40);
  ASSERT_FALSE(res.pareto_front.empty());
  // Every point on the true front satisfies f1 + f2 == 80.
  for (const auto& ind : res.pareto_front) {
    EXPECT_DOUBLE_EQ(ind.objectives[0] + ind.objectives[1], 80.0);
  }
  // The front should spread over a substantial objective range.
  double lo = 1e9, hi = -1e9;
  for (const auto& ind : res.pareto_front) {
    lo = std::min(lo, ind.objectives[0]);
    hi = std::max(hi, ind.objectives[0]);
  }
  EXPECT_GT(hi - lo, 20.0);
}

TEST(Optimize, DeterministicInSeed) {
  LinearTradeoff problem(5);
  nsga2::Config cfg;
  cfg.population = 20;
  cfg.generations = 10;
  cfg.seed = 123;
  const auto r1 = nsga2::optimize(problem, cfg);
  const auto r2 = nsga2::optimize(problem, cfg);
  ASSERT_EQ(r1.pareto_front.size(), r2.pareto_front.size());
  for (std::size_t i = 0; i < r1.pareto_front.size(); ++i) {
    EXPECT_EQ(r1.pareto_front[i].genes, r2.pareto_front[i].genes);
  }
}

TEST(Optimize, ParallelEvaluationMatchesSerial) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 24;
  cfg.generations = 8;
  cfg.seed = 9;
  cfg.n_threads = 1;
  const auto serial = nsga2::optimize(problem, cfg);
  cfg.n_threads = 4;
  const auto parallel = nsga2::optimize(problem, cfg);
  ASSERT_EQ(serial.pareto_front.size(), parallel.pareto_front.size());
  for (std::size_t i = 0; i < serial.pareto_front.size(); ++i) {
    EXPECT_EQ(serial.pareto_front[i].genes, parallel.pareto_front[i].genes);
  }
}

TEST(Optimize, RespectsConstraints) {
  ConstrainedTradeoff problem;
  nsga2::Config cfg;
  cfg.population = 40;
  cfg.generations = 30;
  cfg.seed = 4;
  const auto res = nsga2::optimize(problem, cfg);
  ASSERT_FALSE(res.pareto_front.empty());
  for (const auto& ind : res.pareto_front) {
    EXPECT_GE(ind.objectives[0], 20.0);  // constraint satisfied
  }
}

TEST(Optimize, UsesAndClampsSeeds) {
  SeededProblem problem;
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 0;
  cfg.seed = 2;
  const auto res = nsga2::optimize(problem, cfg);
  // Gen 0 population contains the seeded all-fives individual.
  bool found = false;
  for (const auto& ind : res.population) {
    if (ind.genes == std::vector<int>{5, 5, 5, 5}) found = true;
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      EXPECT_GE(ind.genes[g], 0);
      EXPECT_LE(ind.genes[g], 5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Optimize, RejectsBadConfig) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 3;  // odd and too small
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

TEST(Optimize, GenerationCallbackFires) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 5;
  int calls = 0;
  cfg.on_generation = [&](int gen, const std::vector<nsga2::Individual>& pop) {
    EXPECT_EQ(gen, calls);
    EXPECT_EQ(pop.size(), 8u);
    ++calls;
  };
  (void)nsga2::optimize(problem, cfg);
  EXPECT_EQ(calls, 5);
}

TEST(Optimize, CheckpointKnobsAreBitNeutral) {
  LinearTradeoff problem(6);
  nsga2::Config plain;
  plain.population = 20;
  plain.generations = 12;
  plain.seed = 77;
  const auto ref = nsga2::optimize(problem, plain);

  nsga2::Config ticking = plain;
  ticking.checkpoint_every = 3;
  int checkpoints = 0;
  ticking.on_checkpoint = [&](const nsga2::GenerationState& st) {
    ++checkpoints;
    EXPECT_EQ(st.next_generation % 3, 0);
    EXPECT_LT(st.next_generation, 12);  // never after the final generation
    EXPECT_EQ(st.population.size(), 20u);
    EXPECT_FALSE(st.rng.empty());
  };
  const auto r = nsga2::optimize(problem, ticking);
  EXPECT_EQ(checkpoints, 3);  // gens 3, 6, 9
  ASSERT_EQ(r.population.size(), ref.population.size());
  for (std::size_t i = 0; i < ref.population.size(); ++i) {
    EXPECT_EQ(r.population[i].genes, ref.population[i].genes);
  }
}

TEST(Optimize, ResumeFromCheckpointBitIdentical) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 20;
  cfg.generations = 12;
  cfg.seed = 31;
  const auto ref = nsga2::optimize(problem, cfg);

  // Capture every generation boundary, then restart from each one: the
  // continuation must land on the uninterrupted run bit-for-bit (this is
  // what makes a SIGKILL inside the GA stage recoverable from
  // ga_state.txt).
  std::vector<std::shared_ptr<nsga2::GenerationState>> states;
  nsga2::Config capture = cfg;
  capture.checkpoint_every = 1;
  capture.on_checkpoint = [&](const nsga2::GenerationState& st) {
    states.push_back(std::make_shared<nsga2::GenerationState>(st));
  };
  (void)nsga2::optimize(problem, capture);
  ASSERT_EQ(states.size(), 11u);  // gens 1..11

  for (const auto& state : states) {
    nsga2::Config resumed = cfg;
    resumed.resume = state;
    const auto r = nsga2::optimize(problem, resumed);
    ASSERT_EQ(r.population.size(), ref.population.size())
        << "resume at gen " << state->next_generation;
    for (std::size_t i = 0; i < ref.population.size(); ++i) {
      EXPECT_EQ(r.population[i].genes, ref.population[i].genes)
          << "resume at gen " << state->next_generation;
      EXPECT_EQ(r.population[i].objectives, ref.population[i].objectives);
    }
    EXPECT_EQ(r.evaluations, ref.evaluations)
        << "resume at gen " << state->next_generation;
  }
}

TEST(Optimize, ResumeRejectsMismatchedState) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 4;
  auto state = std::make_shared<nsga2::GenerationState>();
  state->next_generation = 1;
  state->population.resize(6);  // wrong population size
  cfg.resume = state;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
  auto state2 = std::make_shared<nsga2::GenerationState>();
  state2->next_generation = 1;
  state2->population.resize(8);
  state2->rng = "not a valid mt19937_64 stream";
  cfg.resume = state2;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
  auto state3 = std::make_shared<nsga2::GenerationState>(*state2);
  std::ostringstream rng_text;
  rng_text << std::mt19937_64(1);
  state3->rng = rng_text.str();
  for (auto& ind : state3->population) ind.genes.assign(3, 0);  // needs 4
  cfg.resume = state3;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

class CrossoverKinds
    : public ::testing::TestWithParam<nsga2::CrossoverKind> {};

TEST_P(CrossoverKinds, AllKindsConverge) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 24;
  cfg.generations = 25;
  cfg.crossover = GetParam();
  cfg.seed = 11;
  const auto res = nsga2::optimize(problem, cfg);
  ASSERT_FALSE(res.pareto_front.empty());
  for (const auto& ind : res.pareto_front) {
    EXPECT_DOUBLE_EQ(ind.objectives[0] + ind.objectives[1], 60.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, CrossoverKinds,
                         ::testing::Values(nsga2::CrossoverKind::kUniform,
                                           nsga2::CrossoverKind::kOnePoint,
                                           nsga2::CrossoverKind::kTwoPoint));

TEST(PopulationEvaluator, DedupeCopiesAndCountsAreThreadInvariant) {
  // Only the first copy of each genome in a batch reaches the problem, and
  // a genome equal to a known (already evaluated) individual takes its
  // evaluation; the problem then sees the same calls at any thread count.
  // A memoizing problem (core::HwAwareProblem) also sees thread-invariant
  // cache hits, but only while its LRU does not evict: the LRU refresh order
  // still follows thread interleaving.
  // EvalEngine.CachedAndUncachedFrontsIdenticalUnderParallelism checks the
  // hits with a cache that never evicts.
  CountingProblem problem(5);
  std::mt19937_64 rng(42);
  const auto random_genome = [&] {
    std::vector<int> genes(5);
    for (int& g : genes) g = static_cast<int>(rng() % 3);
    return genes;
  };
  std::vector<nsga2::Individual> known(6);
  for (std::size_t k = 0; k < known.size(); ++k) {
    known[k].genes = random_genome();
    // A sentinel, not the problem's value: clones must copy it.
    known[k].objectives = {-1.0 - static_cast<double>(k), 0.5};
    known[k].constraint_violation = 0.25;
  }
  std::vector<nsga2::Individual> batch(40);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    switch (i % 4) {
      case 0: batch[i].genes = known[rng() % known.size()].genes; break;
      case 1: batch[i].genes = batch[rng() % (i)].genes; break;
      default: batch[i].genes = random_genome();
    }
  }

  std::vector<std::vector<int>> reference_calls;
  for (int threads : {1, 2, 4}) {
    auto pop = batch;
    nsga2::PopulationEvaluator evaluator(problem, threads);
    EXPECT_EQ(evaluator.evaluate(pop, known), static_cast<long>(pop.size()));
    auto calls = problem.take_calls();
    std::sort(calls.begin(), calls.end());

    std::set<std::vector<int>> expected;
    for (const auto& ind : batch) expected.insert(ind.genes);
    for (const auto& ind : known) expected.erase(ind.genes);
    EXPECT_EQ(calls, std::vector<std::vector<int>>(expected.begin(),
                                                   expected.end()))
        << threads << " threads";
    if (threads == 1) reference_calls = calls;
    EXPECT_EQ(calls, reference_calls) << threads << " threads";

    for (const auto& ind : pop) {
      const auto clone = std::find_if(
          known.begin(), known.end(),
          [&](const nsga2::Individual& k) { return k.genes == ind.genes; });
      if (clone != known.end()) {
        EXPECT_EQ(ind.objectives, clone->objectives);
        EXPECT_EQ(ind.constraint_violation, clone->constraint_violation);
      } else {
        const auto ev = CountingProblem::objectives_of(ind.genes);
        EXPECT_EQ(ind.objectives, ev.objectives);
        EXPECT_EQ(ind.constraint_violation, ev.constraint_violation);
      }
    }
  }

  // Whole runs: every batch holds distinct genomes, none equal to a current
  // parent, and the call count is the same at 1, 2 and 4 threads.
  std::vector<long> total_calls;
  std::vector<nsga2::Result> results;
  for (int threads : {1, 2, 4}) {
    nsga2::Config cfg;
    cfg.population = 24;
    cfg.generations = 12;
    cfg.seed = 5;
    cfg.n_threads = threads;
    long calls = 0;
    std::set<std::vector<int>> parents;
    cfg.on_generation = [&](int gen,
                            const std::vector<nsga2::Individual>& pop) {
      auto batch_calls = problem.take_calls();
      calls += static_cast<long>(batch_calls.size());
      const std::set<std::vector<int>> distinct(batch_calls.begin(),
                                                batch_calls.end());
      EXPECT_EQ(distinct.size(), batch_calls.size()) << "generation " << gen;
      for (const auto& genes : batch_calls) {
        EXPECT_EQ(parents.count(genes), 0u) << "generation " << gen;
      }
      parents.clear();
      for (const auto& ind : pop) parents.insert(ind.genes);
    };
    results.push_back(nsga2::optimize(problem, cfg));
    total_calls.push_back(calls);
    EXPECT_EQ(results.back().evaluations, 24 + 24 * 12);
    EXPECT_LT(calls, results.back().evaluations);
  }
  EXPECT_EQ(total_calls[0], total_calls[1]);
  EXPECT_EQ(total_calls[0], total_calls[2]);
  for (const auto& r : results) {
    ASSERT_EQ(r.population.size(), results[0].population.size());
    for (std::size_t i = 0; i < r.population.size(); ++i) {
      EXPECT_EQ(r.population[i].genes, results[0].population[i].genes);
      EXPECT_EQ(r.population[i].objectives,
                results[0].population[i].objectives);
    }
  }
}

TEST(Optimize, RejectsOtherObjectiveCounts) {
  class ThreeObjectives final : public nsga2::Problem {
   public:
    [[nodiscard]] int n_genes() const override { return 2; }
    [[nodiscard]] nsga2::GeneBounds bounds(int) const override {
      return {0, 1};
    }
    [[nodiscard]] int n_objectives() const override { return 3; }
    [[nodiscard]] Evaluation evaluate(std::span<const int>) const override {
      return {{0.0, 0.0, 0.0}, 0.0};
    }
  } problem;
  nsga2::Config cfg;
  cfg.population = 4;
  cfg.generations = 1;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}
