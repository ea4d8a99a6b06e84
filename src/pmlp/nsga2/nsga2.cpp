#include "pmlp/nsga2/nsga2.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "pmlp/core/thread_pool.hpp"

namespace pmlp::nsga2 {

bool dominates(const Individual& a, const Individual& b) {
  const bool a_feasible = a.constraint_violation <= 0.0;
  const bool b_feasible = b.constraint_violation <= 0.0;
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return a.constraint_violation < b.constraint_violation;

  bool strictly_better = false;
  for (std::size_t m = 0; m < a.objectives.size(); ++m) {
    if (a.objectives[m] > b.objectives[m]) return false;
    if (a.objectives[m] < b.objectives[m]) strictly_better = true;
  }
  return strictly_better;
}

// Jensen's sweep (IEEE TEC 2003). In (f0, f1) order the fronts' latest
// members have f1 non-decreasing with the front index, so the first front
// whose latest member does not dominate a point is found by binary search.
// That front is the length of the longest domination chain ending in the
// point, which is its rank under Deb's peeling.
int fast_non_dominated_sort(std::vector<Individual>& pop) {
  thread_local std::vector<std::uint32_t> order, tails;
  order.clear();
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (pop[i].objectives.size() != 2) {
      throw std::invalid_argument("nsga2: ranking needs two objectives");
    }
    if (pop[i].constraint_violation <= 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double* x = pop[a].objectives.data();
    const double* y = pop[b].objectives.data();
    return x[0] < y[0] || (x[0] == y[0] && x[1] < y[1]);
  });
  tails.clear();
  for (const std::uint32_t i : order) {
    const auto front = std::partition_point(
        tails.begin(), tails.end(),
        [&](std::uint32_t tail) { return dominates(pop[tail], pop[i]); });
    pop[i].rank = static_cast<int>(front - tails.begin());
    if (front == tails.end()) {
      tails.push_back(i);
    } else {
      *front = i;
    }
  }

  int fronts = static_cast<int>(tails.size());
  order.clear();
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (pop[i].constraint_violation > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return pop[a].constraint_violation < pop[b].constraint_violation;
  });
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k == 0 || pop[order[k]].constraint_violation !=
                      pop[order[k - 1]].constraint_violation) {
      ++fronts;
    }
    pop[order[k]].rank = fronts - 1;
  }
  return fronts;
}

/// Crowding distance per rank. Members of a rank are bucketed in ascending
/// index order and sorted per objective in turn, so ties resolve exactly as
/// in one scan per rank.
void assign_crowding_distances(std::vector<Individual>& pop) {
  if (pop.empty()) return;
  thread_local std::vector<std::uint32_t> bucket, offsets;
  const std::size_t n_obj = pop.front().objectives.size();
  int max_rank = 0;
  for (auto& ind : pop) {
    if (ind.rank < 0) {
      throw std::invalid_argument("nsga2: crowding needs ranked individuals");
    }
    ind.crowding = 0.0;
    max_rank = std::max(max_rank, ind.rank);
  }
  // Counting sort by rank: offsets[r] .. offsets[r + 1] is rank r's bucket.
  offsets.assign(static_cast<std::size_t>(max_rank) + 2, 0);
  for (const auto& ind : pop) ++offsets[static_cast<std::size_t>(ind.rank) + 1];
  for (std::size_t r = 1; r < offsets.size(); ++r) offsets[r] += offsets[r - 1];
  bucket.resize(pop.size());
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    bucket[offsets[static_cast<std::size_t>(pop[i].rank)]++] = i;
  }
  // The fill advanced each offset to its bucket's end.
  std::uint32_t begin = 0;
  for (int r = 0; r <= max_rank; ++r) {
    const auto first = bucket.begin() + begin;
    const auto last = bucket.begin() + offsets[static_cast<std::size_t>(r)];
    begin = offsets[static_cast<std::size_t>(r)];
    if (first == last) continue;
    const std::size_t size = static_cast<std::size_t>(last - first);
    for (std::size_t m = 0; m < n_obj; ++m) {
      std::sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
        return pop[a].objectives[m] < pop[b].objectives[m];
      });
      const double lo = pop[first[0]].objectives[m];
      const double hi = pop[first[size - 1]].objectives[m];
      pop[first[0]].crowding = std::numeric_limits<double>::infinity();
      pop[first[size - 1]].crowding = std::numeric_limits<double>::infinity();
      if (hi <= lo) continue;
      for (std::size_t k = 1; k + 1 < size; ++k) {
        pop[first[k]].crowding += (pop[first[k + 1]].objectives[m] -
                                   pop[first[k - 1]].objectives[m]) /
                                  (hi - lo);
      }
    }
  }
}

void select_survivors(std::vector<Individual>& merged,
                      std::vector<Individual>& survivors,
                      std::vector<Individual>& rest) {
  if (survivors.size() + rest.size() != merged.size()) {
    throw std::invalid_argument("nsga2: survivors + rest != merged");
  }
  fast_non_dominated_sort(merged);
  assign_crowding_distances(merged);
  // Sorting an index permutation with the comparator that used to sort the
  // individuals makes the same comparisons, so the (unstable) order is the
  // same without moving gene vectors around.
  thread_local std::vector<std::uint32_t> perm;
  perm.resize(merged.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Individual& x = merged[a];
    const Individual& y = merged[b];
    if (x.rank != y.rank) return x.rank < y.rank;
    return x.crowding > y.crowding;
  });
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    survivors[k] = std::move(merged[perm[k]]);
  }
  for (std::size_t k = 0; k < rest.size(); ++k) {
    rest[k] = std::move(merged[perm[survivors.size() + k]]);
  }
}

std::vector<Individual> extract_pareto_front(std::vector<Individual> pop) {
  fast_non_dominated_sort(pop);
  const bool any_feasible =
      std::any_of(pop.begin(), pop.end(), [](const Individual& i) {
        return i.constraint_violation <= 0.0;
      });
  std::vector<Individual> front;
  for (auto& ind : pop) {
    // With constraint domination, rank 0 is feasible whenever anything is;
    // if nothing is feasible yet, return the least-violating front instead
    // of an empty result.
    if (ind.rank == 0 &&
        (ind.constraint_violation <= 0.0 || !any_feasible)) {
      front.push_back(std::move(ind));
    }
  }
  std::sort(front.begin(), front.end(),
            [](const Individual& a, const Individual& b) {
              return a.objectives < b.objectives;
            });
  front.erase(std::unique(front.begin(), front.end(),
                          [](const Individual& a, const Individual& b) {
                            return a.objectives == b.objectives;
                          }),
              front.end());
  return front;
}

PopulationEvaluator::PopulationEvaluator(const Problem& problem, int n_threads)
    : problem_(problem), n_threads_(core::resolve_n_threads(n_threads)) {
  if (n_threads_ > 1) {
    pool_ = std::make_unique<core::ThreadPool>(n_threads_);
  }
  workspaces_.reserve(static_cast<std::size_t>(n_threads_));
  for (int k = 0; k < n_threads_; ++k) {
    workspaces_.push_back(problem.make_workspace());
  }
}

PopulationEvaluator::~PopulationEvaluator() = default;

// Two genes per 64-bit word over four independent lanes, so the multiply
// chains overlap.
std::uint64_t genome_hash(std::span<const int> genes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t lanes[4] = {genes.size(), 1, 2, 3};
  std::size_t g = 0;
  for (; g + 8 <= genes.size(); g += 8) {
    std::uint64_t words[4];
    std::memcpy(words, genes.data() + g, sizeof(words));
    for (std::size_t k = 0; k < 4; ++k) lanes[k] = (lanes[k] ^ words[k]) * kMul;
  }
  for (; g < genes.size(); ++g) {
    lanes[0] = (lanes[0] ^ static_cast<std::uint32_t>(genes[g])) * kMul;
  }
  std::uint64_t out = 0;
  for (const std::uint64_t lane : lanes) {
    out = (out ^ (lane >> 29) ^ lane) * kMul;
  }
  return out;
}

long PopulationEvaluator::evaluate(std::span<Individual> pop,
                                   std::span<const Individual> known) {
  // Dedupe on the calling thread. Key k < known.size() is known[k], key
  // known.size() + i is pop[i]; sorting (hash, key) puts equal genomes in
  // one run, lowest key first, so each slot's source is its first copy.
  const std::size_t n_known = known.size();
  const auto genes_of = [&](std::size_t key) -> const std::vector<int>& {
    return key < n_known ? known[key].genes : pop[key - n_known].genes;
  };
  keys_.clear();
  for (std::size_t k = 0; k < n_known + pop.size(); ++k) {
    keys_.push_back({genome_hash(genes_of(k)), static_cast<std::uint32_t>(k)});
  }
  std::sort(keys_.begin(), keys_.end());
  source_.assign(pop.size(), kUnique);
  for (std::size_t run = 0; run < keys_.size();) {
    std::size_t end = run + 1;
    while (end < keys_.size() && keys_[end].first == keys_[run].first) ++end;
    for (std::size_t e = run + 1; e < end; ++e) {
      const std::uint32_t key = keys_[e].second;
      if (key < n_known) continue;
      for (std::size_t f = run; f < e; ++f) {
        if (genes_of(keys_[f].second) == genes_of(key)) {
          source_[key - n_known] = keys_[f].second;
          break;
        }
      }
    }
    run = end;
  }
  todo_.clear();
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (source_[i] == kUnique) todo_.push_back(i);
  }

  auto work = [this, pop](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    Problem::Workspace* ws = workspaces_[chunk].get();
    for (std::size_t t = begin; t < end; ++t) {
      Individual& ind = pop[todo_[t]];
      auto ev = problem_.evaluate(ind.genes, ws);
      ind.objectives = std::move(ev.objectives);
      ind.constraint_violation = ev.constraint_violation;
    }
  };
  if (pool_) {
    // A chromosome already evaluates as whole sample blocks through the
    // batched engine, so a chunk must hold several chromosomes for dispatch
    // to amortize: never split below 2 per worker — at bench-scale
    // populations a lone-chromosome chunk costs more in wakeup/join than
    // its evaluation (often a single cache hit) saves.
    pool_->parallel_for(todo_.size(), work, /*min_per_chunk=*/2);
  } else {
    work(0, 0, todo_.size());
  }

  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (source_[i] == kUnique) continue;
    const std::uint32_t key = source_[i];
    const Individual& from = key < n_known ? known[key] : pop[key - n_known];
    pop[i].objectives = from.objectives;
    pop[i].constraint_violation = from.constraint_violation;
  }
  return static_cast<long>(pop.size());
}

namespace {

/// Binary tournament by (rank, crowding) — the canonical crowded comparison.
const Individual& tournament(const std::vector<Individual>& pop,
                             std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, pop.size() - 1);
  const Individual& a = pop[pick(rng)];
  const Individual& b = pop[pick(rng)];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

void crossover_genes(std::vector<int>& c1, std::vector<int>& c2,
                     CrossoverKind kind, std::mt19937_64& rng) {
  const std::size_t n = c1.size();
  if (n < 2) return;
  std::uniform_int_distribution<std::size_t> pos(1, n - 1);
  switch (kind) {
    case CrossoverKind::kUniform: {
      std::bernoulli_distribution coin(0.5);
      for (std::size_t g = 0; g < n; ++g) {
        if (coin(rng)) std::swap(c1[g], c2[g]);
      }
      break;
    }
    case CrossoverKind::kOnePoint: {
      const std::size_t cut = pos(rng);
      for (std::size_t g = cut; g < n; ++g) std::swap(c1[g], c2[g]);
      break;
    }
    case CrossoverKind::kTwoPoint: {
      std::size_t p1 = pos(rng);
      std::size_t p2 = pos(rng);
      if (p1 > p2) std::swap(p1, p2);
      for (std::size_t g = p1; g < p2; ++g) std::swap(c1[g], c2[g]);
      break;
    }
  }
}

void mutate_genes(std::vector<int>& genes, const Problem& problem,
                  const Config& cfg, std::mt19937_64& rng) {
  const double rate = cfg.per_gene_rate > 0.0
                          ? cfg.per_gene_rate
                          : 1.0 / static_cast<double>(genes.size());
  std::bernoulli_distribution hit(rate);
  std::bernoulli_distribution creep(cfg.creep_fraction);
  for (std::size_t g = 0; g < genes.size(); ++g) {
    if (!hit(rng)) continue;
    const GeneBounds b = problem.bounds(static_cast<int>(g));
    // Domain-aware mutation takes precedence when the problem provides one.
    if (auto custom = problem.mutate_gene(static_cast<int>(g), genes[g], rng)) {
      genes[g] = std::clamp(*custom, b.lo, b.hi);
      continue;
    }
    if (b.hi <= b.lo) {
      genes[g] = b.lo;
      continue;
    }
    if (creep(rng)) {
      std::uniform_int_distribution<int> step(1, cfg.creep_step);
      const int delta = (rng() & 1u) ? step(rng) : -step(rng);
      genes[g] = std::clamp(genes[g] + delta, b.lo, b.hi);
    } else {
      std::uniform_int_distribution<int> reset(b.lo, b.hi);
      genes[g] = reset(rng);
    }
  }
}

std::vector<int> random_genes(const Problem& problem, std::mt19937_64& rng) {
  std::vector<int> genes(static_cast<std::size_t>(problem.n_genes()));
  for (std::size_t g = 0; g < genes.size(); ++g) {
    const GeneBounds b = problem.bounds(static_cast<int>(g));
    std::uniform_int_distribution<int> pick(b.lo, b.hi);
    genes[g] = pick(rng);
  }
  return genes;
}

}  // namespace

Result optimize(const Problem& problem, const Config& cfg) {
  if (cfg.population < 4 || cfg.population % 2 != 0) {
    throw std::invalid_argument("nsga2: population must be even and >= 4");
  }
  if (problem.n_genes() <= 0) {
    throw std::invalid_argument("nsga2: problem has no genes");
  }
  if (problem.n_objectives() != 2) {
    throw std::invalid_argument("nsga2: problem must have two objectives");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(cfg.seed);
  Result result;
  PopulationEvaluator evaluator(problem, cfg.n_threads);

  std::vector<Individual> pop;
  int start_generation = 0;
  if (cfg.resume && !cfg.resume->population.empty()) {
    // --- Resume from a generation checkpoint: the state IS the evolution
    // (survivor order, ranks/crowding from the merged sort, RNG stream),
    // so restoring it verbatim reproduces the uninterrupted run exactly.
    if (static_cast<int>(cfg.resume->population.size()) != cfg.population) {
      throw std::invalid_argument(
          "nsga2: resume state population size mismatch");
    }
    if (cfg.resume->next_generation < 0 ||
        cfg.resume->next_generation > cfg.generations) {
      throw std::invalid_argument("nsga2: resume state generation out of "
                                  "range");
    }
    pop = cfg.resume->population;
    std::istringstream rng_in(cfg.resume->rng);
    rng_in >> rng;
    if (!rng_in) {
      throw std::invalid_argument("nsga2: resume state RNG does not parse");
    }
    for (const auto& ind : pop) {
      if (static_cast<int>(ind.genes.size()) != problem.n_genes()) {
        throw std::invalid_argument("nsga2: resume state genome size "
                                    "mismatch");
      }
    }
    result.evaluations = cfg.resume->evaluations;
    start_generation = cfg.resume->next_generation;
  } else {
    // --- Initial population: optional seeds + random fill.
    pop.reserve(static_cast<std::size_t>(cfg.population));
    for (auto& seed_genes : problem.seed_individuals(cfg.population)) {
      if (static_cast<int>(pop.size()) >= cfg.population) break;
      Individual ind;
      ind.genes = std::move(seed_genes);
      ind.genes.resize(static_cast<std::size_t>(problem.n_genes()), 0);
      for (std::size_t g = 0; g < ind.genes.size(); ++g) {
        const GeneBounds b = problem.bounds(static_cast<int>(g));
        ind.genes[g] = std::clamp(ind.genes[g], b.lo, b.hi);
      }
      pop.push_back(std::move(ind));
    }
    while (static_cast<int>(pop.size()) < cfg.population) {
      Individual ind;
      ind.genes = random_genes(problem, rng);
      pop.push_back(std::move(ind));
    }
    result.evaluations += evaluator.evaluate(pop);
    fast_non_dominated_sort(pop);
    assign_crowding_distances(pop);
  }

  std::bernoulli_distribution do_crossover(cfg.crossover_prob);
  std::bernoulli_distribution do_mutation(cfg.mutation_prob);

  // Offspring slots and the merged set persist across generations; selection
  // hands the losers back as offspring slots, so gene buffers are reused.
  std::vector<Individual> offspring(pop.size());
  std::vector<Individual> merged(2 * pop.size());
  for (int gen = start_generation; gen < cfg.generations; ++gen) {
    // --- Variation: tournament parents -> crossover -> mutation.
    for (std::size_t k = 0; k < offspring.size(); k += 2) {
      std::vector<int>& c1 = offspring[k].genes;
      std::vector<int>& c2 = offspring[k + 1].genes;
      c1 = tournament(pop, rng).genes;
      c2 = tournament(pop, rng).genes;
      if (do_crossover(rng)) crossover_genes(c1, c2, cfg.crossover, rng);
      if (do_mutation(rng)) mutate_genes(c1, problem, cfg, rng);
      if (do_mutation(rng)) mutate_genes(c2, problem, cfg, rng);
    }
    result.evaluations += evaluator.evaluate(offspring, pop);

    // --- Elitist survivor selection over parents + offspring.
    std::move(pop.begin(), pop.end(), merged.begin());
    std::move(offspring.begin(), offspring.end(),
              merged.begin() + static_cast<std::ptrdiff_t>(pop.size()));
    select_survivors(merged, pop, offspring);
    if (cfg.on_generation) cfg.on_generation(gen, pop);
    if (cfg.checkpoint_every > 0 && cfg.on_checkpoint &&
        gen + 1 < cfg.generations &&
        (gen + 1) % cfg.checkpoint_every == 0) {
      GenerationState state;
      state.next_generation = gen + 1;
      state.evaluations = result.evaluations;
      std::ostringstream rng_out;
      rng_out << rng;
      state.rng = rng_out.str();
      state.population = pop;
      cfg.on_checkpoint(state);
    }
  }

  result.pareto_front = extract_pareto_front(pop);
  result.population = std::move(pop);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace pmlp::nsga2
