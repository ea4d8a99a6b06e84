// Benchmark-side nsga2::Problem decorator: forwards every call to a
// core::HwAwareProblem and times each evaluate() on the worker that runs
// it. Generation boundaries come from nsga2::Config::on_generation, which
// the GA calls on its own thread between evaluation phases, so the
// per-worker buffers are read there without locks. The decorator adds two
// steady_clock reads and one genome hash per call and changes no result:
// the GA front it yields is compared against the untraced one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "pmlp/core/problem.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one traced GA run measured.
struct GaProbeStats {
  long calls = 0;              ///< evaluate() calls
  double busy_s = 0.0;         ///< summed evaluate() time over workers
  double eval_phase_s = 0.0;   ///< summed per-generation eval-phase walls
  double ga_wall_s = 0.0;      ///< optimize() wall
  long dup_in_generation = 0;  ///< calls repeating a genome of the same
                               ///< generation
  long distinct = 0;           ///< distinct genomes over the run
  int lanes = 0;               ///< workers that evaluated
  std::vector<double> call_us;       ///< every call's duration
  std::vector<double> generation_s;  ///< every generation's wall
};

class ProbeProblem final : public pmlp::nsga2::Problem {
 public:
  /// `inner` must outlive the probe. Every `span_every`-th generation is
  /// sampled: its evaluate calls become spans on lanes `lane_base + worker`
  /// and up to 8 distinct survivors join the replay capture (at most
  /// `capture` genomes). Generation spans go under `parent`.
  ProbeProblem(const pmlp::core::HwAwareProblem& inner, Tracer& tracer,
               std::uint64_t parent, int lane_base, int capture,
               int span_every);

  [[nodiscard]] int n_genes() const override { return inner_.n_genes(); }
  [[nodiscard]] pmlp::nsga2::GeneBounds bounds(int gene) const override {
    return inner_.bounds(gene);
  }
  [[nodiscard]] int n_objectives() const override {
    return inner_.n_objectives();
  }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    return inner_.evaluate(genes);
  }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes,
                                    Workspace* ws) const override;
  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override;
  [[nodiscard]] std::vector<std::vector<int>> seed_individuals(
      int max) const override {
    return inner_.seed_individuals(max);
  }
  [[nodiscard]] std::optional<int> mutate_gene(
      int gene, int current, std::mt19937_64& rng) const override {
    return inner_.mutate_gene(gene, current, rng);
  }

  /// Mark the start of optimize().
  void start();
  /// Close the generation that just ended (call from on_generation with
  /// its survivors, which also feed the replay capture).
  void end_generation(int generation,
                      const std::vector<pmlp::nsga2::Individual>& pop);
  /// Close the run (after optimize() returns).
  void finish();

  [[nodiscard]] const GaProbeStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::vector<int>>& captured() const {
    return captured_;
  }

 private:
  struct Call {
    double start_s = 0.0;
    double end_s = 0.0;
    std::array<std::uint64_t, 2> hash{};
  };
  struct ProbeWorkspace;
  struct HashOf {
    std::size_t operator()(const std::array<std::uint64_t, 2>& h) const {
      return static_cast<std::size_t>(h[0] ^ (h[1] * 0x9E3779B97F4A7C15ull));
    }
  };

  const pmlp::core::HwAwareProblem& inner_;
  Tracer& tracer_;
  std::uint64_t parent_;
  int lane_base_;
  std::size_t capture_;
  int span_every_;

  mutable std::mutex lanes_mutex_;  ///< guards lanes_ (workspace creation)
  mutable std::vector<ProbeWorkspace*> lanes_;

  double generation_start_s_ = 0.0;
  double run_start_s_ = 0.0;
  std::unordered_set<std::array<std::uint64_t, 2>, HashOf> seen_;
  std::vector<std::vector<int>> captured_;
  GaProbeStats stats_;
};

/// Single-threaded replay of one evaluation's layers over captured genomes.
struct ReplayStats {
  double decode_us = 0.0;        ///< median ChromosomeCodec::decode
  double compile_us = 0.0;       ///< median CompiledNet construction
  double predict_us = 0.0;       ///< median whole-dataset predict_batch
  double cache_lookup_us = 0.0;  ///< median EvalCache::lookup hit
  double samples_per_s = 0.0;    ///< predict_batch samples per second
};
[[nodiscard]] ReplayStats replay_evaluations(
    const pmlp::core::ChromosomeCodec& codec,
    const pmlp::datasets::QuantizedDataset& train,
    const std::vector<std::vector<int>>& genomes);

}  // namespace perfbench
