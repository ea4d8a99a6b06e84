// pmlp — command-line front end for the printed-MLP GA-AxC framework.
//
// Run `pmlp` without arguments for the reference: every subcommand with its
// positionals and accepted flags, then every flag with its help line. Both
// lists are the two tables below (kFlags, kSubcommands); parsing,
// validation, usage text and dispatch all derive from them. Exit codes:
// 0 ok, 1 runtime failure, 2 usage error (reported before any work).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "pmlp/core/campaign.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/core/worker.hpp"
#include "pmlp/datasets/metrics.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/mlp/topology.hpp"
#include "pmlp/netlist/opt.hpp"

namespace {

using namespace pmlp;

/// Every flag's value as given on the command line; an unset field means
/// the subcommand's default.
struct Options {
  std::optional<int> threads;
  std::optional<int> cache;
  std::optional<std::string> checkpoint;
  std::optional<std::string> json;
  std::optional<std::string> save_front;
  std::optional<std::string> datasets;
  std::optional<int> seeds;
  bool resume = false;
  std::optional<int> ga_checkpoint;
  bool worker = false;
  std::optional<std::string> worker_id;
  std::optional<double> lease_timeout;
  std::optional<double> heartbeat;
  std::optional<int> max_failures;
  std::optional<int> port;
  std::optional<int> batch;
  std::optional<int> rtl_vectors;
  std::optional<int> rtl_random;
  bool require_sim = false;
  std::vector<std::string> positionals;  ///< subcommand words included
};

/// Positionals after the subcommand's own words.
using Args = std::vector<std::string>;

/// Usage-level argument errors throw this; main() maps it to exit code 2
/// (runtime failures exit 1) instead of letting anything escape uncaught.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// How a flag's value is parsed; the field type matches the kind.
enum class Kind { kSwitch, kNonNeg, kPositive, kPort, kSeconds, kText };

struct Flag {
  const char* name;
  Kind kind;
  std::variant<bool Options::*, std::optional<int> Options::*,
               std::optional<double> Options::*,
               std::optional<std::string> Options::*>
      field;
  const char* metavar;
  const char* help;
  bool every_subcommand = false;
};

const Flag kFlags[] = {
    {"--threads", Kind::kNonNeg, &Options::threads, "N",
     "worker threads (0 = all hardware threads, the default; every N gives "
     "bit-identical results)", true},
    {"--cache", Kind::kNonNeg, &Options::cache, "N",
     "genome memo-cache entries (0 = off; default 4096; bit-identical)", true},
    {"--checkpoint", Kind::kText, &Options::checkpoint, "DIR",
     "persist stage artifacts under DIR; a rerun reuses completed stages"},
    {"--json", Kind::kText, &Options::json, "FILE",
     "machine-readable report (\"-\" = stdout)"},
    {"--save-front", Kind::kText, &Options::save_front, "DIR",
     "save every Pareto model plus index.tsv into DIR"},
    {"--datasets", Kind::kText, &Options::datasets, "A,B,C",
     "Table I subset (default: all five)"},
    {"--seeds", Kind::kPositive, &Options::seeds, "K",
     "GA seeds 1..K per dataset (default 1)"},
    {"--resume", Kind::kSwitch, &Options::resume, "",
     "continue the existing --checkpoint tree"},
    {"--ga-checkpoint", Kind::kNonNeg, &Options::ga_checkpoint, "K",
     "save the GA state every K generations (0 = off, the default)"},
    {"--worker", Kind::kSwitch, &Options::worker, "",
     "drain an existing campaign tree instead of running the grid"},
    {"--worker-id", Kind::kText, &Options::worker_id, "ID",
     "worker identity (default <host>-<pid>-<random>)"},
    {"--lease-timeout", Kind::kSeconds, &Options::lease_timeout, "S",
     "seconds of no claim or beat change before a lease may be stolen "
     "(default 10)"},
    {"--heartbeat", Kind::kSeconds, &Options::heartbeat, "S",
     "lease refresh period (default 1)"},
    {"--max-failures", Kind::kPositive, &Options::max_failures, "N",
     "failed claims in a row before a flow is marked failed (default 3)"},
    {"--port", Kind::kPort, &Options::port, "N",
     "TCP port on 127.0.0.1 (default 0 = OS-assigned, printed on stdout)"},
    {"--batch", Kind::kPositive, &Options::batch, "N",
     "max requests per batch (default 64)"},
    {"--rtl-vectors", Kind::kNonNeg, &Options::rtl_vectors, "N",
     "recorded dataset vectors per point (default 64)"},
    {"--rtl-random", Kind::kNonNeg, &Options::rtl_random, "N",
     "LFSR random vectors per point (default 64)"},
    {"--require-sim", Kind::kSwitch, &Options::require_sim, "",
     "a missing Verilog simulator fails (exit 1) instead of skipping"},
};

/// Parse an int of an int-valued kind; throws UsageError naming `what`
/// (overflow included, so huge values can't silently wrap).
int parse_int(const std::string& what, const std::string& value, Kind kind) {
  const long lo = kind == Kind::kPositive ? 1 : 0;
  const long hi = kind == Kind::kPort ? 65535 : std::numeric_limits<int>::max();
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi) {
    const char* expects = kind == Kind::kPositive ? "a positive int"
                          : kind == Kind::kPort   ? "a TCP port in 0..65535"
                                                  : "a non-negative int";
    throw UsageError(what + " expects " + expects + ", got '" + value + "'");
  }
  return static_cast<int>(v);
}

void set_flag(Options& o, const Flag& f, const std::string& value) {
  std::visit(
      [&](auto member) {
        auto& slot = o.*member;
        using T = std::decay_t<decltype(slot)>;
        if constexpr (std::is_same_v<T, bool>) {
          slot = true;
        } else if constexpr (std::is_same_v<T, std::optional<int>>) {
          slot = parse_int(f.name, value, f.kind);
        } else if constexpr (std::is_same_v<T, std::optional<double>>) {
          errno = 0;
          char* end = nullptr;
          slot = std::strtod(value.c_str(), &end);
          if (end == value.c_str() || *end != '\0' || !(*slot > 0.0) ||
              errno == ERANGE) {
            throw UsageError(std::string(f.name) +
                             " expects positive seconds, got '" + value + "'");
          }
        } else {
          if (value.empty()) {
            throw UsageError(std::string(f.name) + " expects a value");
          }
          slot = value;
        }
      },
      f.field);
}

bool is_set(const Options& o, const Flag& f) {
  return std::visit([&](auto member) { return bool(o.*member); }, f.field);
}

const Flag* find_flag(const std::string& name) {
  for (const auto& f : kFlags) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// Flags may appear anywhere on the line; a valued flag takes the next
/// argument whatever it looks like. "-" (stdout, "derive the dataset") and
/// negative numbers are positionals, not options.
Options parse_argv(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-' ||
        std::isdigit(static_cast<unsigned char>(arg[1]))) {
      o.positionals.push_back(arg);
      continue;
    }
    const Flag* f = find_flag(arg);
    if (f == nullptr) throw UsageError("unknown option '" + arg + "'");
    if (f->kind == Kind::kSwitch) {
      set_flag(o, *f, "");
    } else if (i + 1 < argc) {
      set_flag(o, *f, argv[++i]);
    } else {
      throw UsageError(arg + " requires a value");
    }
  }
  return o;
}

std::vector<std::string> words(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> out;
  for (std::string w; is >> w;) out.push_back(w);
  return out;
}

/// Validate a dataset argument up front: an unknown name is a usage error
/// (exit 2, message lists the valid choices). Runtime invalid_argument
/// throws from corrupt artifacts etc. stay runtime failures (exit 1).
void require_dataset(const std::string& name) {
  try {
    (void)core::find_paper_spec(name);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// An existing --checkpoint/--save-front path must be a directory we can
/// extend or replace; a file in its place would otherwise surface as a raw
/// filesystem error only after minutes of training.
void require_dir_or_absent(const char* flag,
                           const std::optional<std::string>& dir) {
  std::error_code ec;
  if (dir && std::filesystem::exists(*dir, ec) &&
      !std::filesystem::is_directory(*dir, ec)) {
    throw UsageError(std::string(flag) + " path '" + *dir +
                     "' exists and is not a directory");
  }
}

/// The --json target, opened up front so an unwritable path fails before
/// the expensive run, not after it; "-" is stdout. A file is written to
/// FILE.tmp and renamed onto FILE once complete, so a failed (or killed)
/// run never clobbers a previous report and leaves no temp file behind.
class JsonSink {
 public:
  explicit JsonSink(const std::optional<std::string>& path)
      : path_(path.value_or("")) {
    if (!to_file()) return;
    file_.open(path_ + ".tmp");
    if (!file_) throw UsageError("cannot write --json file '" + path_ + "'");
  }
  ~JsonSink() {
    if (!to_file()) return;
    file_.close();
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  bool to_stdout() const { return path_ == "-"; }

  /// Emit the report through `write(std::ostream&)`; a no-op without
  /// --json. Throws on a short write.
  template <class Write>
  void write(Write&& write) {
    if (to_stdout()) write(std::cout);
    if (!to_file()) return;
    write(file_);
    file_.flush();
    if (!file_) throw std::runtime_error("short write to " + path_ + ".tmp");
    file_.close();
    std::filesystem::rename(path_ + ".tmp", path_);
    std::cerr << "wrote " << path_ << "\n";
  }

 private:
  bool to_file() const { return !path_.empty() && !to_stdout(); }

  std::string path_;
  std::ofstream file_;
};

core::FlowConfig default_flow(const Options& o, int pop, int gens) {
  core::FlowConfig cfg;
  cfg.backprop.epochs = 150;
  cfg.trainer.ga.population = pop;
  cfg.trainer.ga.generations = gens;
  cfg.trainer.n_threads = o.threads.value_or(0);
  if (o.cache) cfg.trainer.problem.eval_cache_capacity = *o.cache;
  return cfg;
}

/// The optional [pop] [gens] positionals starting at `a[first]`.
std::pair<int, int> ga_budget(const Args& a, std::size_t first) {
  return {a.size() > first ? parse_int("population", a[first],
                                       Kind::kPositive)
                           : 80,
          a.size() > first + 1
              ? parse_int("generations", a[first + 1], Kind::kPositive)
              : 200};
}

int cmd_list(const Options&, const Args&) {
  std::cout << "dataset        topology   samples  classes  baseline-acc "
               "(paper)\n";
  for (const auto& row : mlp::paper_table1()) {
    const auto spec = core::find_paper_spec(row.dataset);
    std::cout << row.dataset;
    for (std::size_t i = row.dataset.size(); i < 15; ++i) std::cout << ' ';
    std::cout << row.topology.to_string() << "   " << spec.n_samples
              << "     " << spec.n_classes << "        " << row.accuracy
              << "\n";
  }
  return 0;
}

int cmd_metrics(const Options&, const Args& a) {
  const std::string& dataset = a[0];
  const auto d = core::load_paper_dataset(dataset);
  const auto m = datasets::compute_metrics(d);
  std::cout << dataset << ": " << d.size() << " samples, " << d.n_features
            << " features, " << d.n_classes << " classes\n";
  std::cout << "class priors:";
  for (double p : m.class_priors) std::cout << ' ' << p;
  std::cout << "\nnearest-centroid accuracy: " << m.nearest_centroid_accuracy
            << "\nper-feature Fisher scores:";
  for (double f : m.fisher_scores) std::cout << ' ' << f;
  std::cout << "\ntop-3 feature signal share: " << m.top3_signal_share
            << "\n";
  return 0;
}

int cmd_baseline(const Options& o, const Args& a) {
  const std::string& dataset = a[0];
  const auto& row = mlp::paper_row(dataset);
  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(o, 8, 1));
  const auto artifacts = engine.baseline_artifacts();
  std::cout << dataset << " exact bespoke baseline [2]:\n"
            << "  accuracy  " << artifacts.baseline_test_accuracy
            << " (paper " << row.accuracy << ")\n"
            << "  area      " << artifacts.baseline_cost.area_cm2()
            << " cm2 (paper " << row.area_cm2 << ")\n"
            << "  power     " << artifacts.baseline_cost.power_mw()
            << " mW (paper " << row.power_mw << ")\n";
  return 0;
}

int cmd_run(const Options& o, const Args& a, bool is_resume) {
  const std::string& dataset = a[0];
  const auto [pop, gens] = ga_budget(a, 1);
  const std::string model_out = a.size() > 3 ? a[3] : "";
  const auto& row = mlp::paper_row(dataset);
  require_dir_or_absent("--checkpoint", o.checkpoint);
  require_dir_or_absent("--save-front", o.save_front);
  JsonSink json(o.json);
  if (is_resume && !std::filesystem::exists(
                       std::filesystem::path(*o.checkpoint) / "meta.txt")) {
    throw UsageError("no checkpoint found in " + *o.checkpoint);
  }
  std::cerr << "training " << dataset << " " << row.topology.to_string()
            << " with NSGA-II " << pop << "x" << gens << "...\n";
  if (const auto uci = core::find_uci_file(dataset); !uci.empty()) {
    std::cerr << "using real UCI data from " << uci
              << " (PMLP_UCI_DIR)\n";
  }

  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(o, pop, gens));
  if (o.checkpoint) engine.set_checkpoint_dir(*o.checkpoint);
  engine.set_progress([](const core::StageReport& r) {
    std::cerr << "  stage " << core::flow_stage_name(r.stage) << ": "
              << r.wall_seconds << " s, " << r.items << " items"
              << (r.reused ? " (reused)" : "") << "\n";
  });
  const auto result = engine.run();

  const bool text = !json.to_stdout();
  if (text) {
    std::cout << "baseline: acc " << result.baseline.baseline_test_accuracy
              << ", " << result.baseline.baseline_cost.area_cm2() << " cm2, "
              << result.baseline.baseline_cost.power_mw() << " mW\n";
    // samples_per_second is runtime metadata, zero when the backprop stage
    // was reused from a checkpoint (this process never trained for it).
    if (result.backprop.samples_per_second > 0.0) {
      std::cout << "train engine: " << result.backprop.samples_per_second
                << " samples/s (" << result.backprop.simd_isa
                << " dispatch, block " << result.backprop.block << ", "
                << result.backprop.threads << " threads)\n";
    }
    std::cout << "GA engine: " << result.training.evaluations << " evals in "
              << result.training.wall_seconds << " s ("
              << result.training.evals_per_second
              << " evals/s, cache hit rate "
              << result.training.cache_hit_rate << ")\n";
    // simd_isa is runtime metadata, empty when the GA stage was reused from
    // a checkpoint (this process never ran the kernels for it).
    if (!result.training.simd_isa.empty()) {
      std::cout << "eval kernels: " << result.training.simd_isa
                << " dispatch, block " << result.training.eval_block
                << " samples\n";
    }
    if (result.refine.trials > 0) {
      std::cout << "refine engine: " << result.refine.trials << " trials on "
                << result.refine.points << " points (early-abort rate "
                << result.refine.early_abort_rate() << "), "
                << result.refine.bits_cleared << " bits cleared, "
                << result.refine.biases_simplified << " biases simplified\n";
    }
    std::cout << "true Pareto front (" << result.front.size()
              << " points):\n";
    std::cout << "  acc       area-cm2   power-mW   verified\n";
    for (const auto& p : result.front) {
      std::cout << "  " << p.test_accuracy << "   " << p.cost.area_cm2()
                << "   " << p.cost.power_mw() << "   "
                << (p.functional_match ? "yes" : "NO") << "\n";
    }
  }
  json.write([&](std::ostream& os) {
    core::write_flow_report_json(result, dataset, row.topology, os);
  });
  if (o.save_front) {
    core::save_front_dir(core::front_entries(result.front), *o.save_front);
    std::cerr << "saved " << result.front.size()
              << " front designs + index to " << *o.save_front << "\n";
  }

  if (!result.best) {
    if (text) {
      std::cout << "no design within 5% loss at this budget; raise gens\n";
    }
    return 1;
  }
  if (text) {
    std::cout << "pick (min area within 5% loss): acc "
              << result.best->test_accuracy << ", "
              << result.best->cost.area_cm2() << " cm2 ("
              << result.area_reduction << "x), "
              << result.best->cost.power_mw() << " mW ("
              << result.power_reduction << "x)\n";
  }
  if (!model_out.empty()) {
    core::save_model_file(result.best->model, model_out);
    if (text) std::cout << "saved " << model_out << "\n";
  }
  return 0;
}

/// Split a --datasets CSV into validated Table I names (unset = all five).
/// Unknown names throw listing the valid choices (exit 2 via UsageError).
std::vector<std::string> campaign_dataset_names(
    const std::optional<std::string>& csv) {
  std::vector<std::string> names;
  if (!csv) {
    for (const auto& row : mlp::paper_table1()) names.push_back(row.dataset);
    return names;
  }
  std::string token;
  std::istringstream is(*csv);
  while (std::getline(is, token, ',')) {
    if (token.empty()) {
      throw UsageError("--datasets has an empty entry in '" + *csv + "'");
    }
    require_dataset(token);
    if (std::find(names.begin(), names.end(), token) != names.end()) {
      throw UsageError("duplicate dataset '" + token + "' in --datasets");
    }
    names.push_back(token);
  }
  if (names.empty()) {
    throw UsageError("--datasets expects a comma-separated list, got '" +
                     *csv + "'");
  }
  return names;
}

/// While alive, SIGINT/SIGTERM call `target.request_stop()` — one atomic
/// store: a campaign finishes its in-flight stages, releases its leases
/// and leaves the tree resumable; a server winds its loops down.
template <class Target>
class StopOnSignal {
 public:
  explicit StopOnSignal(Target& target) {
    target_ = &target;
    const auto stop = [](int) { target_->request_stop(); };
    std::signal(SIGINT, stop);
    std::signal(SIGTERM, stop);
  }
  ~StopOnSignal() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  static inline Target* target_ = nullptr;
};

/// One flow spec per manifest row; each dataset is generated once and
/// shared by its seeds.
std::vector<core::CampaignFlowSpec> manifest_specs(
    const Options& o, const core::CampaignManifest& manifest) {
  std::map<std::string, datasets::Dataset> loaded;
  std::vector<core::CampaignFlowSpec> specs;
  for (const auto& row : manifest.flows) {
    auto it = loaded.find(row.dataset);
    if (it == loaded.end()) {
      it = loaded.emplace(row.dataset, core::load_paper_dataset(row.dataset))
               .first;
    }
    core::CampaignFlowSpec spec;
    spec.name = row.name;
    spec.dataset = row.dataset;
    spec.data = it->second;
    spec.topology = core::paper_topology(row.dataset);
    spec.config = default_flow(o, manifest.population, manifest.generations);
    spec.config.trainer.ga.seed = row.seed;
    spec.config.trainer.ga.checkpoint_every = manifest.ga_checkpoint;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Progress line of one completed (or reloaded) stage.
void print_stage(const std::string& who, const core::StageReport& r,
                 const std::string& tail = "") {
  std::cerr << "  [" << who << "] stage " << core::flow_stage_name(r.stage)
            << ": " << r.wall_seconds << " s, " << r.items << " items"
            << (r.reused ? " (reused)" : "") << tail << "\n";
}

int cmd_campaign(const Options& o, const Args& a) {
  const auto [pop, gens] = ga_budget(a, 0);
  const auto names = campaign_dataset_names(o.datasets);
  require_dir_or_absent("--checkpoint", o.checkpoint);
  JsonSink json(o.json);
  if (o.resume) {
    if (!o.checkpoint) {
      throw UsageError("--resume requires --checkpoint DIR");
    }
    if (!std::filesystem::is_directory(*o.checkpoint)) {
      throw UsageError("--resume: no campaign checkpoint found in '" +
                       *o.checkpoint + "'");
    }
  }

  const int seeds = o.seeds.value_or(1);
  core::CampaignManifest manifest;
  manifest.population = pop;
  manifest.generations = gens;
  manifest.ga_checkpoint = o.ga_checkpoint.value_or(0);
  for (const auto& name : names) {
    for (int seed = 1; seed <= seeds; ++seed) {
      manifest.flows.push_back({name + "_s" + std::to_string(seed), name,
                                static_cast<std::uint64_t>(seed)});
    }
  }
  core::CampaignConfig ccfg;
  ccfg.n_threads = o.threads.value_or(0);
  ccfg.checkpoint_root = o.checkpoint.value_or("");
  core::CampaignRunner runner(ccfg);
  for (auto& spec : manifest_specs(o, manifest)) {
    runner.add_flow(std::move(spec));
  }
  if (o.checkpoint) {
    // The manifest makes the tree self-describing: `--worker` processes
    // and `campaign status` reconstruct the grid from it alone.
    core::save_campaign_manifest(manifest, *o.checkpoint);
  }
  std::cerr << "campaign: " << manifest.flows.size() << " flows ("
            << names.size() << " datasets x " << seeds
            << " seeds), NSGA-II " << pop << "x" << gens << ", "
            << core::resolve_n_threads(ccfg.n_threads)
            << " scheduler threads\n";
  runner.set_progress([](const core::CampaignProgress& p) {
    print_stage(p.flow_name, p.stage,
                "  (" + std::to_string(p.flows_done) + "/" +
                    std::to_string(p.flows_total) + " flows done)");
  });
  const StopOnSignal on_signal(runner);
  const auto result = runner.run();

  if (!json.to_stdout()) {
    std::cout << "campaign: " << result.completed << "/"
              << result.flows.size() << " flows in " << result.wall_seconds
              << " s wall (" << result.stage_wall_seconds
              << " s of summed stage wall on " << result.n_threads
              << " workers, " << result.flows_per_second() << " flows/s)\n";
    std::cout << "  flow                 status    wall-s    front  "
                 "pick-acc   area-red\n";
    for (const auto& f : result.flows) {
      std::cout << "  ";
      std::cout.width(20);
      std::cout.setf(std::ios::left);
      std::cout << f.name;
      std::cout.unsetf(std::ios::left);
      std::cout << " " << campaign_flow_status_name(f.status) << "  "
                << f.wall_seconds;
      if (f.result) {
        std::cout << "  " << f.result->front.size() << "  ";
        if (f.result->best) {
          std::cout << f.result->best->test_accuracy << "  "
                    << f.result->area_reduction << "x";
        } else {
          std::cout << "-  -";
        }
      } else if (!f.error.empty()) {
        std::cout << "  " << f.error;
      }
      std::cout << "\n";
    }
  }
  json.write([&](std::ostream& os) {
    core::write_campaign_report_json(result, os);
  });
  for (const auto& f : result.flows) {
    if (f.status == core::CampaignFlowStatus::kFailed) {
      std::cerr << "flow " << f.name << " FAILED: " << f.error << "\n";
    }
  }
  return result.all_ok() ? 0 : 1;
}

/// `pmlp campaign --worker --checkpoint DIR`: join an existing campaign
/// tree as one crash-safe distributed drain process. The grid comes from
/// the tree's manifest, so two workers can never disagree about the flow
/// configs (the config fingerprint would catch it, but at the cost of a
/// poisoned flow).
int cmd_campaign_worker(const Options& o, const Args&) {
  auto manifest = core::load_campaign_manifest(*o.checkpoint);
  if (o.ga_checkpoint) manifest.ga_checkpoint = *o.ga_checkpoint;

  core::WorkerConfig wcfg;
  wcfg.checkpoint_root = *o.checkpoint;
  wcfg.worker_id = o.worker_id.value_or("");
  wcfg.lease_timeout_s = o.lease_timeout.value_or(wcfg.lease_timeout_s);
  wcfg.heartbeat_s = o.heartbeat.value_or(wcfg.heartbeat_s);
  wcfg.max_failures = o.max_failures.value_or(wcfg.max_failures);
  core::CampaignWorker worker(manifest_specs(o, manifest), wcfg);
  worker.set_progress(
      [&worker](const std::string& flow, const core::StageReport& r) {
        print_stage(worker.worker_id() + " @ " + flow, r);
      });
  std::cerr << "worker " << worker.worker_id() << ": joining campaign tree "
            << *o.checkpoint << " (" << manifest.flows.size()
            << " flows, lease timeout " << wcfg.lease_timeout_s
            << " s, heartbeat " << wcfg.heartbeat_s << " s)\n";
  const StopOnSignal on_signal(worker);
  const auto report = worker.run();

  std::cout << "worker " << report.worker_id << ": "
            << report.stages_computed << " stages computed, "
            << report.stages_reloaded << " reloaded, " << report.claims
            << " claims (" << report.claim_conflicts << " conflicts, "
            << report.leases_stolen << " stale leases reclaimed), "
            << report.flows_completed << " flows completed, "
            << report.flows_failed << " marked failed, "
            << report.stage_failures << " stage failures, "
            << report.wall_seconds << " s wall\n";

  // Exit reflects the TREE, not just this worker: 0 = fully drained with
  // no failed flows (no matter which worker did the work).
  const auto status = core::read_campaign_status(*o.checkpoint);
  if (status.failed > 0) return 1;
  return status.done == static_cast<int>(status.flows.size()) ? 0 : 1;
}

/// `pmlp campaign status --checkpoint DIR`: grid progress from the tree
/// alone — no worker processes are consulted, so it works mid-campaign,
/// post-crash, or on a finished tree.
int cmd_campaign_status(const Options& o, const Args&) {
  JsonSink json(o.json);
  const auto status = core::read_campaign_status(*o.checkpoint);
  if (!json.to_stdout()) core::write_campaign_status_table(status, std::cout);
  json.write([&](std::ostream& os) {
    core::write_campaign_status_json(status, os);
  });
  return 0;
}

/// Rebuild evaluation data exactly as the training flow splits it.
datasets::QuantizedDataset test_split(const std::string& dataset,
                                      const core::FlowConfig& cfg) {
  core::FlowEngine engine(core::load_paper_dataset(dataset),
                          core::paper_topology(dataset), cfg);
  return engine.split().test;
}

int cmd_evaluate(const Options& o, const Args& a) {
  const std::string& model_path = a[0];
  const std::string& dataset = a[1];
  const auto model = core::load_model_file(model_path);
  const auto test = test_split(dataset, default_flow(o, 8, 1));
  const double acc = core::accuracy(model, test);

  const auto circuit =
      netlist::build_bespoke_mlp(model.to_bespoke_desc("m"));
  const auto& lib = hwmodel::CellLibrary::egfet_1v();
  const auto cost = netlist::optimize(circuit.nl).cost(lib);
  const auto cost06 =
      netlist::optimize(circuit.nl).cost(lib.at_voltage(0.6));

  std::cout << model_path << " on " << dataset << ":\n"
            << "  accuracy " << acc << "\n"
            << "  area     " << cost.area_cm2() << " cm2\n"
            << "  power    " << cost.power_mw() << " mW @1.0V ("
            << hwmodel::zone_name(hwmodel::classify_feasibility(
                   cost.area_cm2(), cost.power_mw()))
            << "), " << cost06.power_mw() << " mW @0.6V ("
            << hwmodel::zone_name(hwmodel::classify_feasibility(
                   cost06.area_cm2(), cost06.power_mw()))
            << ")\n";
  return 0;
}

int cmd_serve(const Options& o, const Args& a) {
  const std::string& dir = a[0];
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    throw UsageError("serve: front directory '" + dir +
                     "' does not exist or is not a directory");
  }
  core::ServeConfig cfg;
  cfg.n_threads = o.threads.value_or(0);
  cfg.max_batch = o.batch.value_or(cfg.max_batch);
  cfg.port = o.port.value_or(cfg.port);
  core::FrontServer server(dir, cfg);  // bad artifacts -> runtime, exit 1
  server.listen();
  // The one machine-parseable stdout line: clients scrape the actual port.
  std::cout << "listening 127.0.0.1 " << server.port() << "\n" << std::flush;
  std::cerr << "serving " << server.models().size() << " models from " << dir
            << " (pool of " << server.pool_size() << " workers, batch "
            << cfg.max_batch << "); `stop` or SIGINT shuts down\n";
  {
    const StopOnSignal on_signal(server);
    server.serve_forever();
  }
  const auto stats = server.stats();
  std::cerr << "served " << stats.requests << " requests in " << stats.batches
            << " batches (max batch " << stats.max_batch << ", avg fill "
            << stats.batch_fill() << ") over " << stats.connections
            << " connections, " << stats.reloads << " reloads\n";
  return 0;
}

/// Offline reference for serve answers: classify one quantized feature
/// vector through the same CompiledNet path the server executes.
int cmd_classify(const Options&, const Args& a) {
  const auto model = core::load_model_file(a[0]);
  const core::CompiledNet net(model);
  const Args code_args(a.begin() + 1, a.end());
  if (static_cast<int>(code_args.size()) != net.n_inputs()) {
    throw UsageError("classify: model expects " +
                     std::to_string(net.n_inputs()) +
                     " feature codes, got " +
                     std::to_string(code_args.size()));
  }
  const unsigned max_code = (1u << model.bits().input_bits) - 1u;
  std::vector<std::uint8_t> codes;
  codes.reserve(code_args.size());
  for (const auto& arg : code_args) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(arg.c_str(), &end, 10);
    if (arg.empty() || end != arg.c_str() + arg.size() || v < 0 ||
        errno == ERANGE || static_cast<unsigned long>(v) > max_code) {
      throw UsageError("classify: feature code '" + arg +
                       "' is not in the input range 0.." +
                       std::to_string(max_code));
    }
    codes.push_back(static_cast<std::uint8_t>(v));
  }
  core::EvalWorkspace ws;
  std::cout << net.predict(codes, ws) << "\n";
  return 0;
}

/// Derive a Table I dataset name from a campaign-tree front entry path
/// ("<dataset>_s<seed>/front_NNN.model" -> "<dataset>"). Empty when the
/// entry is not tree-shaped or the prefix is not a known dataset.
std::string dataset_from_entry(const std::string& file) {
  const auto slash = file.find('/');
  if (slash == std::string::npos) return "";
  const std::string flow = file.substr(0, slash);
  const auto us = flow.rfind("_s");
  if (us == std::string::npos || us == 0) return "";
  const std::string digits = flow.substr(us + 2);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return "";
  }
  const std::string dataset = flow.substr(0, us);
  try {
    (void)core::find_paper_spec(dataset);
  } catch (const std::invalid_argument&) {
    return "";
  }
  return dataset;
}

/// export-rtl / verify-rtl: verified RTL export of a saved front (directory)
/// or a single .model file. `dataset` selects the recorded stimulus; "-"
/// derives it per point from a campaign tree's flow names (random-only
/// stimulus when nothing matches).
int cmd_rtl(const Options& o, const Args& a, bool with_sim) {
  const std::string& input = a[0];
  const std::string dataset = a.size() > 1 ? a[1] : "-";
  const std::string outdir =
      a.size() > 2 ? a[2]
                   : std::filesystem::path(input).filename().string() + "_rtl";
  if (dataset != "-") require_dataset(dataset);

  core::RtlExportOptions opts;
  opts.max_recorded_vectors = o.rtl_vectors.value_or(opts.max_recorded_vectors);
  opts.random_vectors = o.rtl_random.value_or(opts.random_vectors);

  // Recorded-stimulus test splits, resolved lazily per dataset actually
  // referenced (a mixed-dataset campaign tree needs several).
  std::map<std::string, datasets::QuantizedDataset> splits;
  auto recorded_for = [&](const std::string& ds,
                          const core::ApproxMlp& model) {
    std::vector<std::uint8_t> codes;
    if (ds.empty()) return codes;
    auto it = splits.find(ds);
    if (it == splits.end()) {
      it = splits.emplace(ds, test_split(ds, default_flow(o, 8, 1))).first;
    }
    const auto& test = it->second;
    const int n_inputs = test.n_features;
    if (model.topology().n_inputs() != n_inputs) {
      throw UsageError("dataset " + ds + " has " + std::to_string(n_inputs) +
                       " features but the model expects " +
                       std::to_string(model.topology().n_inputs()));
    }
    const std::size_t n_vec = std::min<std::size_t>(
        test.size(), static_cast<std::size_t>(opts.max_recorded_vectors));
    codes.assign(test.codes.begin(),
                 test.codes.begin() +
                     static_cast<std::ptrdiff_t>(
                         n_vec * static_cast<std::size_t>(n_inputs)));
    return codes;
  };

  std::vector<core::RtlPointSpec> specs;
  std::error_code ec;
  if (std::filesystem::is_directory(input, ec)) {
    for (const auto& e : core::load_front_any(input)) {
      core::RtlPointSpec spec;
      std::string name = e.file;
      if (name.size() > 6 && name.rfind(".model") == name.size() - 6) {
        name.resize(name.size() - 6);
      }
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      spec.name = name;
      spec.model = e.model;
      spec.recorded = recorded_for(
          dataset != "-" ? dataset : dataset_from_entry(e.file), spec.model);
      specs.push_back(std::move(spec));
    }
  } else {
    core::RtlPointSpec spec;
    spec.model = core::load_model_file(input);
    const std::string stem = std::filesystem::path(input).stem().string();
    spec.name = stem.empty() ? "model" : stem;
    spec.recorded =
        recorded_for(dataset == "-" ? "" : dataset, spec.model);
    specs.push_back(std::move(spec));
  }

  const auto report = with_sim ? core::verify_rtl(specs, outdir, opts)
                               : core::export_rtl(specs, outdir, opts);

  for (const auto& p : report.points) {
    std::cout << p.name << ": " << p.gates << " cells (-" << p.gates_removed
              << "), " << p.n_recorded << "+" << p.n_random
              << " vectors, oracle==gate-sim==emitted";
    if (with_sim) {
      std::cout << ", sim " << core::rtl_sim_outcome_name(p.sim);
      if (p.sim == core::RtlSimOutcome::kFail) {
        std::cout << " (" << p.sim_errors << " errors)";
      }
    }
    std::cout << "\n";
  }
  std::cerr << "wrote " << report.manifest_file << " ("
            << report.points.size() << " points)\n";

  if (with_sim) {
    if (report.simulator.empty()) {
      std::cerr << (o.require_sim
                        ? "error: no Verilog simulator found "
                          "(iverilog/verilator) and --require-sim is set\n"
                        : "no Verilog simulator found (iverilog/verilator); "
                          "simulation skipped\n");
    }
    if (!report.all_passed(o.require_sim)) {
      for (const auto& p : report.points) {
        if (p.sim == core::RtlSimOutcome::kFail ||
            p.sim == core::RtlSimOutcome::kError) {
          std::cerr << "--- " << p.name << " simulator log ---\n"
                    << p.sim_log << "\n";
        }
      }
      return 1;
    }
  }
  return 0;
}

struct Subcommand {
  /// Words matched against the leading positionals; a "--flag" word
  /// selects the row by that switch. Rows are tried in order, so a more
  /// specific row comes before the row it refines.
  const char* name;
  /// "<required> [optional] ..."; a trailing "..." takes any number more.
  /// A "<dataset>" must name a Table I dataset.
  const char* positionals;
  /// Accepted flags besides the every-subcommand ones: "[--x]" optional,
  /// bare "--x" required.
  const char* flags;
  int (*handler)(const Options&, const Args&);
  const char* help;
};

const Subcommand kSubcommands[] = {
    {"list", "", "", cmd_list, "datasets and Table I topologies"},
    {"metrics", "<dataset>", "", cmd_metrics,
     "class priors, nearest-centroid accuracy, Fisher scores"},
    {"baseline", "<dataset>", "", cmd_baseline,
     "exact bespoke baseline cost and accuracy"},
    {"run", "<dataset> [pop] [gens] [model-out]",
     "[--checkpoint] [--json] [--save-front]",
     [](const Options& o, const Args& a) { return cmd_run(o, a, false); },
     "staged flow, NSGA-II pop x gens (default 80 x 200); prints the Pareto "
     "front and saves the pick (min area within 5% loss; none = exit 1)"},
    {"resume", "<dataset> [pop] [gens] [model-out]",
     "--checkpoint [--json] [--save-front]",
     [](const Options& o, const Args& a) { return cmd_run(o, a, true); },
     "run, continuing from the stages already under --checkpoint"},
    {"campaign status", "", "--checkpoint [--json]", cmd_campaign_status,
     "grid progress from the tree alone: stages, owner, heartbeat, failures"},
    {"campaign --worker", "",
     "--checkpoint [--worker-id] [--lease-timeout] [--heartbeat] "
     "[--max-failures] [--ga-checkpoint]",
     cmd_campaign_worker,
     "drain a campaign tree as one crash-safe worker among any number; the "
     "grid comes from the tree's manifest"},
    {"campaign", "[pop] [gens]",
     "[--checkpoint] [--json] [--datasets] [--seeds] [--resume] "
     "[--ga-checkpoint]",
     cmd_campaign,
     "dataset x seed grid of flows on one --threads pool; resumable and "
     "bit-identical to independent runs; SIGINT/SIGTERM stop gracefully"},
    {"serve", "<front-dir>", "[--port] [--batch]", cmd_serve,
     "classify server over a saved front or campaign tree: line protocol on "
     "localhost TCP, batched; `reload` re-reads the front, `stop` ends"},
    {"classify", "<model> <code> ...", "", cmd_classify,
     "classify one quantized feature vector (the offline serve reference)"},
    {"evaluate", "<model> <dataset>", "", cmd_evaluate,
     "re-score a saved model: accuracy, area, power, feasibility zone"},
    {"export-rtl", "<front|model> [dataset|-] [outdir]",
     "[--rtl-vectors] [--rtl-random]",
     [](const Options& o, const Args& a) { return cmd_rtl(o, a, false); },
     "per point a verified DUT, a self-checking testbench and a manifest.tsv "
     "row; \"-\" reads datasets off tree paths; outdir is <input>_rtl"},
    {"verify-rtl", "<front|model> [dataset|-] [outdir]",
     "[--rtl-vectors] [--rtl-random] [--require-sim]",
     [](const Options& o, const Args& a) { return cmd_rtl(o, a, true); },
     "export-rtl, then run every testbench under iverilog or verilator"},
};

/// Whether `cmd` takes `f`; `*required` says whether it must be given (a
/// bare word in the row's flags or name).
bool accepts(const Subcommand& cmd, const Flag& f, bool* required = nullptr) {
  if (f.every_subcommand) return true;
  for (const auto& w : words(std::string(cmd.name) + " " + cmd.flags)) {
    if (w == f.name || w == "[" + std::string(f.name) + "]") {
      if (required != nullptr) *required = w == f.name;
      return true;
    }
  }
  return false;
}

/// The first row whose name words all match; `args` gets the positionals
/// after those words.
const Subcommand& select_subcommand(const Options& o, Args& args) {
  for (const auto& cmd : kSubcommands) {
    std::size_t used = 0;
    bool match = true;
    for (const auto& w : words(cmd.name)) {
      if (const Flag* f = find_flag(w)) {
        match = match && is_set(o, *f);
      } else {
        match = match && used < o.positionals.size() &&
                o.positionals[used++] == w;
      }
    }
    if (match) {
      args.assign(o.positionals.begin() + static_cast<std::ptrdiff_t>(used),
                  o.positionals.end());
      return cmd;
    }
  }
  throw UsageError("unknown subcommand '" + o.positionals[0] + "'");
}

/// `lead` then `ws`, wrapped at 79 columns with continuation lines
/// indented by `indent`.
std::string wrap(std::string lead, const std::vector<std::string>& ws,
                 std::size_t indent) {
  std::string out, line = std::move(lead);
  for (const auto& w : ws) {
    if (line.size() + 1 + w.size() > 79) {
      out += line + "\n";
      line = std::string(indent, ' ') + w;
    } else {
      line += " " + w;
    }
  }
  return out + line;
}

std::string flag_spec(const Flag& f) {
  return *f.metavar ? std::string(f.name) + " " + f.metavar : f.name;
}

std::string usage_of(const Subcommand& cmd) {
  auto line = words(std::string(cmd.name) + " " + cmd.positionals);
  for (const auto& w : words(cmd.flags)) {
    const bool optional = w[0] == '[';
    const Flag& f = *find_flag(optional ? w.substr(1, w.size() - 2) : w);
    line.push_back(optional ? "[" + flag_spec(f) + "]" : flag_spec(f));
  }
  return wrap("  pmlp", line, 8) + "\n" + wrap("     ", words(cmd.help), 6);
}

int usage() {
  std::cerr << "usage: pmlp <subcommand> [arguments] [options]\n\n";
  for (const auto& cmd : kSubcommands) std::cerr << usage_of(cmd) << "\n";
  std::cerr << "\noptions (anywhere on the line; --threads and --cache for "
               "every subcommand):\n";
  for (const auto& f : kFlags) {
    std::string lead = "  " + flag_spec(f);
    lead.resize(20, ' ');
    std::cerr << wrap(lead, words(f.help), 21) << "\n";
  }
  std::cerr << "\n"
            << wrap("environment:",
                    words("PMLP_UCI_DIR=DIR loads the real UCI files "
                          "(breast-cancer-wisconsin.data, cardio.csv, "
                          "pendigits.tra, winequality-{red,white}.csv) "
                          "instead of the synthetic paper suite, validated "
                          "against Table I"),
                    2)
            << "\n";
  return 2;
}

/// Flags, positional count and dataset names against the row, before any
/// work: an ignored flag would cost a full training run to discover. Flag
/// and count errors carry the row's usage.
void check_arguments(const Subcommand& cmd, const Options& o,
                     const Args& args) {
  const std::string name = cmd.name;
  const auto fail = [&](const std::string& what) {
    throw UsageError(what + "\nusage:\n" + usage_of(cmd));
  };
  for (const auto& f : kFlags) {
    bool required = false;
    if (!accepts(cmd, f, &required)) {
      if (!is_set(o, f)) continue;
      std::string by;
      for (const auto& other : kSubcommands) {
        if (!accepts(other, f)) continue;
        by += std::string(by.empty() ? "" : ", ") + other.name;
      }
      fail(std::string(f.name) + " is not supported by the '" + name +
           "' subcommand (only by: " + by + ")");
    }
    if (required && !is_set(o, f)) {
      fail(name + " requires " + f.name + " " + f.metavar);
    }
  }
  const auto pos = words(cmd.positionals);
  const auto min = static_cast<std::size_t>(
      std::count_if(pos.begin(), pos.end(),
                    [](const std::string& w) { return w[0] == '<'; }));
  const std::size_t max = pos.empty() || pos.back() != "..." ? pos.size()
                                                             : args.size();
  if (args.size() < min) {
    fail(name + " expects " + cmd.positionals + ", got " +
         std::to_string(args.size()) + " argument(s)");
  }
  if (args.size() > max) {
    fail(name + " takes at most " + std::to_string(max) +
         " positional argument(s); unexpected '" + args[max] + "'");
  }
  for (std::size_t i = 0; i < args.size() && i < pos.size(); ++i) {
    if (pos[i] == "<dataset>") require_dataset(args[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse_argv(argc, argv);
    if (opts.positionals.empty()) return usage();
    Args args;
    const Subcommand& cmd = select_subcommand(opts, args);
    check_arguments(cmd, opts, args);
    return cmd.handler(opts, args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Runtime failures (corrupt artifacts, I/O, ...) exit 1; only
    // UsageError above maps to the usage exit code 2.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
