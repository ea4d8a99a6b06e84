// Plain-text serialization of every artifact the Fig. 2 flow and its
// campaigns hand between stages and processes, so a FlowEngine run can
// checkpoint after any stage and resume bit-identically. All formats are
// versioned, line-oriented text files — stable, diffable, and independent of
// float formatting (doubles are stored as C hexfloats, which round-trip
// exactly). Each format is described ONCE in serialize.cpp as a field list
// (header, tags, bounded integers, hexfloats, rest-of-line strings, counted
// lists, embedded model blocks); its writer and its reader are both derived
// from that description, so a save can never drift from its load.
//
//   magic                   file                  written by
//   pmlp-approx-mlp v1      *.model, embedded     save_model (+ training/
//                                                 evaluated sets)
//   pmlp-dataset v1         train_raw.ds          split stage
//                           test_raw.ds
//   pmlp-quant-dataset v1   train.qds, test.qds   split stage
//   pmlp-float-mlp v1       float_net.txt         backprop stage
//   pmlp-quant-mlp v1       embedded              baseline set
//   pmlp-baseline v1        baseline.txt          baseline stage
//   pmlp-training v1        ga_front.txt          GA stage
//                           refined_front.txt     refine stage
//   pmlp-evaluated v1       evaluated.txt         hardware stage
//   pmlp-ga-state v1        ga_state.txt          GA generation checkpoint
//   pmlp-flow-meta v1       meta.txt              FlowEngine (resume guard)
//   pmlp-campaign v1        campaign.txt          campaign coordinator
//   pmlp-claim v1           claim.lock            worker lease (O_EXCL)
//   pmlp-beat v1            beat.txt              worker heartbeat
//   pmlp-failures v1        failures.txt          worker failure counter
//   pmlp-done v1            done.txt              CampaignRunner/Worker
//   pmlp-failed v1          failed.txt            worker terminal failure
//
// Every line starts with a tag. The approx-mlp v1 layout is unchanged from
// the original release and, alone among the formats, runs to end of input
// (or to `endmodel` when embedded after a `model` line in a training or
// evaluated set); its reader still takes the self-addressed body lines in
// any order and any subset:
//
//   pmlp-approx-mlp v1
//   topology 10 3 2
//   bits 8 4 8 12
//   layer 0
//   conn <out> <in> <mask> <sign> <exponent>
//   ...
//   bias <out> <value>
//   ...
//
// Every other format is terminated by an `end` line and its reader accepts
// exactly the line order its writer emits.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/flow.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

/// Write the model (parameters + bit config). Throws on stream failure.
void save_model(const ApproxMlp& net, std::ostream& os);
[[nodiscard]] std::string to_text(const ApproxMlp& net);

/// Parse a model written by save_model. Throws std::invalid_argument on
/// malformed input (wrong magic/version, shape mismatch, out-of-range
/// parameters).
[[nodiscard]] ApproxMlp load_model(std::istream& is);
[[nodiscard]] ApproxMlp from_text(const std::string& text);

/// File convenience wrappers (throw std::runtime_error on I/O failure).
void save_model_file(const ApproxMlp& net, const std::string& path);
[[nodiscard]] ApproxMlp load_model_file(const std::string& path);

// ---------------------------------------------------------------- artifacts
// FlowEngine checkpoint artifacts. All loaders throw std::invalid_argument
// on malformed input (bad magic/version, lines out of order, shape
// mismatches, out-of-range values, missing `end` terminator), prefixed with
// the format's magic; all writers throw std::runtime_error on stream
// failure. Loaded artifacts are bit-identical to what was saved.

void save_dataset(const datasets::Dataset& d, std::ostream& os);
[[nodiscard]] datasets::Dataset load_dataset(std::istream& is);

void save_quant_dataset(const datasets::QuantizedDataset& d, std::ostream& os);
[[nodiscard]] datasets::QuantizedDataset load_quant_dataset(std::istream& is);

void save_float_mlp(const mlp::FloatMlp& net, std::ostream& os);
[[nodiscard]] mlp::FloatMlp load_float_mlp(std::istream& is);

void save_quant_mlp(const mlp::QuantMlp& net, std::ostream& os);
[[nodiscard]] mlp::QuantMlp load_quant_mlp(std::istream& is);

/// Baseline stage output: the quantized bespoke net [2] plus its 1 V
/// netlist pricing and split-half accuracies.
void save_baseline_pricing(const BaselinePricing& pricing, std::ostream& os);
[[nodiscard]] BaselinePricing load_baseline_pricing(std::istream& is);

/// GA / refinement stage output: perf counters + the estimated Pareto set
/// (each point embeds its approx-mlp v1 block).
void save_training_result(const TrainingResult& r, std::ostream& os);
[[nodiscard]] TrainingResult load_training_result(std::istream& is);

/// Hardware-analysis stage output: per-candidate netlist cost, test
/// accuracy and equivalence verdict.
void save_evaluated_points(std::span<const HwEvaluatedPoint> points,
                           std::ostream& os);
[[nodiscard]] std::vector<HwEvaluatedPoint> load_evaluated_points(
    std::istream& is);

/// NSGA-II generation checkpoint (pmlp-ga-state v1): the exact evolution
/// state at a generation boundary — survivor population in selection order
/// with ranks/crowding, the serialized RNG stream and the evaluation
/// counter — so a killed GA stage resumes bit-identically from its last
/// generation block instead of from scratch.
void save_ga_state(const nsga2::GenerationState& state, std::ostream& os);
[[nodiscard]] nsga2::GenerationState load_ga_state(std::istream& is);

// ------------------------------------------------------ campaign-tree records
// Small records that FlowEngine and the campaign workers keep beside the
// stage artifacts (worker.hpp describes the protocol they implement).

struct CampaignManifest;                    // campaign.txt (worker.hpp)
namespace lease { struct ClaimInfo; }       // claim.lock (worker.hpp)

/// meta.txt: the dataset and flow config a checkpoint directory belongs to.
struct FlowMeta {
  std::string dataset;
  std::uint64_t digest = 0;  ///< dataset_digest()
  std::uint64_t config = 0;  ///< FlowEngine::config_fingerprint()
};

/// beat.txt: the lease holder's heartbeat counter.
struct BeatRecord {
  std::string worker;
  long count = 0;
};

/// failures.txt: consecutive failed claims of a flow and the last error.
struct FailureRecord {
  int count = 0;
  std::string error;
};

/// done.txt: a finished flow ("-" when an in-process campaign wrote it).
struct DoneMarker {
  std::string worker;
};

/// failed.txt: a flow marked terminally failed.
struct FailedMarker {
  std::string worker;
  std::string error;
};

/// Codec entry points for the records above, CampaignManifest and
/// lease::ClaimInfo (explicitly instantiated for exactly those types).
/// Same contract as the artifact functions: the writer throws
/// std::runtime_error on stream failure, the reader std::invalid_argument
/// on malformed input. Multi-line error strings are written on one line.
template <class T>
void save_record(const T& record, std::ostream& os);
template <class T>
[[nodiscard]] T load_record(std::istream& is);

// ------------------------------------------------------- checksum footers
// Versioned artifacts carry a trailing self-describing checksum line
//
//   # crc32 <8-hex-digits> lines <newline-count>
//
// over every byte that precedes it. The line sits AFTER the format's `end`
// terminator, so every loader (which stops consuming at `end`) is oblivious
// to it — old readers accept new files, and new readers accept old files
// without a footer (back-compat). read_artifact_file() verifies the footer
// when present, turning silent truncation/corruption into a deterministic
// std::invalid_argument instead of an incidental parse failure.

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `n` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// The footer line (newline-terminated) guarding `content`.
[[nodiscard]] std::string checksum_footer(const std::string& content);

/// Verify a trailing checksum footer if `content` has one. Any final line
/// starting with '#' must be a complete, matching crc32 footer — a footer
/// damaged by truncation throws std::invalid_argument (prefixed with
/// `what`), it never downgrades to "no footer". Content without a '#'
/// final line passes unverified (legacy artifacts).
void verify_checksum_footer(const std::string& content, const char* what);

/// Read a whole artifact file and verify its checksum footer (when
/// present). Throws std::runtime_error when the file cannot be read and
/// std::invalid_argument on checksum/footer mismatch. The returned content
/// still includes the footer line — loaders stop at `end` and never see it.
[[nodiscard]] std::string read_artifact_file(const std::string& path);

/// Crash-safe artifact commit: stream `writer` into `path + ".tmp"`, append
/// the checksum footer, fsync the temp file AND its parent directory, then
/// rename onto `path`. A kill or power loss at any instant leaves either
/// the complete old artifact or the complete new one — never a truncated
/// or empty file published under the final name. Throws std::runtime_error
/// on any I/O failure (the temp file is removed).
void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer);

// ----------------------------------------------------------- front artifacts
// A --save-front directory is the CLI's serving artifact: one front_NNN.model
// file per true-Pareto design plus an index.tsv naming every file with its
// exact test accuracy / area / power (written with max_digits10 precision, so
// the index round-trips the doubles bit-exactly and model-selection queries
// never tie-break on rounded values).

/// One served design: the index row plus the parsed model artifact.
struct FrontEntry {
  std::string file;              ///< index entry, e.g. "front_000.model"
  double test_accuracy = 0.0;
  double area_cm2 = 0.0;
  double power_mw = 0.0;
  bool functional_match = true;
  ApproxMlp model;
};

/// A hardware front as served entries, in order: "<prefix>front_NNN.model"
/// with each point's exact accuracy/area/power.
[[nodiscard]] std::vector<FrontEntry> front_entries(
    std::vector<HwEvaluatedPoint> front, const std::string& prefix = "");

/// Publish `entries` as a front directory: each model under its `file`
/// name plus index.tsv. Everything is written into a `.tmp` sibling and
/// renamed into place; a previous directory is moved to `.old` and removed
/// only after the new one is complete. So a smaller rerun never leaves
/// stale models next to a fresh index, and a killed run never leaves a
/// half-written directory under the published name. Throws
/// std::runtime_error on I/O failure.
void save_front_dir(const std::vector<FrontEntry>& entries,
                    const std::string& dir);

/// Strict loader of a --save-front directory: parses index.tsv, loads every
/// file it names, and REJECTS (std::invalid_argument) an index naming a
/// missing/corrupt file, a duplicate entry, or a directory holding any
/// front_*.model file the index does not name — a stale model from an
/// earlier, larger front must never be served by accident. Throws
/// std::runtime_error when the directory or index.tsv cannot be read.
[[nodiscard]] std::vector<FrontEntry> load_front_dir(const std::string& dir);

/// Loader for a campaign checkpoint tree (campaign.hpp layout): every flow
/// subdirectory holding an evaluated.txt contributes its true-Pareto subset
/// as entries named "<flow>/front_NNN.model". Flows that have not reached
/// the hardware stage yet are skipped (a live campaign can be served while
/// it runs); an empty result throws std::runtime_error. Each evaluated.txt
/// goes through read_artifact_file, so a damaged one throws
/// std::invalid_argument instead of serving a corrupt point.
[[nodiscard]] std::vector<FrontEntry> load_front_tree(const std::string& dir);

/// Serve-path entry point: a directory with an index.tsv loads as a front
/// directory, anything else as a campaign checkpoint tree.
[[nodiscard]] std::vector<FrontEntry> load_front_any(const std::string& dir);

/// FNV-1a digest over a dataset's name, shape, features and labels — the
/// checkpoint's guard against resuming onto different data.
[[nodiscard]] std::uint64_t dataset_digest(const datasets::Dataset& d);

/// Exact double round-trip shared by all artifact formats: the writer
/// emits a C "%a" hexfloat token, the reader accepts any strtod-parseable
/// token and throws std::invalid_argument (prefixed with `what`) otherwise.
void write_hexdouble(std::ostream& os, double v);
[[nodiscard]] double read_hexdouble(std::istream& is, const char* what);

/// Incremental FNV-1a hasher for config fingerprints (checkpoint meta).
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;

  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace pmlp::core
