#include "pmlp/core/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pmlp/core/fault_injection.hpp"
#include "pmlp/core/serialize.hpp"

namespace pmlp::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFile = "campaign.txt";
constexpr const char* kClaimFile = "claim.lock";
constexpr const char* kBeatFile = "beat.txt";
constexpr const char* kDoneFile = "done.txt";
constexpr const char* kFailedFile = "failed.txt";
constexpr const char* kFailuresFile = "failures.txt";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string host_name() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown-host";
  return buf;
}

/// Filesystem-safe worker-id fragment for temp/quarantine names.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

std::string read_file_raw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "";
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Commit one campaign-tree record through the same fsync+footer path as
/// the stage artifacts.
template <class T>
void write_record_file(const std::string& path, const T& record) {
  write_artifact_file(path,
                      [&](std::ostream& os) { save_record(record, os); });
}

FailureRecord read_failures(const std::string& flow_dir) {
  const std::string path = (fs::path(flow_dir) / kFailuresFile).string();
  std::error_code ec;
  if (!fs::exists(path, ec)) return {};
  try {
    std::istringstream is(read_artifact_file(path));
    return load_record<FailureRecord>(is);
  } catch (const std::exception&) {
    return {};  // damaged record: treat as zero failures
  }
}

}  // namespace

// ---------------------------------------------------------------- manifest

void save_campaign_manifest(const CampaignManifest& m,
                            const std::string& root) {
  fs::create_directories(root);
  write_record_file((fs::path(root) / kManifestFile).string(), m);
}

CampaignManifest load_campaign_manifest(const std::string& root) {
  const std::string path = (fs::path(root) / kManifestFile).string();
  if (!fs::exists(path)) {
    throw std::runtime_error(
        "no campaign manifest (campaign.txt) under '" + root +
        "' — start the tree with `pmlp campaign --checkpoint " + root + "`");
  }
  try {
    std::istringstream is(read_artifact_file(path));
    return load_record<CampaignManifest>(is);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("malformed campaign manifest " + path + ": " +
                                e.what());
  }
}

// ------------------------------------------------------------------ leases

namespace lease {

bool try_claim(const std::string& flow_dir, const std::string& worker_id) {
  const std::string path = (fs::path(flow_dir) / kClaimFile).string();
  // O_EXCL is the arbiter: exactly one creator wins; everybody else gets
  // EEXIST. The claim is create-once — never rewritten — so a stalled
  // owner can never overwrite a thief's fresh claim with its own stale one.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    throw std::runtime_error("cannot create claim " + path + ": " +
                             std::strerror(errno));
  }
  std::ostringstream body;
  save_record(ClaimInfo{worker_id, host_name(), ::getpid(), ""}, body);
  const std::string text = body.str();
  const char* p = text.data();
  std::size_t left = text.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    // Short-written claim: release it rather than hold a lock that other
    // workers cannot attribute (an unreadable claim still ages out via the
    // snapshot timeout, but there is no reason to leave one behind).
    ::unlink(path.c_str());
    throw std::runtime_error("cannot write claim " + path);
  }
  return true;
}

std::optional<ClaimInfo> read_claim(const std::string& flow_dir) {
  const std::string path = (fs::path(flow_dir) / kClaimFile).string();
  const std::string raw = read_file_raw(path);
  if (raw.empty()) return std::nullopt;
  ClaimInfo info;
  try {
    std::istringstream is(raw);
    info = load_record<ClaimInfo>(is);
  } catch (const std::invalid_argument&) {
    // Unparsable (e.g. torn by a crashed writer): still return the raw
    // snapshot — staleness judgment works on bytes, not fields.
    info = ClaimInfo{};
  }
  info.raw = raw;
  return info;
}

void write_beat(const std::string& flow_dir, const std::string& worker_id,
                long count) {
  const fs::path dir(flow_dir);
  const std::string tmp =
      (dir / (std::string(kBeatFile) + "." + sanitize(worker_id) + ".tmp"))
          .string();
  const std::string path = (dir / kBeatFile).string();
  std::ostringstream body;
  save_record(BeatRecord{worker_id, count}, body);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return;  // heartbeat is best-effort; the lease just ages
    os << body.str();
    os.flush();
    if (!os) {
      os.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

std::string read_beat_raw(const std::string& flow_dir) {
  return read_file_raw((fs::path(flow_dir) / kBeatFile).string());
}

bool claim_owner_dead_locally(const ClaimInfo& claim) {
  if (claim.pid <= 0 || claim.host != host_name()) return false;
  if (::kill(static_cast<pid_t>(claim.pid), 0) == 0) return false;
  return errno == ESRCH;
}

bool steal_claim(const std::string& flow_dir, const std::string& thief_id) {
  // rename() is the arbiter: among racing thieves exactly one moves the
  // stale claim aside; the rest observe ENOENT. A per-thief destination
  // name keeps concurrent steals of DIFFERENT incarnations from colliding.
  static std::atomic<unsigned> nonce{0};
  const fs::path dir(flow_dir);
  const std::string src = (dir / kClaimFile).string();
  const std::string dst =
      (dir / (std::string(kClaimFile) + ".stale-" + sanitize(thief_id) + "-" +
              std::to_string(nonce.fetch_add(1))))
          .string();
  if (::rename(src.c_str(), dst.c_str()) != 0) return false;
  std::error_code ec;
  fs::remove(dst, ec);  // post-mortem value is low; drop it
  fs::remove((dir / kBeatFile).string(), ec);
  return true;
}

void release_claim(const std::string& flow_dir,
                   const std::string& worker_id) {
  const auto claim = read_claim(flow_dir);
  if (!claim || claim->worker != worker_id) return;  // stolen: not ours
  std::error_code ec;
  fs::remove((fs::path(flow_dir) / kBeatFile).string(), ec);
  fs::remove((fs::path(flow_dir) / kClaimFile).string(), ec);
}

}  // namespace lease

// ------------------------------------------------------------------ worker

/// Lease-directory claim store: one worker process's view of the tree.
/// A claim is a lease file; each claim builds a fresh engine that reloads
/// whatever any worker committed since this one last visited the flow.
struct CampaignWorker::Impl final : ClaimStore {
  std::vector<CampaignFlowSpec> specs;
  WorkerConfig cfg;
  std::string id;
  ProgressFn progress;
  WorkerReport report;

  std::atomic<bool> stop{false};

  // Heartbeat thread state: which flow directory to beat for ("" = none),
  // and whether the claim disappeared under us (fencing). `lease_gen`
  // increments on every begin/end so an in-flight beat iteration for a
  // PREVIOUS lease can never set lease_lost for the current one. The
  // beater waits on `beater_exit || beat_now`, so a notify that lands
  // while it is not waiting is not lost.
  std::thread beater;
  std::mutex beat_mutex;
  std::condition_variable beat_cv;
  std::string beat_dir;          // guarded by beat_mutex
  long lease_gen = 0;            // guarded by beat_mutex
  bool beater_exit = false;      // guarded by beat_mutex
  bool beat_now = false;         // guarded by beat_mutex
  std::atomic<bool> lease_lost{false};
  long beat_count = 0;  ///< beater thread only

  // Per-flow staleness tracking: last observed (claim, beat) snapshot and
  // when THIS worker first saw it (local monotonic clock).
  struct StaleTrack {
    std::string claim_raw;
    std::string beat_raw;
    std::chrono::steady_clock::time_point first_seen;
    bool valid = false;
  };
  std::vector<StaleTrack> track;

  // Sweep state: the next flow to look at, and whether the current sweep
  // over the grid saw a non-terminal flow / advanced the tree.
  std::size_t cursor = 0;
  bool sweep_active = false;
  bool sweep_progressed = false;
  double backoff_s = 0.0;
  std::mt19937 jitter_rng{std::random_device{}()};

  std::string dir;  ///< the claimed flow's directory
  std::optional<FlowEngine> engine;

  void beater_loop() {
    std::unique_lock<std::mutex> lock(beat_mutex);
    for (;;) {
      beat_cv.wait_for(lock, std::chrono::duration<double>(cfg.heartbeat_s),
                       [this] { return beater_exit || beat_now; });
      if (beater_exit) return;
      beat_now = false;
      if (beat_dir.empty()) continue;
      const std::string flow_dir = beat_dir;
      const long gen = lease_gen;
      lock.unlock();
      // Fencing: re-read the claim every beat. If it vanished or names
      // someone else, our lease was stolen (we stalled past the timeout).
      // Stop beating and raise the flag — the main loop must not write
      // terminal markers or release the NEW owner's claim.
      const auto claim = lease::read_claim(flow_dir);
      const bool lost = !claim || claim->worker != id;
      if (!lost && !FaultInjector::instance().heartbeat_stalled()) {
        lease::write_beat(flow_dir, id, ++beat_count);
      }
      lock.lock();
      if (lost && lease_gen == gen) lease_lost.store(true);
    }
  }

  void stop_beater() {
    if (!beater.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(beat_mutex);
      beater_exit = true;
    }
    beat_cv.notify_all();
    beater.join();
  }

  void begin_lease(const std::string& flow_dir) {
    {
      std::lock_guard<std::mutex> lock(beat_mutex);
      beat_dir = flow_dir;
      beat_now = true;
      ++lease_gen;
      lease_lost.store(false);
    }
    // Wake the beater for the first beat right away; the fresh claim itself
    // already starts a fresh staleness snapshot for other workers.
    beat_cv.notify_all();
  }

  /// Try to become the owner of flow `i`. Handles the contention path:
  /// conflict accounting, same-host dead-owner fast path, snapshot-based
  /// staleness and the atomic steal.
  bool acquire(std::size_t i, const std::string& flow_dir) {
    if (lease::try_claim(flow_dir, id)) {
      ++report.claims;
      track[i].valid = false;
      return true;
    }
    ++report.claim_conflicts;
    const auto claim = lease::read_claim(flow_dir);
    if (!claim) return false;  // released between our open() and read: retry
    const std::string beat = lease::read_beat_raw(flow_dir);
    const auto now = std::chrono::steady_clock::now();
    auto& t = track[i];
    const bool changed =
        !t.valid || t.claim_raw != claim->raw || t.beat_raw != beat;
    if (changed) {
      t.claim_raw = claim->raw;
      t.beat_raw = beat;
      t.first_seen = now;
      t.valid = true;
    }
    const bool dead = lease::claim_owner_dead_locally(*claim);
    const bool timed_out =
        t.valid && std::chrono::duration<double>(now - t.first_seen).count() >=
                       cfg.lease_timeout_s;
    if (!dead && (changed || !timed_out)) return false;  // owner looks alive
    if (!lease::steal_claim(flow_dir, id)) return false;  // lost the race
    ++report.leases_stolen;
    t.valid = false;
    if (lease::try_claim(flow_dir, id)) {
      ++report.claims;
      return true;
    }
    return false;  // another worker claimed first; their lease, their flow
  }

  std::optional<Claim> claim() override {
    while (!stop.load()) {
      if (cursor == specs.size()) {  // one sweep over the grid ended
        cursor = 0;
        if (!sweep_active) return std::nullopt;  // tree fully drained
        if (sweep_progressed || stop.load()) {
          backoff_s = cfg.heartbeat_s / 20;
        } else {
          // Everything claimable is claimed by live owners: back off with
          // jitter so a fleet of idle workers doesn't poll in lockstep.
          std::uniform_real_distribution<double> u(0.5, 1.5);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff_s * u(jitter_rng)));
          backoff_s = std::min(backoff_s * 2.0, cfg.heartbeat_s);
        }
        sweep_active = sweep_progressed = false;
        continue;
      }
      const std::size_t i = cursor++;
      dir = (fs::path(cfg.checkpoint_root) / specs[i].name).string();
      fs::create_directories(dir);
      std::error_code ec;
      if (fs::exists(fs::path(dir) / kDoneFile, ec) ||
          fs::exists(fs::path(dir) / kFailedFile, ec)) {
        continue;  // terminal
      }
      sweep_active = true;
      if (!acquire(i, dir)) continue;
      begin_lease(dir);
      const CampaignFlowSpec& spec = specs[i];
      engine.emplace(spec.data, spec.topology, spec.config);
      engine->set_checkpoint_dir(dir);
      return Claim{i, &*engine};
    }
    return std::nullopt;
  }

  void on_stage(const Claim& c, const StageReport& rep) override {
    ++(rep.reused ? report.stages_reloaded : report.stages_computed);
    if (progress) progress(specs[c.flow].name, rep);
  }

  /// Drop the lease — unless it was stolen, in which case the new owner's
  /// claim and bookkeeping are not ours to touch.
  void end_claim(bool ok) {
    engine.reset();
    {
      std::lock_guard<std::mutex> lock(beat_mutex);
      beat_dir.clear();
      ++lease_gen;
    }
    if (lease_lost.load()) return;
    if (ok) {
      std::error_code ec;
      fs::remove(fs::path(dir) / kFailuresFile, ec);
    }
    lease::release_claim(dir, id);
  }

  void complete(const Claim&) override {
    if (!lease_lost.load()) {
      write_record_file((fs::path(dir) / kDoneFile).string(), DoneMarker{id});
      ++report.flows_completed;
      sweep_progressed = true;
    }
    end_claim(true);
  }

  void release(const Claim&, std::optional<FlowStage> computed) override {
    if (computed) {
      // One computed stage committed — the stage boundary. The injected
      // kill lands here, AFTER the commit and BEFORE the release: the
      // checkpoint tree keeps the work, the lease dies with the process.
      FaultInjector::instance().maybe_kill_at_stage(flow_stage_name(*computed));
      sweep_progressed = true;
    }
    end_claim(true);
  }

  void fail(const Claim&, const std::string& error) override {
    ++report.stage_failures;
    if (!lease_lost.load()) {
      FailureRecord rec = read_failures(dir);
      ++rec.count;
      rec.error = error;
      write_record_file((fs::path(dir) / kFailuresFile).string(), rec);
      if (rec.count >= cfg.max_failures) {
        write_record_file((fs::path(dir) / kFailedFile).string(),
                          FailedMarker{id, rec.error});
        ++report.flows_failed;
      }
      sweep_progressed = true;  // the failure record itself advanced the tree
    }
    end_claim(false);
  }
};


CampaignWorker::CampaignWorker(std::vector<CampaignFlowSpec> specs,
                               WorkerConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->specs = std::move(specs);
  impl_->cfg = std::move(cfg);
  if (impl_->cfg.checkpoint_root.empty()) {
    throw std::invalid_argument("CampaignWorker: checkpoint_root is empty");
  }
  if (impl_->cfg.lease_timeout_s <= 0 || impl_->cfg.heartbeat_s <= 0) {
    throw std::invalid_argument(
        "CampaignWorker: lease_timeout_s and heartbeat_s must be positive");
  }
  if (impl_->cfg.worker_id.empty()) {
    std::random_device rd;
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", rd());
    impl_->cfg.worker_id =
        host_name() + "-" + std::to_string(::getpid()) + "-" + hex;
  }
  impl_->id = impl_->cfg.worker_id;
  impl_->report.worker_id = impl_->id;
  impl_->track.resize(impl_->specs.size());
}

CampaignWorker::~CampaignWorker() { impl_->stop_beater(); }

CampaignWorker& CampaignWorker::set_progress(ProgressFn cb) {
  impl_->progress = std::move(cb);
  return *this;
}

void CampaignWorker::request_stop() { impl_->stop.store(true); }

const std::string& CampaignWorker::worker_id() const { return impl_->id; }

WorkerReport CampaignWorker::run() {
  Impl& im = *impl_;
  const auto t0 = std::chrono::steady_clock::now();
  if (!fs::is_directory(im.cfg.checkpoint_root)) {
    throw std::runtime_error("worker: checkpoint root '" +
                             im.cfg.checkpoint_root +
                             "' is not a directory");
  }
  im.beater = std::thread([&im] { im.beater_loop(); });
  im.backoff_s = im.cfg.heartbeat_s / 20;
  drain_campaign(im, im.stop);
  im.stop_beater();
  im.report.wall_seconds = seconds_since(t0);
  return im.report;
}

// ------------------------------------------------------------------ status

CampaignStatusReport read_campaign_status(const std::string& root) {
  CampaignStatusReport out;
  out.manifest = load_campaign_manifest(root);
  constexpr FlowStage kCheckpointed[] = {
      FlowStage::kSplit,   FlowStage::kBackprop, FlowStage::kBaseline,
      FlowStage::kGa,      FlowStage::kRefine,   FlowStage::kHardware,
  };
  for (const auto& mf : out.manifest.flows) {
    FlowStatusRow row;
    row.name = mf.name;
    row.stages_total = static_cast<int>(std::size(kCheckpointed));
    const fs::path dir = fs::path(root) / mf.name;
    std::error_code ec;
    for (FlowStage s : kCheckpointed) {
      if (fs::exists(dir / flow_stage_artifact(s), ec)) {
        ++row.stages_done;
      } else if (row.next_stage.empty()) {
        row.next_stage = flow_stage_name(s);
      }
    }
    if (row.next_stage.empty()) row.next_stage = "-";
    row.done = fs::exists(dir / kDoneFile, ec);
    row.failed = fs::exists(dir / kFailedFile, ec);
    if (const auto claim = lease::read_claim(dir.string())) {
      row.owner = claim->worker.empty() ? "?" : claim->worker;
      // Heartbeat age = seconds since the newer of claim/beat changed,
      // by file mtime. Cross-host clock skew makes this approximate —
      // it is presentation, not the staleness arbiter (workers use their
      // own monotonic snapshots for that).
      auto newest = fs::last_write_time(dir / kClaimFile, ec);
      if (!ec) {
        const auto beat_time = fs::last_write_time(dir / kBeatFile, ec);
        if (!ec && beat_time > newest) newest = beat_time;
        ec.clear();
        row.heartbeat_age_s = std::chrono::duration<double>(
                                  fs::file_time_type::clock::now() - newest)
                                  .count();
      }
    }
    const FailureRecord rec = read_failures(dir.string());
    row.failures = rec.count;
    row.error = rec.error;
    if (row.done) ++out.done;
    if (row.failed) ++out.failed;
    if (!row.owner.empty()) ++out.claimed;
    out.flows.push_back(std::move(row));
  }
  return out;
}

void write_campaign_status_table(const CampaignStatusReport& s,
                                 std::ostream& os) {
  os << "campaign: " << s.flows.size() << " flows (NSGA-II "
     << s.manifest.population << "x" << s.manifest.generations << "), "
     << s.done << " done, " << s.failed << " failed, " << s.claimed
     << " claimed\n";
  os << "  flow                 stages  next      state     owner"
        "                      beat-age  fails\n";
  for (const auto& f : s.flows) {
    os << "  ";
    os.width(20);
    os.setf(std::ios::left);
    os << f.name;
    os.unsetf(std::ios::left);
    os << ' ' << f.stages_done << '/' << f.stages_total << "     ";
    os.width(9);
    os.setf(std::ios::left);
    os << f.next_stage;
    os.width(9);
    const char* state = f.failed   ? "FAILED"
                        : f.done   ? "done"
                        : !f.owner.empty() ? "claimed"
                                           : "unclaimed";
    os << state;
    os.width(26);
    os << (f.owner.empty() ? "-" : f.owner);
    os.unsetf(std::ios::left);
    if (f.heartbeat_age_s >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%8.1fs", f.heartbeat_age_s);
      os << buf;
    } else {
      os << "       -";
    }
    os << "  " << f.failures;
    if (!f.error.empty()) os << "  (" << f.error << ")";
    os << '\n';
  }
}

void write_campaign_status_json(const CampaignStatusReport& s,
                                std::ostream& os) {
  std::ostringstream body;
  body.precision(17);
  body << "{\"campaign\":{\"population\":" << s.manifest.population
       << ",\"generations\":" << s.manifest.generations
       << ",\"ga_checkpoint\":" << s.manifest.ga_checkpoint
       << ",\"flows_total\":" << s.flows.size() << ",\"done\":" << s.done
       << ",\"failed\":" << s.failed << ",\"claimed\":" << s.claimed
       << ",\"flows\":[";
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const auto& f = s.flows[i];
    if (i) body << ',';
    body << "{\"name\":";
    json_escape(f.name, body);
    body << ",\"stages_done\":" << f.stages_done
         << ",\"stages_total\":" << f.stages_total << ",\"next_stage\":";
    json_escape(f.next_stage, body);
    body << ",\"done\":" << (f.done ? "true" : "false")
         << ",\"failed\":" << (f.failed ? "true" : "false") << ",\"owner\":";
    if (f.owner.empty()) {
      body << "null";
    } else {
      json_escape(f.owner, body);
    }
    body << ",\"heartbeat_age_s\":";
    if (f.heartbeat_age_s >= 0) {
      body << f.heartbeat_age_s;
    } else {
      body << "null";
    }
    body << ",\"failures\":" << f.failures << ",\"error\":";
    if (f.error.empty()) {
      body << "null";
    } else {
      json_escape(f.error, body);
    }
    body << "}";
  }
  body << "]}}";
  os << body.str() << '\n';
}

}  // namespace pmlp::core
