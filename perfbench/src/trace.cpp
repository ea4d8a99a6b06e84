#include "trace.hpp"

#include <time.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::vector<int> allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

PinnedToCpu::PinnedToCpu(int cpu) {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
}

double mean_of_medians(const std::vector<std::vector<double>>& groups) {
  double total = 0.0;
  int n = 0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    total += median(g);
    ++n;
  }
  return n > 0 ? total / n : 0.0;
}

std::uint64_t Tracer::new_id() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::string name, double start_s,
                    double end_s, std::uint64_t parent, int lane) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start_s, end_s, id, parent, lane});
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const auto& s : spans_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    write_json_string(os, s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  s.lane, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
