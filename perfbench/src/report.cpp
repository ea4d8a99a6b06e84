#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name, double fallback) const {
  for (const auto& m : items_) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_metrics_json(std::ostream& os, const Metrics& m) {
  os << '{';
  bool first = true;
  for (const auto& item : m.all()) {
    if (!first) os << ", ";
    first = false;
    write_json_string(os, item.name);
    os << ": {\"value\": ";
    write_json_number(os, item.value);
    os << ", \"unit\": ";
    write_json_string(os, item.unit);
    os << '}';
  }
  os << '}';
}

}  // namespace perfbench
