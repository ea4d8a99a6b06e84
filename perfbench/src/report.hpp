// Small shared helpers: order statistics, the metric set a run reports and
// the JSON it is printed as.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);
/// Geometric mean of positive values; 0 for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order; set() replaces an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }
  /// Value of `name`, or `fallback` when absent.
  [[nodiscard]] double get(const std::string& name, double fallback) const;

 private:
  std::vector<Metric> items_;
};

/// JSON string literal with escaping, quotes included.
void write_json_string(std::ostream& os, const std::string& s);
/// A double with every significant digit (%.17g); non-finite values are
/// written as null.
void write_json_number(std::ostream& os, double v);
/// `{"name": {"value": v, "unit": "u"}, ...}`
void write_metrics_json(std::ostream& os, const Metrics& m);

}  // namespace perfbench
