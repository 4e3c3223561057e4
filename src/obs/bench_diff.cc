#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sdx::obs {

namespace {

const json::Value& Section(const json::Value& doc, const char* name) {
  const json::Value* section = doc.Find(name);
  if (section == nullptr || !section->is_object()) {
    throw std::runtime_error(
        std::string("metrics snapshot: missing \"") + name +
        "\" section (not a MetricsSnapshot::ToJson document?)");
  }
  return *section;
}

bool IsBatchMetric(const std::string& name) {
  return name.rfind("batch.", 0) == 0;
}

bool CounterRegressed(const std::string& name, double before, double after,
                      const BenchDiffOptions& options) {
  const bool batch = IsBatchMetric(name);
  const double abs_slack =
      batch ? options.min_batch_counter_abs : options.min_counter_abs;
  const double rel =
      batch ? options.max_batch_counter_rel : options.max_counter_rel;
  const double abs_delta = std::fabs(after - before);
  if (abs_delta <= abs_slack) return false;
  const double base = std::max(std::fabs(before), 1.0);
  return abs_delta / base > rel;
}

struct QuantileCheck {
  const char* key;
  double BenchDiffOptions::* max_ratio;
};

constexpr QuantileCheck kQuantiles[] = {
    {"p50", &BenchDiffOptions::max_p50_ratio},
    {"p95", &BenchDiffOptions::max_p95_ratio},
    {"p99", &BenchDiffOptions::max_p99_ratio},
};

}  // namespace

BenchDiff DiffMetrics(const json::Value& before, const json::Value& after,
                      const BenchDiffOptions& options) {
  BenchDiff diff;

  const auto record = [&diff](std::string metric, double b, double a,
                              bool regressed, std::string note) {
    diff.deltas.push_back(
        {std::move(metric), b, a, regressed, std::move(note)});
    diff.regression = diff.regression || regressed;
  };

  // Walks one section present in either document; `changed` is called for
  // names present in both, membership differences land in only_before/
  // only_after.
  const auto walk = [&diff](const json::Value& b_section,
                            const json::Value& a_section, const char* kind,
                            const auto& changed) {
    for (const auto& [name, b_value] : b_section.object) {
      const json::Value* a_value = a_section.Find(name);
      if (a_value == nullptr) {
        diff.only_before.push_back(std::string(kind) + " " + name);
        continue;
      }
      changed(name, b_value, *a_value);
    }
    for (const auto& [name, a_value] : a_section.object) {
      if (b_section.Find(name) == nullptr) {
        diff.only_after.push_back(std::string(kind) + " " + name);
      }
    }
  };

  walk(Section(before, "counters"), Section(after, "counters"), "counter",
       [&](const std::string& name, const json::Value& b,
           const json::Value& a) {
         if (b.number == a.number) return;
         const bool regressed =
             CounterRegressed(name, b.number, a.number, options);
         std::ostringstream note;
         if (regressed) {
           const bool batch = IsBatchMetric(name);
           note << "counter moved beyond rel "
                << (batch ? options.max_batch_counter_rel
                          : options.max_counter_rel)
                << " / abs "
                << (batch ? options.min_batch_counter_abs
                          : options.min_counter_abs);
         }
         record("counter " + name, b.number, a.number, regressed, note.str());
       });

  walk(Section(before, "gauges"), Section(after, "gauges"), "gauge",
       [&](const std::string& name, const json::Value& b,
           const json::Value& a) {
         // The rule-reduction floor is absolute and (like the convergence
         // p99 band) applies even when before == after: an after-side run
         // below the floor is a regression no matter what it is compared
         // against.
         bool regressed = false;
         std::string note;
         if (options.min_rule_reduction > 0.0 &&
             name.rfind("rules.isdx_reduction", 0) == 0 &&
             a.number < options.min_rule_reduction) {
           regressed = true;
           std::ostringstream os;
           os << "iSDX rule reduction " << a.number << " < floor "
              << options.min_rule_reduction;
           note = os.str();
         }
         if (b.number == a.number && !regressed) return;
         // Two gauges carry hard absolute bands; other gauges are shape
         // descriptions and stay informational. The telemetry band is the
         // exact ratio gauge only — its overhead_ns and
         // overhead_ratio_compiled companions live on other scales.
         if (!regressed && name == "telemetry.overhead_ratio" &&
             a.number > options.max_telemetry_overhead) {
           regressed = true;
           std::ostringstream os;
           os << "telemetry overhead " << a.number << " > budget "
              << options.max_telemetry_overhead;
           note = os.str();
         } else if (name == "convergence.overhead_ratio" &&
                    a.number > options.max_convergence_overhead) {
           regressed = true;
           std::ostringstream os;
           os << "convergence tracker overhead " << a.number << " > budget "
              << options.max_convergence_overhead;
           note = os.str();
         } else if (name.rfind("fastpath.speedup", 0) == 0 &&
                    a.number < options.min_fastpath_speedup) {
           regressed = true;
           std::ostringstream os;
           os << "fastpath speedup " << a.number << " < floor "
              << options.min_fastpath_speedup;
           note = os.str();
         }
         record("gauge " + name, b.number, a.number, regressed,
                std::move(note));
       });

  walk(Section(before, "histograms"), Section(after, "histograms"),
       "histogram",
       [&](const std::string& name, const json::Value& b,
           const json::Value& a) {
         const double b_count = b.NumberAt("count");
         const double a_count = a.NumberAt("count");
         if (b_count != a_count) {
           const bool regressed =
               CounterRegressed(name, b_count, a_count, options);
           record("histogram " + name + " count", b_count, a_count, regressed,
                  regressed ? "observation count moved beyond thresholds"
                            : "");
         }
         for (const QuantileCheck& q : kQuantiles) {
           const double b_q = b.NumberAt(q.key);
           const double a_q = a.NumberAt(q.key);
           bool regressed = false;
           std::string note;
           // Convergence-tail band (DESIGN.md §12): an absolute ceiling on
           // the after-side p99 of convergence histograms, applied even
           // when before == after — a run over budget is a regression no
           // matter what it is compared against.
           const bool convergence_p99 =
               std::string(q.key) == "p99" &&
               name.rfind("convergence.", 0) == 0;
           if (convergence_p99 &&
               a_q > options.max_convergence_p99_seconds) {
             regressed = true;
             std::ostringstream os;
             os << "convergence p99 " << a_q << "s > band "
                << options.max_convergence_p99_seconds << "s";
             note = os.str();
           }
           if (b_q == a_q && !regressed) continue;
           if (!regressed && b_q > options.noise_floor_seconds &&
               a_q > options.noise_floor_seconds && b_q > 0.0) {
             const double ratio = a_q / b_q;
             const double max_ratio = options.*(q.max_ratio);
             if (ratio > max_ratio) {
               regressed = true;
               std::ostringstream os;
               os << q.key << " ratio " << ratio << " > " << max_ratio;
               note = os.str();
             }
           }
           record("histogram " + name + " " + q.key, b_q, a_q, regressed,
                  std::move(note));
         }
       });

  // Flagged deltas first, each side stable by name (map iteration order).
  std::stable_sort(diff.deltas.begin(), diff.deltas.end(),
                   [](const BenchDelta& a, const BenchDelta& b) {
                     return a.regressed > b.regressed;
                   });
  return diff;
}

std::string BenchDiff::Render() const {
  std::ostringstream os;
  if (deltas.empty() && only_before.empty() && only_after.empty()) {
    os << "no differences\n";
    return os.str();
  }
  for (const BenchDelta& delta : deltas) {
    os << (delta.regressed ? "REGRESSION " : "           ") << delta.metric
       << ": " << json::Number(delta.before) << " -> "
       << json::Number(delta.after);
    if (delta.before != 0.0) {
      os << "  (x" << json::Number(delta.after / delta.before) << ")";
    }
    if (!delta.note.empty()) os << "  [" << delta.note << "]";
    os << "\n";
  }
  for (const std::string& name : only_before) {
    os << "           only in before: " << name << "\n";
  }
  for (const std::string& name : only_after) {
    os << "           only in after:  " << name << "\n";
  }
  os << (regression ? "verdict: REGRESSION\n" : "verdict: ok\n");
  return os.str();
}

}  // namespace sdx::obs
