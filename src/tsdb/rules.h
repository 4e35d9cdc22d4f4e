// Recording rules — the extensibility mechanism the paper builds its whole
// energy-estimation story on (§I, §III-A): operators express per-node-group
// power estimation (Eq. 1 among them) as PromQL recording rules rather
// than code. The engine evaluates rule groups against the store and writes
// the results back as new series named by `record`.
//
// Rules within a group are evaluated in order and see the results of
// earlier rules in the same evaluation (Prometheus semantics), which lets
// Eq. 1 be decomposed into named sub-expressions.
//
// Order is kept only where it is observable: each rule reads the metric
// names of its selectors and writes its `record` name (ALERTS for alerting
// rules), and two rules conflict when one writes a name the other reads or
// writes. Conflicting rules run in file order; the rest run concurrently
// on the engine's pool, in waves (DESIGN.md §13). Results are
// bit-identical to serial evaluation.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/threadpool.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {

struct RecordingRule {
  std::string record;            // output metric name
  std::string expr;              // PromQL text
  std::vector<std::pair<std::string, std::string>> static_labels;
  promql::ExprPtr parsed;        // filled by RuleEngine
  // `record` and `static_labels` as symbols, interned once by RuleEngine
  // so write-back edits symbol ids instead of re-interning strings.
  uint32_t record_sym = 0;
  std::vector<InternedLabels::SymbolPair> static_syms = {};
};

// Alerting rule: fires while `expr` returns a non-empty vector (after a
// comparison filter, as in Prometheus). A `for` duration keeps the alert
// pending until the condition has held continuously that long.
struct AlertingRule {
  std::string alert;  // alert name
  std::string expr;
  int64_t for_ms = 0;
  std::vector<std::pair<std::string, std::string>> static_labels;
  promql::ExprPtr parsed;
};

enum class AlertState { kPending, kFiring };

struct ActiveAlert {
  std::string name;
  Labels labels;        // series labels + alertname + static labels
  AlertState state = AlertState::kPending;
  common::TimestampMs active_since_ms = 0;
  double value = 0;     // last value of the triggering sample
};

struct RuleGroup {
  std::string name;
  int64_t interval_ms = 30 * common::kMillisPerSecond;
  std::vector<RecordingRule> rules;
  std::vector<AlertingRule> alerts;
};

struct RuleEvalStats {
  uint64_t rules_evaluated = 0;
  uint64_t samples_written = 0;
  uint64_t rule_failures = 0;
  uint64_t alerts_firing = 0;
  uint64_t alerts_pending = 0;
};

class RuleEngine {
 public:
  // `pool` runs the rules of one wave concurrently; nullptr runs every
  // wave inline on the caller's thread. It must not be options.pool: a
  // rule task calling run_all on its own pool could wait on itself.
  explicit RuleEngine(StorePtr store, promql::EngineOptions options = {},
                      std::shared_ptr<common::ThreadPool> pool = nullptr);

  // Parses every rule expression up front; throws promql::ParseError on
  // invalid rules (fail fast at config load, like promtool check rules).
  void add_group(RuleGroup group);
  std::size_t group_count() const {
    std::lock_guard lock(eval_mu_);
    return groups_.size();
  }

  // Evaluates every group due at `t` (interval grid) and writes results.
  RuleEvalStats evaluate_due(common::TimestampMs t);
  // Evaluates everything regardless of interval (deterministic pipelines).
  RuleEvalStats evaluate_all(common::TimestampMs t);

  // Alerts currently pending or firing. Firing alerts are also written to
  // the store as ALERTS{alertname=...,alertstate=...} 1 series.
  std::vector<ActiveAlert> active_alerts() const;

 private:
  // Metric names one rule touches: what its selectors read (`reads_all`
  // when a selector has no fixed name) and what it writes.
  struct Access {
    std::vector<std::string> reads;  // sorted, unique
    bool reads_all = false;
    std::string writes;
  };
  static Access access_of(const promql::Expr& expr, std::string writes);
  // True when the two rules must keep their relative order.
  static bool conflicts(const Access& a, const Access& b);

  // Evaluates the groups whose indices are listed (ascending) at `t`.
  RuleEvalStats evaluate_groups(const std::vector<std::size_t>& due,
                                common::TimestampMs t);
  void evaluate_record(const RecordingRule& rule, common::TimestampMs t,
                       RuleEvalStats& stats);
  void evaluate_alert(const AlertingRule& rule, common::TimestampMs t,
                      RuleEvalStats& stats);

  StorePtr store_;
  promql::Engine engine_;
  std::shared_ptr<common::ThreadPool> pool_;
  // Serialises rule evaluation against group registration and alert
  // snapshots: the evaluation loop runs on a timer thread while
  // active_alerts() is read from HTTP handlers.
  mutable std::mutex eval_mu_;
  std::vector<RuleGroup> groups_;
  // Per group: Access of each alerting rule, then of each recording rule
  // (the order evaluate_groups() flattens a group into).
  std::vector<std::vector<Access>> access_;
  std::vector<common::TimestampMs> last_eval_;
  // Key: alertname fingerprint ^ labels fingerprint.
  std::map<uint64_t, ActiveAlert> active_;
};

// Parses rule groups from the `groups:` section of a Prometheus-style rule
// file already loaded as a Json/YAML tree:
//   groups:
//     - name: energy
//       interval: 30s
//       rules:
//         - record: ceems_job_power_watts
//           expr: ...
//           labels: { group: intel }
std::vector<RuleGroup> parse_rule_groups(const common::Json& root);

}  // namespace ceems::tsdb
