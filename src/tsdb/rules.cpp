#include "tsdb/rules.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/logging.h"
#include "common/strutil.h"

namespace ceems::tsdb {

RuleEngine::RuleEngine(StorePtr store, promql::EngineOptions options,
                       std::shared_ptr<common::ThreadPool> pool)
    : store_(std::move(store)), engine_(options), pool_(std::move(pool)) {}

RuleEngine::Access RuleEngine::access_of(const promql::Expr& expr,
                                         std::string writes) {
  Access access;
  access.writes = std::move(writes);
  auto visit = [&](const auto& self, const promql::Expr& node) -> void {
    using Kind = promql::Expr::Kind;
    if (node.kind == Kind::kVectorSelector ||
        node.kind == Kind::kMatrixSelector) {
      const std::string* name =
          node.metric_name.empty() ? nullptr : &node.metric_name;
      for (const auto& matcher : node.matchers) {
        if (name) break;
        if (matcher.name == metrics::kMetricNameLabel &&
            matcher.op == metrics::LabelMatcher::Op::kEq) {
          name = &matcher.value;
        }
      }
      if (name) {
        access.reads.push_back(*name);
      } else {
        access.reads_all = true;
      }
    }
    for (const auto& arg : node.args) self(self, *arg);
    for (const auto* child : {&node.lhs, &node.rhs, &node.agg_expr,
                              &node.agg_param}) {
      if (*child) self(self, **child);
    }
  };
  visit(visit, expr);
  std::sort(access.reads.begin(), access.reads.end());
  access.reads.erase(std::unique(access.reads.begin(), access.reads.end()),
                     access.reads.end());
  return access;
}

bool RuleEngine::conflicts(const Access& a, const Access& b) {
  auto reads = [](const Access& rule, const std::string& name) {
    return rule.reads_all ||
           std::binary_search(rule.reads.begin(), rule.reads.end(), name);
  };
  return a.writes == b.writes || reads(a, b.writes) || reads(b, a.writes);
}

void RuleEngine::add_group(RuleGroup group) {
  for (auto& rule : group.rules) {
    if (!metrics::is_valid_metric_name(rule.record))
      throw promql::ParseError("invalid record name: " + rule.record);
    rule.parsed = promql::parse(rule.expr);
    auto& table = metrics::SymbolTable::global();
    rule.record_sym = table.intern(rule.record);
    rule.static_syms.clear();
    for (const auto& [name, value] : rule.static_labels) {
      rule.static_syms.emplace_back(table.intern(name), table.intern(value));
    }
  }
  for (auto& rule : group.alerts) {
    if (rule.alert.empty())
      throw promql::ParseError("alerting rule without a name");
    rule.parsed = promql::parse(rule.expr);
  }
  std::vector<Access> access;
  for (const auto& rule : group.alerts) {
    access.push_back(access_of(*rule.parsed, "ALERTS"));
  }
  for (const auto& rule : group.rules) {
    access.push_back(access_of(*rule.parsed, rule.record));
  }
  std::lock_guard lock(eval_mu_);
  groups_.push_back(std::move(group));
  access_.push_back(std::move(access));
  last_eval_.push_back(-1);
}

void RuleEngine::evaluate_alert(const AlertingRule& rule,
                                common::TimestampMs t, RuleEvalStats& stats) {
  ++stats.rules_evaluated;
  promql::Value value;
  try {
    value = engine_.eval(*store_, rule.parsed, t);
  } catch (const std::exception& e) {
    ++stats.rule_failures;
    CEEMS_LOG_WARN("rules") << "alert " << rule.alert << ": " << e.what();
    return;
  }
  if (value.kind != promql::Value::Kind::kVector) {
    ++stats.rule_failures;
    return;
  }

  // Mark the alert instances present in this evaluation.
  std::set<uint64_t> seen;
  for (const auto& sample : value.vector) {
    Labels labels =
        sample.labels.to_labels().without_name().with("alertname", rule.alert);
    for (const auto& [name, label_value] : rule.static_labels) {
      labels = labels.with(name, label_value);
    }
    uint64_t key = labels.fingerprint();
    seen.insert(key);
    auto it = active_.find(key);
    if (it == active_.end()) {
      ActiveAlert alert;
      alert.name = rule.alert;
      alert.labels = labels;
      alert.active_since_ms = t;
      alert.value = sample.value;
      alert.state = rule.for_ms == 0 ? AlertState::kFiring
                                     : AlertState::kPending;
      it = active_.emplace(key, std::move(alert)).first;
    }
    ActiveAlert& alert = it->second;
    alert.value = sample.value;
    if (alert.state == AlertState::kPending &&
        t - alert.active_since_ms >= rule.for_ms) {
      alert.state = AlertState::kFiring;
    }
    if (alert.state == AlertState::kFiring) {
      store_->append(alert.labels.with("alertstate", "firing")
                         .with_name("ALERTS"),
                     t, 1);
      ++stats.alerts_firing;
    } else {
      ++stats.alerts_pending;
    }
  }
  // Resolve instances of this alert that stopped matching. An instance
  // that was firing wrote ALERTS samples; end that series with a staleness
  // marker so instant queries drop it immediately instead of it lingering
  // for a full lookback window after resolution.
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.name == rule.alert && !seen.count(it->first)) {
      if (it->second.state == AlertState::kFiring) {
        store_->append(it->second.labels.with("alertstate", "firing")
                           .with_name("ALERTS"),
                       t, metrics::stale_marker());
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void RuleEngine::evaluate_record(const RecordingRule& rule,
                                 common::TimestampMs t, RuleEvalStats& stats) {
  ++stats.rules_evaluated;
  try {
    promql::Value value = engine_.eval(*store_, rule.parsed, t);
    if (value.kind != promql::Value::Kind::kVector) {
      CEEMS_LOG_WARN("rules")
          << "rule " << rule.record << " did not yield a vector";
      ++stats.rule_failures;
      return;
    }
    // Name each output label set by symbol, in place, and write the whole
    // vector as one batch: one WAL record and one lock per touched shard,
    // not one each per sample. Per-series order is the vector's order, so
    // duplicate label sets still resolve last-write-wins.
    const uint32_t name_sym = InternedLabels::name_symbol();
    std::vector<metrics::SampleRef> refs;
    refs.reserve(value.vector.size());
    for (auto& sample : value.vector) {
      sample.labels = sample.labels.with_symbols(name_sym, rule.record_sym);
      for (const auto& [name, label_value] : rule.static_syms) {
        sample.labels = sample.labels.with_symbols(name, label_value);
      }
      refs.push_back({&sample.labels, t, sample.value});
    }
    stats.samples_written += store_->append_refs(refs.data(), refs.size());
  } catch (const std::exception& e) {
    ++stats.rule_failures;
    CEEMS_LOG_WARN("rules") << "rule " << rule.record << ": " << e.what();
  }
}

RuleEvalStats RuleEngine::evaluate_groups(const std::vector<std::size_t>& due,
                                          common::TimestampMs t) {
  // Flatten the due groups into file order: groups in registration order,
  // each group's alerting rules before its recording rules.
  struct Slot {
    const Access* access;
    std::function<void(RuleEvalStats&)> run;
  };
  std::vector<Slot> slots;
  for (std::size_t g : due) {
    const RuleGroup& group = groups_[g];
    const Access* access = access_[g].data();
    for (const auto& rule : group.alerts) {
      slots.push_back({access++, [this, &rule, t](RuleEvalStats& stats) {
                         evaluate_alert(rule, t, stats);
                       }});
    }
    for (const auto& rule : group.rules) {
      slots.push_back({access++, [this, &rule, t](RuleEvalStats& stats) {
                         evaluate_record(rule, t, stats);
                       }});
    }
  }

  // A rule's wave is one past the latest wave of any earlier rule it
  // conflicts with, so conflicting rules keep file order and each wave's
  // rules touch disjoint names.
  std::vector<std::size_t> wave(slots.size(), 0);
  std::size_t num_waves = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (wave[j] >= wave[i] && conflicts(*slots[j].access, *slots[i].access))
        wave[i] = wave[j] + 1;
    }
    num_waves = std::max(num_waves, wave[i] + 1);
  }

  std::vector<RuleEvalStats> stats(slots.size());
  for (std::size_t w = 0; w < num_waves; ++w) {
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (wave[i] == w) tasks.push_back([&, i] { slots[i].run(stats[i]); });
    }
    if (pool_ && tasks.size() > 1) {
      pool_->run_all(std::move(tasks));
    } else {
      for (auto& task : tasks) task();
    }
  }

  RuleEvalStats total;
  for (const RuleEvalStats& rule : stats) {
    total.rules_evaluated += rule.rules_evaluated;
    total.samples_written += rule.samples_written;
    total.rule_failures += rule.rule_failures;
    total.alerts_firing += rule.alerts_firing;
    total.alerts_pending += rule.alerts_pending;
  }
  return total;
}

RuleEvalStats RuleEngine::evaluate_due(common::TimestampMs t) {
  std::lock_guard lock(eval_mu_);
  std::vector<std::size_t> due;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (last_eval_[i] >= 0 && t - last_eval_[i] < groups_[i].interval_ms)
      continue;
    last_eval_[i] = t;
    due.push_back(i);
  }
  return evaluate_groups(due, t);
}

RuleEvalStats RuleEngine::evaluate_all(common::TimestampMs t) {
  std::lock_guard lock(eval_mu_);
  std::vector<std::size_t> due(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    last_eval_[i] = t;
    due[i] = i;
  }
  return evaluate_groups(due, t);
}

std::vector<ActiveAlert> RuleEngine::active_alerts() const {
  std::lock_guard lock(eval_mu_);
  std::vector<ActiveAlert> out;
  out.reserve(active_.size());
  for (const auto& [key, alert] : active_) out.push_back(alert);
  return out;
}

std::vector<RuleGroup> parse_rule_groups(const common::Json& root) {
  std::vector<RuleGroup> groups;
  auto groups_node = root.get("groups");
  if (!groups_node || !groups_node->is_array()) return groups;
  for (const auto& group_node : groups_node->as_array()) {
    RuleGroup group;
    group.name = group_node.get_string("name", "unnamed");
    std::string interval = group_node.get_string("interval", "30s");
    group.interval_ms =
        common::parse_duration_ms(interval).value_or(30 * 1000);
    auto rules_node = group_node.get("rules");
    if (rules_node && rules_node->is_array()) {
      for (const auto& rule_node : rules_node->as_array()) {
        std::vector<std::pair<std::string, std::string>> static_labels;
        if (auto labels_node = rule_node.get("labels");
            labels_node && labels_node->is_object()) {
          for (const auto& [name, value] : labels_node->as_object()) {
            static_labels.emplace_back(
                name, value.is_string() ? value.as_string() : value.dump());
          }
        }
        if (rule_node.get("alert")) {
          AlertingRule rule;
          rule.alert = rule_node.get_string("alert");
          rule.expr = rule_node.get_string("expr");
          rule.for_ms = common::parse_duration_ms(
                            rule_node.get_string("for", "0s"))
                            .value_or(0);
          rule.static_labels = std::move(static_labels);
          group.alerts.push_back(std::move(rule));
        } else {
          RecordingRule rule;
          rule.record = rule_node.get_string("record");
          rule.expr = rule_node.get_string("expr");
          rule.static_labels = std::move(static_labels);
          group.rules.push_back(std::move(rule));
        }
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace ceems::tsdb
