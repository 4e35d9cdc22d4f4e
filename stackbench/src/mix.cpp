#include "mix.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <mutex>
#include <set>

#include "common/clock.h"
#include "common/strutil.h"
#include "core/rules_library.h"
#include "dashboard/ceems_dashboards.h"
#include "dashboard/grafana_export.h"
#include "http/message.h"
#include "http/server.h"

namespace stackbench {

namespace {

using ceems::common::kMillisPerMinute;
using ceems::common::kMillisPerSecond;

// Every panel covers the last 30 minutes at a 60 s step: the range and
// step examples/user_dashboard.cpp renders Fig. 2c with.
constexpr int64_t kPanelRangeMs = 30 * kMillisPerMinute;
constexpr int64_t kPanelStepMs = 60 * kMillisPerSecond;
constexpr const char* kUuidVar = "$uuid";

// View kinds per cycle of 20 views. Assumed, not measured: mostly job
// owners looking at one job, few operator views. The order is fixed and
// spreads each kind over the cycle, so a phase of a dozen views holds the
// same mix under every seed (a seeded order made short phases' latency
// medians differ from seed to seed with the mix they happened to draw).
constexpr View kViewCycle[] = {
    View::kJob, View::kUser,    View::kJob, View::kJobLongRange,
    View::kJob, View::kRefused, View::kJob, View::kUser,
    View::kJob, View::kJobLongRange, View::kJob, View::kOperator,
    View::kJob, View::kUser,    View::kJob, View::kJobLongRange,
    View::kJob, View::kUser,    View::kJob, View::kJobLongRange};
constexpr int kViewsPerCycle = 20;

int64_t align_down(int64_t t, int64_t grid) { return t - t % grid; }

std::string seconds(int64_t ms) { return std::to_string(ms / 1000); }

std::string range_target(const std::string& query, int64_t start_ms,
                         int64_t end_ms, int64_t step_ms) {
  return "/api/v1/query_range?query=" + ceems::http::url_encode(query) +
         "&start=" + seconds(start_ms) + "&end=" + seconds(end_ms) +
         "&step=" + seconds(step_ms);
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

// Pins every range selector of a rule expression to one job, as a job
// owner's query must be: metric[w] becomes metric{uuid="$uuid"}[w].
std::string pin_to_job(const std::string& expr) {
  std::string out;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] == '[' && i > 0 &&
        (std::isalnum(static_cast<unsigned char>(expr[i - 1])) ||
         expr[i - 1] == '_')) {
      out += std::string("{uuid=\"") + kUuidVar + "\"}";
    }
    out += expr[i];
  }
  return out;
}

// The requests a dashboard renderer sends, captured by pointing a
// GrafanaClient at a local server that records each request and answers
// it with an empty result.
std::vector<ceems::http::Request> record_requests(
    const std::function<void(ceems::dashboard::GrafanaClient&)>& render) {
  std::mutex mu;
  std::vector<ceems::http::Request> seen;
  ceems::http::ServerConfig config;
  config.worker_threads = 1;
  ceems::http::Server server(config);
  server.set_default_handler([&](const ceems::http::Request& request) {
    std::lock_guard guard(mu);
    seen.push_back(request);
    bool prom = request.path().rfind("/api/v1/query", 0) == 0;
    return ceems::http::Response::json(
        200, prom ? R"({"status":"success","data":{"resultType":"matrix","result":[]}})"
                  : R"({"status":"success","data":[]})");
  });
  server.start();
  {
    ceems::dashboard::GrafanaClient client(server.base_url(),
                                           server.base_url(), "user");
    render(client);
  }  // closes the keep-alive connection, so stop() need not wait for it
  server.stop();
  return seen;
}

std::vector<PanelDef> panel_exprs(const ceems::common::Json& dashboard,
                                  PanelDef::Kind kind) {
  std::vector<PanelDef> out;
  for (const auto& panel : dashboard.at("panels").as_array()) {
    for (const auto& target : panel.at("targets").as_array())
      out.push_back({kind, target.at("expr").as_string()});
  }
  return out;
}

// Per view kind, the panel requests it sends, taken from the repository's
// dashboard code and definitions.
std::array<std::vector<PanelDef>, kViewKinds> dashboard_panels(
    int64_t long_range_window_ms) {
  namespace dash = ceems::dashboard;
  std::array<std::vector<PanelDef>, kViewKinds> views;
  auto& job = views[static_cast<int>(View::kJob)];
  auto& job_long = views[static_cast<int>(View::kJobLongRange)];
  auto& user = views[static_cast<int>(View::kUser)];
  // Fig. 2c: the range queries render_job_timeseries sends.
  for (const auto& request : record_requests([](dash::GrafanaClient& client) {
         dash::render_job_timeseries(client, kUuidVar, kPanelRangeMs,
                                     2 * kPanelRangeMs, kPanelStepMs);
       })) {
    job.push_back({PanelDef::kRange, request.query_params().at("query")});
  }
  views[static_cast<int>(View::kRefused)] = job;
  // Fig. 2a/2b: the API-server requests of the user dashboards, without
  // their time range (filled in per request).
  for (const auto& request : record_requests([](dash::GrafanaClient& client) {
         dash::render_user_aggregate_dashboard(client, 0, kPanelRangeMs);
         dash::render_user_job_list(client, 0, kPanelRangeMs);
       })) {
    std::string path = request.path();
    char separator = '?';
    for (const auto& [key, value] : request.query_params()) {
      if (key == "from" || key == "to") continue;
      path += separator + key + "=" + ceems::http::url_encode(value);
      separator = '&';
    }
    user.push_back({PanelDef::kApi, path});
  }
  // The operator dashboard has no renderer: one query per panel of its
  // Grafana provisioning JSON (etc/grafana/ceems-operator.json), sent as
  // an instant query of the cluster's current state, as an operator's
  // overview refresh asks for it.
  views[static_cast<int>(View::kOperator)] =
      panel_exprs(dash::operator_dashboard_json("lb"), PanelDef::kInstant);
  // The per-job long-range reports as a job's long-range panels. (The
  // cluster-wide reports are left to the rule engine: no dashboard shows
  // them.)
  auto window = ceems::common::format_duration_ms(long_range_window_ms);
  for (const auto& group : ceems::core::long_range_report_rules(window)) {
    for (const auto& rule : group.rules) {
      if (rule.record.rfind("report:job_", 0) == 0)
        job_long.push_back({PanelDef::kLongRange, pin_to_job(rule.expr)});
    }
  }
  return views;
}

}  // namespace

DashboardMix::DashboardMix(std::vector<DashJob> jobs, std::string admin_user,
                           int64_t long_range_window_ms)
    : jobs_(std::move(jobs)),
      admin_user_(std::move(admin_user)),
      long_range_window_ms_(long_range_window_ms),
      panels_(dashboard_panels(long_range_window_ms)) {
  double total = 0;
  for (std::size_t k = 0; k < jobs_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  double requests = 0;
  for (View view : kViewCycle)
    requests += static_cast<double>(panels(view).size());
  requests_per_view_ = requests / kViewsPerCycle;
}

const std::vector<PanelDef>& DashboardMix::panels(View view) const {
  return panels_[static_cast<int>(view)];
}

int DashboardMix::draw_job(ceems::common::Rng& rng) const {
  double u = rng.next_double();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) --it;
  return static_cast<int>(it - zipf_cdf_.begin());
}

void DashboardMix::add_view(ceems::common::Rng& rng, View view, int view_index,
                            double due_s, std::vector<Scheduled>& out) const {
  Scheduled base;
  base.due_s = due_s;
  base.view_index = view_index;
  base.job = draw_job(rng);
  base.admin = rng.chance(kAdminShare);
  switch (view) {
    case View::kOperator:
      base.admin = true;
      break;
    case View::kUser:
      base.admin = false;
      break;
    case View::kRefused:
      base.admin = false;
      for (int attempt = 0; attempt < 16; ++attempt) {
        int other = draw_job(rng);
        if (jobs_[other].project != jobs_[base.job].project) {
          base.other_job = other;
          break;
        }
      }
      if (base.other_job < 0) view = View::kJob;
      break;
    default:
      break;
  }
  base.view = view;
  for (std::size_t p = 0; p < panels(view).size(); ++p) {
    Scheduled item = base;
    item.panel = static_cast<int>(p);
    out.push_back(item);
  }
}

std::vector<Scheduled> DashboardMix::schedule(double rate, double duration_s,
                                              uint64_t seed) const {
  ceems::common::Rng rng(seed);
  std::vector<Scheduled> out;
  const double gap_s = requests_per_view_ / rate;  // views evenly spaced
  for (int view = 0;; ++view) {
    double due_s = (view + 0.5) * gap_s;
    if (due_s >= duration_s) break;
    add_view(rng, kViewCycle[view % kViewsPerCycle], view, due_s, out);
  }
  return out;
}

DashRequest DashboardMix::render(const Scheduled& item, int64_t now_ms) const {
  const DashJob& job =
      jobs_[item.view == View::kRefused ? item.other_job : item.job];
  const PanelDef& panel = panels(item.view)[item.panel];
  DashRequest req;
  req.user = item.admin ? admin_user_ : jobs_[item.job].user;
  if (item.view == View::kRefused) req.expect_status = 403;

  if (panel.kind == PanelDef::kApi) {
    req.via_lb = false;
    req.target = panel.text +
                 (panel.text.find('?') == std::string::npos ? "?" : "&") +
                 "from=" + std::to_string(now_ms - kPanelRangeMs) +
                 "&to=" + std::to_string(now_ms);
    return req;
  }
  bool per_job = panel.text.find(kUuidVar) != std::string::npos;
  req.query = replace_all(panel.text, kUuidVar, job.uuid);
  if (per_job && !item.admin) req.uuid = job.uuid;
  if (panel.kind == PanelDef::kInstant) {
    // Whole seconds, so the time parameter parses back to exactly time_ms.
    req.time_ms = now_ms - now_ms % 1000;
    req.target = "/api/v1/query?query=" + ceems::http::url_encode(req.query) +
                 "&time=" + seconds(req.time_ms);
    return req;
  }
  // Long-range reports tile the timeline on their window's grid, so the
  // ladder can answer them from whole buckets.
  req.step_ms =
      panel.kind == PanelDef::kLongRange ? long_range_window_ms_ : kPanelStepMs;
  req.is_range = true;
  req.end_ms = align_down(now_ms, req.step_ms);
  req.start_ms = req.end_ms - kPanelRangeMs;
  req.target = range_target(req.query, req.start_ms, req.end_ms, req.step_ms);
  return req;
}

double DashboardMix::repeated_key_share(const std::vector<Scheduled>& items,
                                        int64_t now_ms) const {
  std::set<std::string> seen;
  std::size_t ranges = 0;
  std::size_t repeats = 0;
  for (const auto& item : items) {
    DashRequest req = render(item, now_ms);
    if (!req.is_range || req.expect_status != 200) continue;
    ++ranges;
    if (!seen.insert(req.target).second) ++repeats;
  }
  return ranges ? static_cast<double>(repeats) / static_cast<double>(ranges)
                : 0;
}

}  // namespace stackbench
