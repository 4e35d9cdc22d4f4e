// The dashboard request mix and its open-loop schedule.
//
// Every view sends the requests of a dashboard the repository defines
// itself: those the Fig. 2 renderers in src/dashboard/ceems_dashboards.cpp
// send (recorded once at start-up), one per panel of the operator
// dashboard's Grafana JSON (src/dashboard/grafana_export.cpp, provisioned
// under etc/grafana), and the per-job long-range reports of
// src/core/rules_library.cpp. What the repository does not define is how
// often each view is opened, by whom and for which job: those shares, the
// admin share and the Zipf skew of job popularity are assumptions of this
// benchmark, stated where they are set.
//
// Jobs are drawn Zipf-skewed, so the same panels repeat (Grafana
// refreshes) while the tail holds far more distinct keys than the
// backends' 128-entry query caches. A small share of views asks for a job
// of another user in another project (project members may see each
// other's units); the LB must answer those with 403.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace stackbench {

struct DashJob {
  std::string uuid;
  std::string user;
  std::string project;
};

enum class View {
  kJob,           // Fig. 2c: render_job_timeseries for one job
  kJobLongRange,  // the per-job long-range report rules, aligned
  kOperator,      // the ceems-operator dashboard, as instant queries
  kUser,          // Fig. 2a/2b on the API server
  kRefused,       // a job owner opens another project's job: all 403
};
inline constexpr int kViewKinds = 5;

// One panel request, before the job and time are filled in.
struct PanelDef {
  enum Kind { kRange, kLongRange, kInstant, kApi };
  Kind kind = kRange;
  std::string text;  // PromQL (job views: with $uuid) or an API path
};

// One scheduled request: when it is due (seconds after the phase start)
// and what it asks for. The target is rendered at send time, so on a live
// store Grafana's "now" follows the simulated clock.
struct Scheduled {
  double due_s = 0;
  View view = View::kJob;
  int panel = 0;       // index into the view's panels
  int view_index = 0;  // running number of the view within its phase
  int job = 0;         // index into the job list
  int other_job = -1;  // kRefused: the job asked for
  bool admin = false;
};

// A rendered request.
struct DashRequest {
  bool via_lb = true;  // PromQL through the LB, else the API server
  std::string target;  // path + query string
  std::string user;
  int expect_status = 200;
  bool is_range = false;  // cacheable PromQL range query
  std::string query;      // PromQL text (empty for API requests)
  std::string uuid;       // unit referenced by a non-admin query
  int64_t time_ms = 0;    // instant queries: evaluation time, ms
  int64_t start_ms = 0;   // range queries: range, ms
  int64_t end_ms = 0;
  int64_t step_ms = 0;
};

class DashboardMix {
 public:
  // Assumed, not measured: job popularity falls off as rank^-1.1, and a
  // quarter of job and long-range views are opened by an admin rather
  // than the job's owner.
  static constexpr double kZipfExponent = 1.1;
  static constexpr double kAdminShare = 0.25;

  // `long_range_window_ms`: the window of the long-range reports.
  DashboardMix(std::vector<DashJob> jobs, std::string admin_user,
               int64_t long_range_window_ms);

  // Evenly spaced views for `duration_s` seconds at `rate` requests/s;
  // the requests of one view share its due time.
  std::vector<Scheduled> schedule(double rate, double duration_s,
                                  uint64_t seed) const;

  DashRequest render(const Scheduled& item, int64_t now_ms) const;

  // Share of range requests whose cache key appeared earlier in `items`.
  double repeated_key_share(const std::vector<Scheduled>& items,
                            int64_t now_ms) const;

  std::size_t job_count() const { return jobs_.size(); }

 private:
  void add_view(ceems::common::Rng& rng, View view, int view_index,
                double due_s, std::vector<Scheduled>& out) const;
  int draw_job(ceems::common::Rng& rng) const;
  const std::vector<PanelDef>& panels(View view) const;

  std::vector<DashJob> jobs_;
  std::string admin_user_;
  int64_t long_range_window_ms_;
  std::array<std::vector<PanelDef>, kViewKinds> panels_;
  double requests_per_view_ = 1;
  std::vector<double> zipf_cdf_;
};

}  // namespace stackbench
