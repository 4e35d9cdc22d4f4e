// stackbench — end-to-end and per-layer benchmark of a whole
// core::CeemsStack (the paper's 1400-node Jean-Zay deployment) in one
// process.
//
//   stackbench --workload generation|mixed --seed N --seconds S
//              --trace 0|1 [--out-dir DIR]
//
// A run alternates write and read segments. Write: the closed generation
// loop (sim step, then pipeline_step_forced() plus any due checkpoint, the
// updater every 2nd generation). Read: the dashboard mix (mix.h: the
// repository's own Grafana dashboards and long-range reports) through the
// LB and the API server over real HTTP, open loop at the fixed `low`
// and `high` rates, then 4 closed-loop keep-alive clients. The bounded
// read-side metric is view latency: from a view's due time until the last
// of its panel requests is answered, the time a Grafana user waits for a
// dashboard to load.
//
//   generation  reads run between write segments, on a frozen store:
//               the write path runs uncontended, and repeated dashboard
//               keys hit the backends' query caches.
//   mixed       the `low` phase runs during the write segments on the live
//               store, and nothing reads the frozen one: every generation
//               invalidates the query caches, so reads take the miss path
//               while sharing cores and shard locks with appends and rules.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// seed with one load-generator thread, calls the generation stages one by
// one under spans, probes each read layer in-process, and prints the
// per-layer metrics. Spans are kept in memory and written to
// <out-dir>/spans-<workload>-seed<N>.json at exit. Every run checks its
// outputs; the last stdout line is the result object, the line before it
// a report (host context, sample counts, generator health, checks).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apiserver/schema.h"
#include "common/logging.h"
#include "common/rng.h"
#include "deployment.h"
#include "http/client.h"
#include "lb/query_introspect.h"
#include "loadgen.h"
#include "mix.h"
#include "spans.h"
#include "tsdb/chunk.h"
#include "tsdb/http_api.h"
#include "tsdb/promql_eval.h"
#include "util.h"

namespace stackbench {
namespace {

using ceems::common::kMillisPerMinute;

// The paper's Jean-Zay deployment.
constexpr int kNodes = 1400;
// Simulator-only warm-up, so the job mix is near steady state before the
// stack starts, and untimed generations before the first timed one (two,
// so rate() windows hold two samples).
constexpr int64_t kPrewarmMs = 60 * kMillisPerMinute;
constexpr int kWarmGenerations = 2;
// The monitored cluster, its job stream and the jobs' popularity ranking
// are a fixed fixture (seed 42, the repository's convention). --seed
// drives the Grafana traffic on top of it (which job each view opens, and
// who opens it), so run-to-run spread measures the stack rather than how
// many series one sampled job stream, or its most popular job, happens to
// have.
constexpr uint64_t kClusterSeed = 42;

// Fixed open-loop request rates (requests/s), so later changes are
// measured against the same load. `low` is sustainable on the live store
// while generations run (mixed), also when the shared host slows: over 10
// seeds at 20/s, mixed's view latency and updater time grew 1.6x where its
// generations slowed 1.4x (view p90 ~320 ms); at 10/s their quartile
// spreads stayed near the generations' own (0.12 and 0.12 vs 0.11).
// `high` is the highest of 50, 60 and 70
// at which a seed run (generation, seed 7, 32 s) kept the frozen store's
// p99 under the 100 ms panel limit with no growing backlog: 60 gave p99
// 98 ms, 70 gave 120 ms. That p99 rests on ~200 requests sent in bursts of
// one view's panels, so it is noisy: the low phase's p99 ranged from 70 to
// 103 ms over the same three runs.
constexpr double kLowRate = 10;
constexpr double kHighRate = 60;
// Client threads of the low phase. At 10/s a request is in flight about
// a third of the time, so two keep-alive connections carry it; four
// put more query evaluations at once on the 4 vCPUs than the phase needs,
// and on mixed at 20/s their bursts made the updater's times spread more
// (quartile spread of its median time over 5 seeds: 0.14-0.17 in three
// sets with four, 0.06-0.12 in two with two). The high phase keeps four,
// as its rate was searched with.
constexpr int kLowThreads = 2;
constexpr int kClosedClients = 4;
constexpr double kPanelLimitMs = 100;
// A failed request counts as missing every latency limit.
constexpr double kFailedLatencyMs = 60000;
constexpr const char* kAdmin = "admin";
constexpr std::size_t kMaxProbes = 120;
// Oracle checks per read segment: distinct responses checked against the
// raw evaluator, and every how many PromQL ones of those also against the
// per-step one (see check_against_oracle).
constexpr std::size_t kOracleLimit = 50;
constexpr std::size_t kPerStepEvery = 25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// A run alternates write and read segments, kSegmentPairs times, so each
// metric samples several stretches of the run rather than one: the shared
// host's interference comes in bursts of seconds. Shares are of --seconds.
constexpr int kSegmentPairs = 2;
// Wall time of one loop iteration (sim step, generation, every 2nd one an
// update) on the 4-vCPU host the benchmark was tuned on; sets how many
// generations a write segment's share of --seconds holds.
constexpr double kLoopIterationS = 1.6;

struct WorkloadSpec {
  bool valid = false;
  // The low phase runs during the write segments, on the live store, and
  // there are no reads of the frozen store.
  bool concurrent_low = false;
  double write_share = 0;  // per write segment
  double low_share = 0, high_share = 0, closed_share = 0;  // per read one
};

// generation gives its read segments' time mostly to the low phase: its
// view-latency median, a bounded metric, rests on ~30 views per segment.
// The high and closed phases are reported only. mixed, with no
// read segments, spends the time on more generations, for more
// update_api() calls under load: their mean time is its noisiest metric.
WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec spec;
  if (name == "generation") {
    spec = {true, false, 0.35, 0.3, 0.025, 0.0125};
  } else if (name == "mixed") {
    spec = {true, true, 0.5, 0, 0, 0};
  }
  return spec;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ read side

// One observed response per distinct (endpoint, user, target), kept to
// check repeats against the first answer and every answer against the
// in-process oracle once the store stops changing.
struct Observed {
  DashRequest request;
  int status = 0;
  std::string body;
};

struct PhaseStats {
  std::string name;
  std::vector<double> latency_ms;
  // Per view whose requests were all sent: due time to its last answer.
  std::vector<double> view_ms;
  std::vector<double> lag_ms;
  std::size_t backlog = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double duration_s = 0;
  double rate = 0;
};

// Per-layer counters gathered by traced requests.
struct ReadTrace {
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

uint64_t select_calls(const ceems::tsdb::LongTermSelectStats& s) {
  uint64_t calls = s.raw_selects + s.agg_rejects;
  for (auto hits : s.level_hits) calls += hits;
  return calls;
}

uint64_t points_scanned(const ceems::tsdb::LongTermSelectStats& s) {
  uint64_t points = s.raw_points_scanned;
  for (auto p : s.level_points_scanned) points += p;
  return points;
}

uint64_t ladder_hits(const ceems::tsdb::LongTermSelectStats& s) {
  uint64_t hits = 0;
  for (auto h : s.level_hits) hits += h;
  return hits;
}

class Reader {
 public:
  Reader(Deployment& deployment, const DashboardMix& mix, SpanRecorder& spans)
      : deployment_(deployment),
        mix_(mix),
        spans_(spans),
        lb_url_(deployment.stack().lb_url()),
        api_url_(deployment.stack().api_url()) {}

  // Fresh keep-alive clients (one per load thread and endpoint) per phase.
  // A client retries a transport error once, as a browser does when the
  // server has closed an idle keep-alive connection (after 5 s); retries
  // are counted and reported.
  void reset_clients(int threads) {
    close_clients();
    ceems::http::ClientConfig config;
    config.retry.max_retries = 1;
    config.retry.retry_on_status = false;
    for (int t = 0; t < threads; ++t) {
      lb_clients_.push_back(std::make_unique<ceems::http::Client>(config));
      api_clients_.push_back(std::make_unique<ceems::http::Client>(config));
    }
  }

  void close_clients() {
    for (const auto* clients : {&lb_clients_, &api_clients_}) {
      for (const auto& client : *clients) retries_ += client->stats().retries;
    }
    lb_clients_.clear();
    api_clients_.clear();
  }

  uint64_t client_retries() const { return retries_; }

  // Sends one request; returns true when the status is the expected one.
  // `log`: record the response for the repeat/oracle checks.
  // `traced`: snapshot store counters around the call (one load thread).
  bool send(int thread, const Scheduled& item, bool log, bool traced,
            std::mutex* serialize) {
    DashRequest req = mix_.render(item, deployment_.now_ms());
    std::unique_lock<std::mutex> lock;
    if (serialize) lock = std::unique_lock<std::mutex>(*serialize);
    auto& longterm = *deployment_.stack().longterm();
    uint64_t calls_before = 0;
    uint64_t request_id = next_request_.fetch_add(1);
    SpanRecorder& spans = traced ? spans_ : untraced_;
    SpanRecorder::Scope root(spans, "request", 0, request_id);
    if (traced) calls_before = select_calls(longterm.select_stats());
    ceems::http::FetchResult result;
    {
      SpanRecorder::Scope span(spans, req.via_lb ? "http.lb" : "http.api",
                               root.id(), request_id);
      ceems::http::HeaderMap headers;
      headers[ceems::apiserver::kGrafanaUserHeader] = req.user;
      auto& client = req.via_lb ? *lb_clients_[thread] : *api_clients_[thread];
      result = client.get((req.via_lb ? lb_url_ : api_url_) + req.target,
                          headers);
    }
    int status = result.ok ? result.response.status : 0;
    if (traced && req.via_lb && req.is_range && status == 200) {
      std::lock_guard guard(trace_mu_);
      ++trace_.cache_lookups;
      if (select_calls(longterm.select_stats()) == calls_before)
        ++trace_.cache_hits;
    }
    if (lock.owns_lock()) lock.unlock();
    bool ok = status == req.expect_status;
    if (!ok && unexpected_.fetch_add(1) < 3) {
      std::fprintf(stderr, "unexpected status %d (%s) for %s %s\n", status,
                   result.error.c_str(), req.user.c_str(), req.target.c_str());
    }
    if (log) record(req, status, result.response.body);
    return ok;
  }

  // Open-loop phase: `threads` clients, each request timed from its due
  // time. `traced` traces views in alternate pairs (one thread): all
  // requests of a view share a due time and queue behind each other, so a
  // view is traced or not as a whole. Job views fill the even places of
  // the mix's cycle, so pairs split them evenly; tracing overhead is
  // measured on those.
  PhaseStats open_phase(const std::string& name,
                        const std::vector<Scheduled>& schedule, double rate,
                        int threads, bool log, bool traced,
                        std::mutex* serialize = nullptr,
                        const std::atomic<bool>* stop = nullptr) {
    reset_clients(threads);
    std::vector<char> ok(schedule.size(), 0);
    auto result = run_open_loop(
        schedule, threads,
        [&](int thread, std::size_t i) {
          ok[i] = send(thread, schedule[i], log,
                       traced && traced_view(schedule[i]), serialize);
        },
        stop);
    PhaseStats stats;
    stats.name = name;
    stats.rate = rate;
    stats.backlog = result.backlog;
    stats.duration_s = result.duration_s;
    // A view's requests are adjacent in the schedule; a view counts when
    // all of them were sent.
    double view_ms = 0;
    bool view_sent = true;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      double latency = ok[i] ? result.outcomes[i].latency_ms : kFailedLatencyMs;
      if (result.sent[i]) {
        ++stats.attempted;
        if (!ok[i]) ++stats.failed;
        stats.latency_ms.push_back(latency);
        stats.lag_ms.push_back(result.outcomes[i].lag_ms);
        view_ms = std::max(view_ms, latency);
        if (traced && name == "low" && schedule[i].view == View::kJob) {
          auto& bucket =
              traced_view(schedule[i]) ? trace_.traced_ms : trace_.untraced_ms;
          bucket.push_back(latency);
        }
      }
      view_sent = view_sent && result.sent[i];
      if (i + 1 == schedule.size() ||
          schedule[i + 1].view_index != schedule[i].view_index) {
        if (view_sent) stats.view_ms.push_back(view_ms);
        view_ms = 0;
        view_sent = true;
      }
    }
    close_clients();
    return stats;
  }

  static bool traced_view(const Scheduled& item) {
    return (item.view_index / 2) % 2 == 0;
  }

  // Closed loop: `threads` keep-alive clients back to back.
  PhaseStats closed_phase(const std::vector<Scheduled>& sequence, int threads,
                          double duration_s, bool log) {
    reset_clients(threads);
    std::atomic<std::size_t> failed{0};
    auto result = run_closed_loop(
        sequence.size(), threads, duration_s, [&](int thread, std::size_t i) {
          if (!send(thread, sequence[i], log, false, nullptr)) ++failed;
        });
    close_clients();
    PhaseStats stats;
    stats.name = "closed";
    stats.attempted = result.completed;
    stats.failed = failed.load();
    stats.duration_s = result.duration_s;
    return stats;
  }

  void record(const DashRequest& req, int status, const std::string& body) {
    std::string key = std::string(req.via_lb ? "lb " : "api ") + req.user +
                      " " + req.target;
    std::lock_guard guard(log_mu_);
    auto [it, inserted] = observed_.try_emplace(key);
    if (inserted) {
      it->second.request = req;
      it->second.status = status;
      it->second.body = body;
    } else if (it->second.status != status || it->second.body != body) {
      ++repeat_mismatches_;
    }
  }

  const std::map<std::string, Observed>& observed() const { return observed_; }
  std::size_t repeat_mismatches() const { return repeat_mismatches_; }
  const ReadTrace& trace() const { return trace_; }
  void clear_log() {
    observed_.clear();
    repeat_mismatches_ = 0;
  }

 private:
  Deployment& deployment_;
  const DashboardMix& mix_;
  SpanRecorder& spans_;
  SpanRecorder untraced_{false};
  std::string lb_url_;
  std::string api_url_;
  std::vector<std::unique_ptr<ceems::http::Client>> lb_clients_;
  std::vector<std::unique_ptr<ceems::http::Client>> api_clients_;
  uint64_t retries_ = 0;
  std::atomic<uint64_t> unexpected_{0};
  std::atomic<uint64_t> next_request_{1ULL << 40};
  std::mutex log_mu_;
  std::map<std::string, Observed> observed_;
  std::size_t repeat_mismatches_ = 0;
  std::mutex trace_mu_;
  ReadTrace trace_;
};

// Expected answer for a request, computed in-process without any cache.
// PromQL: kPerStep is the per-step reference evaluator (no streaming, no
// resolution ladder); kRaw streams each selector once but still reads raw
// samples only (kept bit-identical to kPerStep by the repository's
// promql_differential_test); kPlanner uses the backends' own settings.
// API requests go through the API server's own handler.
class Oracle {
 public:
  enum Engine { kPerStep, kRaw, kPlanner };

  explicit Oracle(Deployment& deployment)
      : deployment_(deployment),
        per_step_(deployment.stack().longterm(), deployment.sim().clock(),
                  options(false, false)),
        raw_(deployment.stack().longterm(), deployment.sim().clock(),
             options(true, false)),
        planner_(deployment.stack().longterm(), deployment.sim().clock(),
                 options(true, true)) {}

  ceems::http::Response answer(const DashRequest& req, Engine engine) const {
    ceems::http::Request request;
    request.method = "GET";
    request.target = req.target;
    request.headers[ceems::apiserver::kGrafanaUserHeader] = req.user;
    const auto& prom = engine == kPerStep ? per_step_
                       : engine == kRaw   ? raw_
                                          : planner_;
    std::string path = request.path();
    if (path == "/api/v1/query") return prom.handle_query(request);
    if (path == "/api/v1/query_range") return prom.handle_query_range(request);
    auto& api = deployment_.stack().api_server();
    if (path == "/api/v1/units") return api.handle_units(request);
    return api.handle_usage(request);
  }

 private:
  static ceems::tsdb::promql::EngineOptions options(bool streaming,
                                                    bool ladder) {
    ceems::tsdb::promql::EngineOptions options;
    options.streaming_range = streaming;
    options.resolution_aware = ladder;
    options.query_cache_capacity = 0;
    return options;
  }

  Deployment& deployment_;
  ceems::tsdb::PromApi per_step_;
  ceems::tsdb::PromApi raw_;
  ceems::tsdb::PromApi planner_;
};

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

// True when two JSON bodies differ only in quoted sample values, each
// pair within a floating-point regrouping of each other (relative 1e-9).
bool regrouping_equal(const std::string& a, const std::string& b) {
  auto split = [](const std::string& s) {
    std::vector<std::string> parts(1);
    for (char ch : s) {
      if (ch == '"') parts.emplace_back();
      else parts.back() += ch;
    }
    return parts;
  };
  auto pa = split(a);
  auto pb = split(b);
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] == pb[i]) continue;
    double x = 0, y = 0;
    if (i % 2 == 0 || !parse_number(pa[i], x) || !parse_number(pb[i], y))
      return false;
    if (std::fabs(x - y) > 1e-9 * std::max(std::fabs(x), std::fabs(y)))
      return false;
  }
  return true;
}

struct OracleCheck {
  std::size_t distinct = 0;
  std::size_t checked = 0;   // against the raw streaming evaluator
  std::size_t per_step = 0;  // of those, also against the per-step one
  std::size_t mismatches = 0;
  // Ladder-served sums/averages/increases: identical to the planner's own
  // answer and a floating-point regrouping of the raw answer (the
  // guarantee DESIGN.md section 10 documents for non-integer data).
  std::size_t regrouped = 0;
};

// Checks logged responses: up to `limit` distinct ones (evenly spaced over
// the log) against the raw evaluator, and every `per_step_every`-th PromQL
// one of those also against the per-step reference, which costs one store
// select per step.
OracleCheck check_against_oracle(Deployment& deployment,
                                 const std::map<std::string, Observed>& log,
                                 std::size_t limit,
                                 std::size_t per_step_every) {
  std::vector<const std::pair<const std::string, Observed>*> entries;
  for (const auto& entry : log) entries.push_back(&entry);
  if (entries.size() > limit) {
    std::vector<const std::pair<const std::string, Observed>*> sample;
    for (std::size_t i = 0; i < limit; ++i)
      sample.push_back(entries[i * entries.size() / limit]);
    entries = std::move(sample);
  }
  Oracle oracle(deployment);
  OracleCheck out;
  out.distinct = log.size();
  out.checked = entries.size();
  std::size_t promql_checked = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, seen] = *entries[i];
    if (seen.request.expect_status != 200) {
      if (seen.status != seen.request.expect_status) ++out.mismatches;
      continue;
    }
    std::vector<Oracle::Engine> references = {Oracle::kRaw};
    if (seen.request.via_lb && promql_checked++ % per_step_every == 0) {
      references.push_back(Oracle::kPerStep);
      ++out.per_step;
    }
    bool regrouped = false;
    bool ok = true;
    for (auto engine : references) {
      auto expected = oracle.answer(seen.request, engine);
      if (expected.status == seen.status && expected.body == seen.body)
        continue;
      if (expected.status == seen.status &&
          oracle.answer(seen.request, Oracle::kPlanner).body == seen.body &&
          regrouping_equal(seen.body, expected.body)) {
        regrouped = true;
        continue;
      }
      ok = false;
    }
    if (!ok) {
      if (out.mismatches < 3) {
        std::fprintf(stderr, "oracle mismatch: %s (status %d)\n", key.c_str(),
                     seen.status);
      }
      ++out.mismatches;
    } else if (regrouped) {
      ++out.regrouped;
    }
  }
  return out;
}

std::string describe(const OracleCheck& oc) {
  return std::to_string(oc.checked) + " of " + std::to_string(oc.distinct) +
         " distinct checked (" + std::to_string(oc.per_step) +
         " also per-step), " +
         std::to_string(oc.regrouped) + " ladder-regrouped, " +
         std::to_string(oc.mismatches) + " mismatched";
}

// Jobs with power series in the long-term store over the last 30 min,
// with their owners from the units DB, in Zipf rank order: a fixed
// shuffle, part of the fixture.
std::vector<DashJob> collect_jobs(Deployment& deployment) {
  ceems::tsdb::promql::EngineOptions options;
  options.query_cache_capacity = 0;
  ceems::tsdb::promql::Engine engine(options);
  auto value = engine.eval(
      *deployment.stack().longterm(),
      "count by (uuid) (count_over_time(ceems_job_power_watts[30m]))",
      deployment.now_ms());
  std::vector<DashJob> jobs;
  for (const auto& sample : value.vector) {
    auto uuid = sample.labels.get("uuid");
    if (!uuid) continue;
    auto row = deployment.stack().db().get(ceems::apiserver::kUnitsTable,
                                           ceems::reldb::Value(std::string(*uuid)));
    if (!row) continue;
    auto unit = ceems::apiserver::unit_from_row(*row);
    jobs.push_back({unit.uuid, unit.user, unit.project});
  }
  ceems::common::Rng rng(kClusterSeed ^ 0x5EEDF00DULL);
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int64_t>(i) - 1));
    std::swap(jobs[i - 1], jobs[j]);
  }
  return jobs;
}

// In-process probes of each read layer on the distinct requests of a
// traced phase (cache off for the engine; cache hits for the LB proxy).
struct ProbeStats {
  std::vector<double> engine_ms, backend_ms, proxy_lb_ms, proxy_direct_ms,
      introspect_us, verify_us, units_ms, usage_ms;
  std::vector<double> decoded, points, ladder;
};

ProbeStats probe_layers(Deployment& deployment, const DashboardMix& mix,
                        const std::vector<Scheduled>& schedule,
                        SpanRecorder& spans) {
  ProbeStats out;
  auto& stack = deployment.stack();
  auto& longterm = *stack.longterm();
  ceems::tsdb::promql::EngineOptions options;
  options.query_cache_capacity = 0;
  ceems::tsdb::promql::Engine engine(options);
  auto backends = stack.query_backend_urls();
  ceems::http::Client direct0, direct1, via_lb;
  std::set<std::string> seen;
  uint64_t request_id = 1ULL << 50;
  for (const auto& item : schedule) {
    if (seen.size() >= kMaxProbes) break;
    DashRequest req = mix.render(item, deployment.now_ms());
    if (req.expect_status != 200 || !seen.insert(req.user + req.target).second)
      continue;
    ++request_id;
    SpanRecorder::Scope root(spans, "probe", 0, request_id);
    ceems::http::HeaderMap headers;
    headers[ceems::apiserver::kGrafanaUserHeader] = req.user;
    if (!req.via_lb) {
      ceems::http::Request request;
      request.method = "GET";
      request.target = req.target;
      request.headers = headers;
      bool units = request.path() == "/api/v1/units";
      SpanRecorder::Scope span(spans, units ? "apiserver.units" : "apiserver.usage",
                               root.id(), request_id);
      auto t0 = SteadyClock::now();
      auto response = units ? stack.api_server().handle_units(request)
                            : stack.api_server().handle_usage(request);
      (units ? out.units_ms : out.usage_ms)
          .push_back(ms_between(t0, SteadyClock::now()));
      (void)response;
      continue;
    }
    {
      auto stats0 = longterm.select_stats();
      uint64_t d0 = ceems::tsdb::chunk_decode_count();
      SpanRecorder::Scope span(spans, "engine.eval", root.id(), request_id);
      auto t0 = SteadyClock::now();
      if (req.is_range) {
        auto result = engine.eval_range(longterm, req.query, req.start_ms,
                                        req.end_ms, req.step_ms);
        (void)result;
      } else {
        auto result = engine.eval(longterm, req.query, req.time_ms);
        (void)result;
      }
      out.engine_ms.push_back(ms_between(t0, SteadyClock::now()));
      auto stats1 = longterm.select_stats();
      out.decoded.push_back(
          static_cast<double>(ceems::tsdb::chunk_decode_count() - d0));
      out.points.push_back(
          static_cast<double>(points_scanned(stats1) - points_scanned(stats0)));
      out.ladder.push_back(
          static_cast<double>(ladder_hits(stats1) - ladder_hits(stats0)));
    }
    {
      SpanRecorder::Scope span(spans, "lb.introspect", root.id(), request_id);
      auto t0 = SteadyClock::now();
      auto result = ceems::lb::introspect_query(req.query);
      out.introspect_us.push_back(ms_between(t0, SteadyClock::now()) * 1000);
      (void)result;
    }
    if (!req.uuid.empty()) {
      SpanRecorder::Scope span(spans, "lb.verify", root.id(), request_id);
      auto t0 = SteadyClock::now();
      bool owner = stack.api_server().verify_ownership(req.user, req.uuid);
      out.verify_us.push_back(ms_between(t0, SteadyClock::now()) * 1000);
      (void)owner;
    }
    {
      SpanRecorder::Scope span(spans, "backend.http", root.id(), request_id);
      auto t0 = SteadyClock::now();
      direct0.get(backends[0] + req.target, headers);
      out.backend_ms.push_back(ms_between(t0, SteadyClock::now()));
    }
    if (req.is_range) {
      // Warm every backend's cache, then time a direct hit and an LB hit.
      for (std::size_t b = 1; b < backends.size(); ++b)
        direct1.get(backends[b] + req.target, headers);
      auto t0 = SteadyClock::now();
      direct0.get(backends[0] + req.target, headers);
      auto t1 = SteadyClock::now();
      {
        SpanRecorder::Scope span(spans, "lb.http", root.id(), request_id);
        via_lb.get(stack.lb_url() + req.target, headers);
      }
      auto t2 = SteadyClock::now();
      out.proxy_direct_ms.push_back(ms_between(t0, t1));
      out.proxy_lb_ms.push_back(ms_between(t1, t2));
    }
  }
  return out;
}

// `count` requests cycling through `pool` in a fresh seeded order per
// pass, so closed-loop clients keep the open-loop mix and key popularity
// and add no new distinct keys.
std::vector<Scheduled> cycle_through(const std::vector<Scheduled>& pool,
                                     std::size_t count, uint64_t seed) {
  ceems::common::Rng rng(seed);
  std::vector<Scheduled> out;
  std::vector<Scheduled> pass = pool;
  while (out.size() < count && !pass.empty()) {
    for (std::size_t i = pass.size() - 1; i > 0; --i) {
      std::swap(pass[i], pass[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<int64_t>(i)))]);
    }
    out.insert(out.end(), pass.begin(), pass.end());
  }
  return out;
}

// ------------------------------------------------------------ the run

struct WriteStats {
  std::vector<GenRecord> gens;
  std::size_t hot_gained = 0;       // hot-store samples over the phase
  std::size_t longterm_gained = 0;  // long-term raw samples over the phase
};

void merge(PhaseStats& into, const PhaseStats& part) {
  into.name = part.name;
  into.rate = part.rate;
  into.latency_ms.insert(into.latency_ms.end(), part.latency_ms.begin(),
                         part.latency_ms.end());
  into.view_ms.insert(into.view_ms.end(), part.view_ms.begin(),
                      part.view_ms.end());
  into.lag_ms.insert(into.lag_ms.end(), part.lag_ms.begin(), part.lag_ms.end());
  into.backlog = std::max(into.backlog, part.backlog);
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.duration_s += part.duration_s;
}

struct RunResult {
  std::vector<Metric> metrics;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> checks;  // "name=ok|FAIL detail"
  std::vector<std::string> notes;   // reported, not gating
};

void check(RunResult& result, const std::string& name, bool ok,
           const std::string& detail = "") {
  if (!ok) result.correct = false;
  result.checks.push_back(name + (ok ? "=ok" : "=FAIL") +
                          (detail.empty() ? "" : " " + detail));
}

std::string value_json(const ceems::tsdb::promql::Value& value) {
  return ceems::tsdb::value_to_json(value).dump();
}

// Untimed durability check: power-cut the run's durable directory, open a
// fresh DurableTsdb on it and compare it with the live hot store.
void check_durability(Deployment& deployment, RunResult& result) {
  auto& stack = deployment.stack();
  deployment.durable_dir()->crash();
  auto recovered = std::make_shared<ceems::tsdb::TimeSeriesStore>();
  ceems::tsdb::DurableTsdb durable(recovered, deployment.durable_dir());
  auto opened = durable.open();
  auto live = stack.hot_store()->stats();
  auto back = recovered->stats();
  ceems::tsdb::promql::EngineOptions options;
  options.query_cache_capacity = 0;
  ceems::tsdb::promql::Engine engine(options);
  bool same_query = true;
  for (const char* query :
       {"sum by (nodegroup) (ceems_ipmi_dcmi_current_watts)",
        "count(ceems_job_power_watts)",
        "sum(rate(ceems_compute_unit_cpu_usage_seconds_total[2m]))"}) {
    same_query &= value_json(engine.eval(*stack.hot_store(), query,
                                         deployment.now_ms())) ==
                  value_json(engine.eval(*recovered, query, deployment.now_ms()));
  }
  // The loop checkpointed, so recovery restores a snapshot and replays the
  // WAL written after it.
  check(result, "durability_recovered",
        live.num_series == back.num_series &&
            live.num_samples == back.num_samples && same_query &&
            opened.snapshot_samples > 0 && opened.replay.samples_appended > 0,
        "series " + std::to_string(live.num_series) + "/" +
            std::to_string(back.num_series) + " samples " +
            std::to_string(live.num_samples) + "/" +
            std::to_string(back.num_samples) + " (snapshot " +
            std::to_string(opened.snapshot_samples) + " + WAL " +
            std::to_string(opened.replay.samples_appended) + ")");
}

// The long-term store must answer ceems_job_power_watts like the hot one.
void check_longterm_matches_hot(Deployment& deployment, RunResult& result) {
  ceems::tsdb::promql::EngineOptions options;
  options.query_cache_capacity = 0;
  ceems::tsdb::promql::Engine engine(options);
  auto& stack = deployment.stack();
  bool same = true;
  for (const char* query :
       {"ceems_job_power_watts", "sum by (nodegroup) (ceems_job_power_watts)"}) {
    same &= value_json(engine.eval(*stack.hot_store(), query,
                                   deployment.now_ms())) ==
            value_json(engine.eval(*stack.longterm(), query,
                                   deployment.now_ms()));
  }
  check(result, "longterm_matches_hot", same);
}

class Runner {
 public:
  Runner(Args args, SteadyClock::time_point process_start)
      : args_(std::move(args)),
        spec_(spec_for(args_.workload)),
        process_start_(process_start),
        spans_(args_.trace) {}

  int run();

 private:
  std::pair<double, double> write_segment(int generations,
                                          std::mutex* serialize,
                                          WriteStats& write);
  void replay_check(Reader& reader, const std::vector<Scheduled>& schedule,
                    double from_s, double to_s);
  void add_write_metrics(const WriteStats& write);
  void add_trace_metrics(const WriteStats& write, const PhaseStats& low,
                         const ProbeStats& probes, const Reader& reader);
  void count_phase(const PhaseStats& phase);
  std::string context_json() const;
  void emit(const std::vector<PhaseStats>& phases, const WriteStats& write,
            double repeated_share, std::size_t jobs);

  // Progress on stderr: where a run spends its wall time.
  void step(const char* what) const {
    std::fprintf(stderr, "[stackbench %7.2f s] %s\n",
                 seconds_since(process_start_), what);
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back({name, value, unit});
  }

  Args args_;
  WorkloadSpec spec_;
  SteadyClock::time_point process_start_;
  SpanRecorder spans_;
  std::unique_ptr<Deployment> deployment_;
  RunResult result_;
  double setup_s_ = 0;
  uint64_t client_retries_ = 0;
};

// Runs one write segment of `generations` generations; returns when its
// last generation began and when the segment ended, in seconds after it
// started.
std::pair<double, double> Runner::write_segment(int generations, std::mutex* serialize,
                             WriteStats& write) {
  auto& stack = deployment_->stack();
  std::size_t hot0 = stack.hot_store()->stats().num_samples;
  std::size_t lt0 = stack.longterm()->raw_stats().num_samples;
  auto t0 = SteadyClock::now();
  double last_start_s = 0;
  for (int i = 0; i < generations; ++i) {
    // Traced (T) and untraced (U) generations follow T U U T T U U T ...,
    // so each kind holds as many generations right after an update_api()
    // as not, and drift over the run charges both alike.
    bool traced = args_.trace && ((write.gens.size() + 1) / 2) % 2 == 0;
    last_start_s = seconds_since(t0);
    write.gens.push_back(deployment_->generation(traced, spans_, serialize));
  }
  write.hot_gained += stack.hot_store()->stats().num_samples - hot0;
  write.longterm_gained += stack.longterm()->raw_stats().num_samples - lt0;
  return {last_start_s, seconds_since(t0)};
}

// Replays the live requests of a write segment's last generation, now
// that the store is frozen, and checks the answers against the oracle.
void Runner::replay_check(Reader& reader,
                          const std::vector<Scheduled>& schedule,
                          double from_s, double to_s) {
  reader.clear_log();
  reader.reset_clients(1);
  std::size_t replayed = 0, failed = 0;
  for (const auto& item : schedule) {
    if (item.due_s < from_s || item.due_s >= to_s) continue;
    ++replayed;
    if (!reader.send(0, item, true, false, nullptr)) ++failed;
  }
  reader.close_clients();
  result_.attempted += replayed;
  result_.failed += failed;
  auto oc = check_against_oracle(*deployment_, reader.observed(),
                                 kOracleLimit, kPerStepEvery);
  check(result_, "replay_matches_oracle", oc.mismatches == 0 && failed == 0,
        describe(oc));
  reader.clear_log();
}

void Runner::count_phase(const PhaseStats& phase) {
  result_.attempted += phase.attempted;
  result_.failed += phase.failed;
}

void Runner::add_write_metrics(const WriteStats& write) {
  std::vector<double> gen_ms, update_ms;
  double samples = 0, busy_ms = 0;
  for (const auto& g : write.gens) {
    gen_ms.push_back(g.gen_ms);
    if (g.update_ms >= 0) update_ms.push_back(g.update_ms);
    samples += static_cast<double>(g.samples);
    busy_ms += g.gen_ms;
  }
  metric("generation_ms_p50", median(gen_ms), "ms");
  // The mean, not the median: a run's 7-10 updater calls sit at the same
  // places in the same job stream every run, so their times differ mostly
  // by place, and the median is one middle call's time with that call's
  // noise. The mean averages the noise over all of them (over 4 runs, its
  // ratio to generation_ms_p50 moved 0.203-0.211, the median's
  // 0.200-0.228).
  metric("update_ms_mean", mean(update_ms), "ms");
  metric("samples_per_s", busy_ms > 0 ? samples / (busy_ms / 1000) : 0, "1/s");
}

void Runner::add_trace_metrics(const WriteStats& write, const PhaseStats& low,
                               const ProbeStats& probes, const Reader& reader) {
  auto self = spans_.self_ms_by_name();
  auto self_median = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  std::vector<double> sim_ms, traced_gen, untraced_gen, scrape_samples,
      wal_groups, rules_eval, rules_written, rules_decoded, sync_copied;
  double scrape_failed = 0, scrape_retries = 0, rules_failures = 0;
  double wal_bytes = 0, wal_samples = 0, buckets = 0, upserted = 0,
         aggregated = 0, updates = 0, traced_count = 0;
  for (const auto& g : write.gens) {
    sim_ms.push_back(g.sim_ms);
    scrape_failed += static_cast<double>(g.scrapes_failed);
    scrape_retries += static_cast<double>(g.scrape_retries);
    if (g.update_ms >= 0) {
      ++updates;
      upserted += static_cast<double>(g.units_upserted);
      aggregated += static_cast<double>(g.units_aggregated);
    }
    (g.traced ? traced_gen : untraced_gen).push_back(g.gen_ms);
    if (!g.traced) continue;
    const auto& c = g.counters;
    ++traced_count;
    scrape_samples.push_back(static_cast<double>(c.scrape_samples));
    wal_groups.push_back(static_cast<double>(c.wal_groups));
    rules_eval.push_back(static_cast<double>(c.rules_evaluated));
    rules_written.push_back(static_cast<double>(c.rules_samples_written));
    rules_decoded.push_back(static_cast<double>(c.rules_chunks_decoded));
    sync_copied.push_back(static_cast<double>(c.sync_copied));
    rules_failures += static_cast<double>(c.rules_failures);
    wal_bytes += static_cast<double>(c.wal_bytes);
    wal_samples += static_cast<double>(c.wal_samples);
    buckets += static_cast<double>(c.compact_buckets);
  }
  // Sum of the five stage spans per traced generation.
  std::vector<double> stage_sums = spans_.children_ms("generation");
  auto& stack = deployment_->stack();
  auto hot = stack.hot_store()->stats();
  auto longterm = stack.longterm()->stats();

  metric("sim.step_ms", median(sim_ms), "ms");
  metric("scrape.ms", self_median("scrape"), "ms");
  metric("scrape.samples", median(scrape_samples), "count");
  metric("scrape.failed", scrape_failed, "count");
  metric("scrape.retries", scrape_retries, "count");
  metric("wal.bytes_per_sample", wal_samples > 0 ? wal_bytes / wal_samples : 0,
         "B/sample");
  metric("wal.groups", median(wal_groups), "count");
  metric("checkpoint.ms", self_median("checkpoint"), "ms");
  metric("rules.ms", self_median("rules"), "ms");
  metric("rules.evaluated", median(rules_eval), "count");
  metric("rules.samples_written", median(rules_written), "count");
  metric("rules.failures", rules_failures, "count");
  metric("rules.chunks_decoded", median(rules_decoded), "count");
  metric("sync.ms", self_median("sync"), "ms");
  metric("sync.samples_copied", median(sync_copied), "count");
  metric("compact.ms", self_median("compact"), "ms");
  metric("compact.buckets", traced_count > 0 ? buckets / traced_count : 0,
         "count");
  metric("updater.ms", self_median("update"), "ms");
  metric("updater.units_upserted", updates > 0 ? upserted / updates : 0,
         "count");
  metric("updater.units_aggregated", updates > 0 ? aggregated / updates : 0,
         "count");
  metric("hot.bytes_per_sample",
         hot.num_samples ? static_cast<double>(hot.approx_bytes) /
                               static_cast<double>(hot.num_samples)
                         : 0,
         "B/sample");
  metric("longterm.bytes", static_cast<double>(longterm.approx_bytes), "B");

  const ReadTrace& rt = reader.trace();
  metric("engine.eval_ms", median(probes.engine_ms), "ms");
  metric("engine.chunks_decoded", mean(probes.decoded), "count");
  metric("engine.points_scanned", mean(probes.points), "count");
  metric("engine.ladder_hits", mean(probes.ladder), "count");
  metric("engine.cache_hit_ratio",
         rt.cache_lookups ? static_cast<double>(rt.cache_hits) /
                                static_cast<double>(rt.cache_lookups)
                          : 0,
         "ratio");
  metric("engine.cache_lookups", static_cast<double>(rt.cache_lookups),
         "count");
  metric("backend.http_ms", median(probes.backend_ms), "ms");
  metric("lb.proxy_ms",
         median(probes.proxy_lb_ms) - median(probes.proxy_direct_ms), "ms");
  metric("lb.introspect_us", median(probes.introspect_us), "us");
  metric("lb.verify_us", median(probes.verify_us), "us");
  metric("apiserver.units_ms", median(probes.units_ms), "ms");
  metric("apiserver.usage_ms", median(probes.usage_ms), "ms");
  metric("gen.lag_ms_p99", quantile(low.lag_ms, 0.99), "ms");
  metric("gen.backlog", static_cast<double>(low.backlog), "count");
  metric("trace.overhead.generation_ms",
         median(traced_gen) - median(untraced_gen), "ms");
  metric("trace.overhead.query_ms",
         median(rt.traced_ms) - median(rt.untraced_ms), "ms");
  metric("trace.stage_sum_ms", median(stage_sums), "ms");
  metric("trace.untraced_generation_ms", median(untraced_gen), "ms");
  // Attribution: the stage sum should stand for an untraced generation.
  // It passes when it lies within the tracing overhead (taken as zero when
  // the traced median comes out lower) plus half the interquartile range
  // of the untraced generations, a yardstick for how far noise alone
  // moves a median of this many generations. It is reported, not gating.
  double overhead = median(traced_gen) - median(untraced_gen);
  double noise = (quantile(untraced_gen, 0.75) - quantile(untraced_gen, 0.25)) / 2;
  double gap = median(stage_sums) - median(untraced_gen);
  bool attributed = std::fabs(gap) <= std::max(overhead, 0.0) + noise;
  result_.notes.push_back(
      std::string("stage_attribution=") + (attributed ? "pass" : "fail") +
      ": stage sum minus untraced p50 " + fmt(gap) +
      " ms; tracing overhead " + fmt(overhead) + " ms; untraced IQR/2 " +
      fmt(noise) + " ms; unattributed " +
      fmt(median(traced_gen) - median(stage_sums)) +
      " ms of a traced generation");
}

std::string Runner::context_json() const {
  return std::string("{\"workload\":\"") + json_escape(args_.workload) +
         "\",\"seed\":" + std::to_string(args_.seed) +
         ",\"seconds\":" + fmt(args_.seconds) +
         ",\"trace\":" + (args_.trace ? "1" : "0") +
         ",\"num_cpus\":" + std::to_string(num_cpus()) +
         ",\"build_type\":\"" + json_escape(build_type()) +
         "\",\"optimized\":" + (optimized_build() ? "true" : "false") +
         ",\"compiler\":\"" + json_escape(compiler_id()) +
         "\",\"nodes\":" + std::to_string(kNodes) +
         ",\"low_rate\":" + fmt(kLowRate) +
         ",\"high_rate\":" + fmt(kHighRate) +
         ",\"zipf_exponent\":" + fmt(DashboardMix::kZipfExponent) + "}";
}

void Runner::emit(const std::vector<PhaseStats>& phases,
                  const WriteStats& write, double repeated_share,
                  std::size_t jobs) {
  std::size_t updates = std::count_if(
      write.gens.begin(), write.gens.end(),
      [](const GenRecord& g) { return g.update_ms >= 0; });
  // Report line: context, sample counts, generator health, checks.
  std::string report = "{\"context\":" + context_json() +
                       ",\"generations\":" + std::to_string(write.gens.size()) +
                       ",\"updates\":" + std::to_string(updates) +
                       ",\"client_retries\":" + std::to_string(client_retries_) +
                       ",\"hot_series\":" +
                       std::to_string(deployment_->stack().hot_store()->stats().num_series) +
                       ",\"jobs\":" + std::to_string(jobs) +
                       ",\"repeated_key_share\":" + fmt(repeated_share) +
                       ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    report += std::string(i ? "," : "") + "{\"name\":\"" + p.name +
              "\",\"rate\":" + fmt(p.rate) +
              ",\"requests\":" + std::to_string(p.attempted) +
              ",\"failed\":" + std::to_string(p.failed) +
              ",\"seconds\":" + fmt(p.duration_s) +
              ",\"completed_per_s\":" +
              fmt(p.duration_s > 0 ? static_cast<double>(p.attempted) /
                                         p.duration_s
                                   : 0) +
              ",\"latency_ms_p50\":" + fmt(median(p.latency_ms)) +
              ",\"latency_ms_p90\":" + fmt(quantile(p.latency_ms, 0.9)) +
              ",\"latency_ms_p99\":" + fmt(quantile(p.latency_ms, 0.99)) +
              ",\"views\":" + std::to_string(p.view_ms.size()) +
              ",\"view_ms_p50\":" + fmt(median(p.view_ms)) +
              ",\"view_ms_p90\":" + fmt(quantile(p.view_ms, 0.9)) +
              ",\"lag_ms_p99\":" + fmt(quantile(p.lag_ms, 0.99)) +
              ",\"backlog\":" + std::to_string(p.backlog) +
              ",\"over_limit\":" +
              std::to_string(std::count_if(
                  p.latency_ms.begin(), p.latency_ms.end(),
                  [](double ms) { return ms > kPanelLimitMs; })) +
              "}";
  }
  report += "],\"checks\":[";
  for (std::size_t i = 0; i < result_.checks.size(); ++i) {
    report += std::string(i ? "," : "") + "\"" +
              json_escape(result_.checks[i]) + "\"";
  }
  report += "],\"notes\":[";
  for (std::size_t i = 0; i < result_.notes.size(); ++i) {
    report += std::string(i ? "," : "") + "\"" +
              json_escape(result_.notes[i]) + "\"";
  }
  report += "],\"metrics\":{";
  for (std::size_t i = 0; i < result_.metrics.size(); ++i) {
    const auto& m = result_.metrics[i];
    report += std::string(i ? "," : "") + "\"" + m.name + "\":" + fmt(m.value);
  }
  report += "}}";
  std::printf("%s\n", report.c_str());

  if (args_.trace) {
    std::filesystem::create_directories(args_.out_dir);
    std::string path = args_.out_dir + "/spans-" + args_.workload + "-seed" +
                       std::to_string(args_.seed) + ".json";
    if (!spans_.write_json(path, context_json()))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  std::string line = std::string("{\"correct\": ") +
                     (result_.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result_.attempted) +
                     ", \"failed\": " + std::to_string(result_.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result_.metrics.size(); ++i) {
    const auto& m = result_.metrics[i];
    line += std::string(i ? ", " : "") + "\"" + m.name +
            "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Runner::run() {
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "WARNING: non-optimised build (%s); timings are not "
                 "representative\n",
                 build_type());
  }
  const bool trace = args_.trace;
  const int threads = trace ? 1 : static_cast<int>(std::min(4u, num_cpus()));
  const int low_threads = std::min(threads, kLowThreads);
  const double S = args_.seconds;

  // Set-up: build the stack and warm it up. It runs once: tearing a stack
  // down waits out its exporters' 5 s keep-alive idle timeout.
  deployment_ = std::make_unique<Deployment>(
      kNodes, kClusterSeed, kPrewarmMs, kWarmGenerations);
  auto& stack = deployment_->stack();
  std::mutex serialize;  // traced mixed runs: one call into the stack at a time
  std::mutex* serialize_ptr = trace && spec_.concurrent_low ? &serialize : nullptr;

  // The dashboard mix takes its jobs from the store the reads see first
  // (mixed reads the live store from the start).
  std::unique_ptr<DashboardMix> mix;
  std::unique_ptr<Reader> reader;
  auto make_mix = [&] {
    // Long-range reports use the store's finest ladder resolution.
    mix = std::make_unique<DashboardMix>(
        collect_jobs(*deployment_), kAdmin,
        stack.longterm()->agg_resolutions().front());
    reader = std::make_unique<Reader>(*deployment_, *mix, spans_);
  };
  if (spec_.concurrent_low) make_mix();
  setup_s_ = seconds_since(process_start_);
  step("set-up done");

  PhaseStats low, high, closed;  // merged over segments
  WriteStats write;
  std::vector<Scheduled> open_loop;  // every open-loop request, for the report
  std::vector<Scheduled> probe_schedule;
  ProbeStats probes;
  bool probed = false;
  uint64_t phase = 0;
  auto phase_seed = [&] { return args_.seed * 1000 + ++phase; };

  for (int pair = 0; pair < kSegmentPairs; ++pair) {
    // Write segment: the closed generation loop (with the live low phase
    // alongside on mixed).
    // A fixed number of generations per segment, so every run does the
    // same write work whatever the host's speed.
    const int generations = std::max(
        2, static_cast<int>(std::lround(spec_.write_share * S /
                                        kLoopIterationS)));
    if (!spec_.concurrent_low) {
      write_segment(generations, nullptr, write);
    } else {
      // The live low phase stops with the loop; its schedule runs long.
      auto schedule = mix->schedule(
          kLowRate, 2 * generations * kLoopIterationS, phase_seed());
      std::atomic<bool> loop_done{false};
      PhaseStats part;
      std::thread load([&] {
        part = reader->open_phase("low", schedule, kLowRate, low_threads,
                                  false, trace, serialize_ptr, &loop_done);
      });
      auto [last_start, end] = write_segment(generations, serialize_ptr, write);
      loop_done = true;
      load.join();
      merge(low, part);
      open_loop.insert(open_loop.end(), schedule.begin(), schedule.end());
      probe_schedule = schedule;
      replay_check(*reader, schedule, last_start, end);
    }
    step("write segment done");

    // Read segment on the store as the write segment left it.
    if (!mix) make_mix();
    if (mix->job_count() == 0) {
      std::fprintf(stderr, "no jobs with power series to query\n");
      return 1;
    }
    if (!spec_.concurrent_low) {
      auto pool = mix->schedule(kLowRate, spec_.low_share * S, phase_seed());
      merge(low, reader->open_phase("low", pool, kLowRate, low_threads,
                                    true, trace));
      if (probe_schedule.empty()) probe_schedule = pool;
      // Traced runs send the high phase too (one thread, so it runs late)
      // for the cache hit ratio.
      auto schedule =
          mix->schedule(kHighRate, spec_.high_share * S, phase_seed());
      merge(high, reader->open_phase("high", schedule, kHighRate,
                                     threads, true, trace));
      pool.insert(pool.end(), schedule.begin(), schedule.end());
      open_loop.insert(open_loop.end(), pool.begin(), pool.end());
      if (!trace) {
        merge(closed, reader->closed_phase(
                          cycle_through(pool, 200000, phase_seed()),
                          kClosedClients, spec_.closed_share * S, true));
      }
    }
    if (trace && !probed && !probe_schedule.empty()) {
      probes = probe_layers(*deployment_, *mix, probe_schedule, spans_);
      probed = true;
    }
    if (!reader->observed().empty()) {
      auto oc = check_against_oracle(*deployment_, reader->observed(),
                                     kOracleLimit, kPerStepEvery);
      check(result_, "responses_match_oracle", oc.mismatches == 0,
            describe(oc));
      check(result_, "repeats_identical", reader->repeat_mismatches() == 0,
            std::to_string(reader->repeat_mismatches()));
      reader->clear_log();
    }
    step("read segment done");
  }

  // ---- write-side checks
  uint64_t failed_scrapes = 0;
  for (const auto& g : write.gens) {
    result_.attempted += 1;
    if (g.scrapes_failed > 0) ++result_.failed;
    failed_scrapes += g.scrapes_failed;
    if (g.traced && g.counters.sync_copied != g.counters.hot_gained) {
      check(result_, "sync_copies_hot_gain_per_generation", false,
            std::to_string(g.counters.sync_copied) + " vs " +
                std::to_string(g.counters.hot_gained));
    }
  }
  check(result_, "no_failed_scrapes", failed_scrapes == 0,
        std::to_string(failed_scrapes));
  check(result_, "sync_copies_hot_gain",
        write.hot_gained == write.longterm_gained,
        std::to_string(write.longterm_gained) + "/" +
            std::to_string(write.hot_gained));
  check_longterm_matches_hot(*deployment_, result_);
  for (const auto* part : {&low, &high, &closed}) count_phase(*part);
  check(result_, "requests_as_expected",
        low.failed + high.failed + closed.failed == 0,
        std::to_string(low.failed + high.failed + closed.failed) + " of " +
            std::to_string(low.attempted + high.attempted + closed.attempted));
  auto checkpoints = stack.durable_tsdb()->checkpoints();
  check(result_, "checkpoint_in_loop", checkpoints > 0,
        std::to_string(checkpoints));

  // ---- metrics
  if (!trace) {
    metric("setup_s", setup_s_, "s");
    add_write_metrics(write);
    // The read side's bounded metric. Per-request latencies, the high
    // phase's and the closed-loop throughput stay in the report line only:
    // on the shared 4-vCPU host the per-request median's quartile spread
    // over 10 seeds reached 0.23-0.26. On the frozen store a quarter of
    // the requests (API calls, 403s, cache hits) answer in 1-2 ms and the
    // rest in 13-60 ms, so that median moved with how many fast ones a
    // seed drew. A view's latency is set by its slowest panel, and at 20/s
    // its median spread 0.06-0.09 over four 5-seed sets where the
    // per-request one spread 0.06-0.18.
    metric("view_ms_p50.low", median(low.view_ms), "ms");
    metric("rss_mb", peak_rss_mb(), "MB");
  } else {
    add_trace_metrics(write, low, probes, *reader);
  }
  if (!spec_.concurrent_low) {
    check_durability(*deployment_, result_);
    step("durability check done");
  }

  double repeated = mix->repeated_key_share(open_loop, deployment_->now_ms());
  client_retries_ = reader->client_retries();
  std::vector<PhaseStats> phases;
  for (const auto* part : {&low, &high, &closed}) {
    if (part->attempted > 0) phases.push_back(*part);
  }
  emit(phases, write, repeated, mix->job_count());
  reader.reset();
  deployment_.reset();
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1 && spec_for(args.workload).valid &&
         args.seconds > 0;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  auto start = stackbench::SteadyClock::now();
  ceems::common::set_log_level(ceems::common::LogLevel::kError);
  stackbench::Args args;
  if (!stackbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: stackbench --workload generation|mixed "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return stackbench::Runner(std::move(args), start).run();
}
