// Golden digest of a small, fixed-seed monitoring pipeline: scrape →
// recording and alerting rules → long-term sync → ladder compaction. The
// digest covers every series' label strings and every (t, value bits) in
// the hot store, in the long-term store's select() and in each ladder
// level's buckets, in output order. A representation change anywhere on
// that path (label interning, evaluator internals, write-back) must leave
// it unchanged: the constant below was recorded on the string-label
// implementation. Only scrape_duration_seconds is excluded — it is wall
// clock time.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "stack_fixture.h"

namespace ceems {
namespace {

using common::TimestampMs;

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    u64(b);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr std::string_view kWallClockMetric = "scrape_duration_seconds";

template <typename Views>
std::size_t digest_views(Fnv& fnv, const Views& views) {
  std::size_t points = 0;
  for (const auto& view : views) {
    if (view.labels.name() == kWallClockMetric) continue;
    fnv.text(view.labels.to_string());
    auto samples = view.samples();
    fnv.u64(samples.size());
    for (const auto& sample : samples) {
      fnv.u64(static_cast<uint64_t>(sample.t));
      fnv.f64(sample.v);
    }
    points += samples.size();
  }
  return points;
}

struct PipelineDigest {
  uint64_t hot = 0;
  uint64_t longterm = 0;
  uint64_t ladder = 0;
  std::size_t hot_points = 0;
  std::size_t longterm_points = 0;
  std::size_t buckets = 0;
};

PipelineDigest run_pipeline() {
  testing::MiniStackOptions options;
  options.cluster_scale = 28.0 / 1400.0;
  options.seed = 20241117;
  // A short ladder so 12 generations fill buckets at both levels and the
  // raw horizon is purged: select() then splices history with raw.
  options.stack.longterm.downsample_after_ms = common::kMillisPerMinute;
  options.stack.longterm.levels = {{common::kMillisPerMinute, 0},
                                   {5 * common::kMillisPerMinute, 0}};
  testing::MiniStack mini(options);
  core::CeemsStack& stack = mini.stack();
  for (int generation = 0; generation < 12; ++generation) {
    mini.sim().run_for(30000, 10000, [](TimestampMs) {});
    stack.pipeline_step_forced();
  }
  const TimestampMs now = mini.clock()->now_ms();
  constexpr TimestampMs kMin = std::numeric_limits<TimestampMs>::min();
  constexpr TimestampMs kMax = std::numeric_limits<TimestampMs>::max();

  PipelineDigest out;
  Fnv hot;
  out.hot_points = digest_views(hot, stack.hot_store()->select({}, kMin, kMax));
  out.hot = hot.value();

  Fnv longterm;
  out.longterm_points =
      digest_views(longterm, stack.longterm()->select({}, kMin, kMax));
  out.longterm = longterm.value();

  Fnv ladder;
  for (int64_t res : stack.longterm()->agg_resolutions()) {
    auto views = stack.longterm()->select_agg(res, {}, kMin + 1,
                                              tsdb::floor_div(now, res) * res);
    EXPECT_TRUE(views.has_value()) << "resolution " << res;
    if (!views) continue;
    ladder.u64(static_cast<uint64_t>(res));
    for (const auto& view : *views) {
      if (view.labels.name() == kWallClockMetric) continue;
      ladder.text(view.labels.to_string());
      ladder.u64(view.buckets.size());
      for (const auto& b : view.buckets) {
        ladder.u64(static_cast<uint64_t>(b.t));
        ladder.u64(b.count);
        for (double v : {b.sum, b.min, b.max, b.first_v, b.last_v, b.inc}) {
          ladder.f64(v);
        }
        ladder.u64(static_cast<uint64_t>(b.first_t));
        ladder.u64(static_cast<uint64_t>(b.last_t));
        ladder.u64(static_cast<uint64_t>(b.marker_t));
      }
      out.buckets += view.buckets.size();
    }
  }
  out.ladder = ladder.value();
  return out;
}

TEST(PipelineDigest, FixedSeedStackMatchesGolden) {
  PipelineDigest digest = run_pipeline();
  std::printf("pipeline digest: hot=%016llx (%zu points) longterm=%016llx "
              "(%zu points) ladder=%016llx (%zu buckets)\n",
              static_cast<unsigned long long>(digest.hot), digest.hot_points,
              static_cast<unsigned long long>(digest.longterm),
              digest.longterm_points,
              static_cast<unsigned long long>(digest.ladder), digest.buckets);
  EXPECT_GT(digest.hot_points, 10000u);
  EXPECT_GT(digest.buckets, 1000u);
  EXPECT_EQ(digest.hot, 0xa3c65268a2aecab6ULL);
  EXPECT_EQ(digest.longterm, 0xe6200cb53e85b2b5ULL);
  EXPECT_EQ(digest.ladder, 0x3fc82f113719c43eULL);
}

}  // namespace
}  // namespace ceems
