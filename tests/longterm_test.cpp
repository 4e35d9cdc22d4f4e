#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/rng.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"

namespace ceems::tsdb {
namespace {

using common::kMillisPerHour;
using common::kMillisPerMinute;

Labels named(const std::string& name, const std::string& host) {
  return Labels{{"hostname", host}}.with_name(name);
}

TEST(LongTerm, SyncPullsOnlyNewSamples) {
  TimeSeriesStore hot;
  LongTermStore lt;
  hot.append(named("m", "n1"), 1000, 1);
  hot.append(named("m", "n1"), 2000, 2);
  EXPECT_EQ(lt.sync_from(hot), 2u);
  hot.append(named("m", "n1"), 3000, 3);
  EXPECT_EQ(lt.sync_from(hot), 1u);  // incremental
  EXPECT_EQ(lt.sync_from(hot), 0u);  // idempotent

  auto series = lt.select({}, 0, 10000);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples().size(), 3u);
}

TEST(LongTerm, HotRetentionSurvivesInLongTerm) {
  // The hot TSDB can purge aggressively once data is replicated (Fig. 1).
  TimeSeriesStore hot;
  LongTermStore lt;
  for (int i = 0; i < 10; ++i) {
    hot.append(named("m", "n1"), i * 1000, i);
  }
  lt.sync_from(hot);
  hot.purge_before(8000);
  EXPECT_EQ(hot.stats().num_samples, 2u);
  EXPECT_EQ(lt.select({}, 0, 20000)[0].samples().size(), 10u);
}

TEST(LongTerm, CompactionDownsamplesOldData) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.resolution_ms = 5 * kMillisPerMinute;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  // 2 h of 30 s samples.
  for (int i = 0; i < 240; ++i) {
    hot.append(named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);

  // First hour: 12 downsampled points (one per 5 min); second hour: raw.
  auto series = lt.select({}, 0, 2 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  std::size_t old_points = 0;
  for (const auto& sample : series[0].samples()) {
    if (sample.t < kMillisPerHour) ++old_points;
  }
  EXPECT_EQ(old_points, 12u);
  EXPECT_EQ(series[0].samples().size(), 12u + 120u);
  // Buckets are left-open (t-res, t] so aligned PromQL windows tile whole
  // buckets; last-per-bucket keeps counter semantics: the sample exactly
  // on a boundary IS the bucket-end value.
  EXPECT_DOUBLE_EQ(series[0].samples()[0].v, 0);   // t=0, its own bucket
  EXPECT_DOUBLE_EQ(series[0].samples()[1].v, 10);  // t=300000, sample #10
}

TEST(LongTerm, CompactionPreservesCounterIncrease) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.resolution_ms = 5 * kMillisPerMinute;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    hot.append(named("joules", "n1"), i * 30000, i * 300.0);  // 10 W
  }
  lt.sync_from(hot);

  promql::Engine engine;
  auto before = engine.eval(lt, "increase(joules[1h])", 2 * kMillisPerHour);
  lt.compact(2 * kMillisPerHour);
  auto after = engine.eval(lt, "increase(joules[1h])", 2 * kMillisPerHour);
  ASSERT_EQ(before.vector.size(), 1u);
  ASSERT_EQ(after.vector.size(), 1u);
  EXPECT_NEAR(before.vector[0].value, after.vector[0].value, 1e-9);

  // Increase over the downsampled epoch is also intact (coarser grid, same
  // cumulative counter).
  // 10 J/s counter; the 5-min grid trims the observed span to ~50.5 min.
  auto old_epoch = engine.eval(lt, "increase(joules[55m])", kMillisPerHour);
  ASSERT_EQ(old_epoch.vector.size(), 1u);
  EXPECT_GT(old_epoch.vector[0].value, 28000.0);
  EXPECT_LT(old_epoch.vector[0].value, 33000.0);
}

TEST(LongTerm, RetentionDropsAncientData) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.resolution_ms = 5 * kMillisPerMinute;
  config.retention_ms = 24 * kMillisPerHour;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  hot.append(named("m", "n1"), 0, 1);
  hot.append(named("m", "n1"), 30 * kMillisPerHour, 2);
  lt.sync_from(hot);
  lt.compact(30 * kMillisPerHour);
  auto series = lt.select({}, 0, 40 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  // Sample at t=0 is beyond 24 h retention at t=30 h.
  EXPECT_EQ(series[0].samples().size(), 1u);
  EXPECT_EQ(series[0].samples()[0].t, 30 * kMillisPerHour);
}

TEST(LongTerm, SelectMergesAcrossEpochBoundary) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.resolution_ms = 10 * kMillisPerMinute;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    hot.append(named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);
  auto series = lt.select({}, 0, 3 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  // Strictly increasing timestamps across the merge.
  for (std::size_t i = 1; i < series[0].samples().size(); ++i) {
    EXPECT_GT(series[0].samples()[i].t, series[0].samples()[i - 1].t);
  }
}

TEST(LongTerm, SplicedPointsStayZeroUnderCompactionCadence) {
  // The compaction invariant: raw data is only purged up to a boundary the
  // whole ladder has aggregated past, so the synthesised history and the
  // raw tail never overlap and select() splices no decoded points. Run a
  // realistic cadence — scrape, sync, compact every 10 min, aggressive hot
  // retention — and check the counter stays at zero end to end.
  LongTermConfig config;
  config.downsample_after_ms = common::kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}, {kMillisPerHour, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  TimestampMs t = 0;
  for (int cycle = 0; cycle < 72; ++cycle) {
    TimestampMs cycle_end = TimestampMs{cycle + 1} * 10 * kMillisPerMinute;
    for (; t < cycle_end; t += 30000) {
      hot.append(named("m", "n1"), t, static_cast<double>(t / 30000));
      hot.append(named("m", "n2"), t, 7.0);
    }
    lt.sync_from(hot);
    lt.compact(cycle_end);
    hot.purge_before(cycle_end - 20 * kMillisPerMinute);
  }

  auto series = lt.select({}, 0, 12 * common::kMillisPerHour);
  ASSERT_EQ(series.size(), 2u);
  for (const auto& view : series) {
    const auto& samples = view.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.front().t, 0);
    EXPECT_EQ(samples.back().t, t - 30000);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_GT(samples[i].t, samples[i - 1].t);
    }
  }
  auto stats = lt.select_stats();
  EXPECT_EQ(stats.spliced_points_copied, 0u);
  EXPECT_GT(stats.raw_points_scanned, 0u);
}

TEST(LongTerm, PerLevelRetentionPurgesExactHorizons) {
  LongTermConfig config;
  config.downsample_after_ms = common::kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 2 * common::kMillisPerHour},
                   {kMillisPerHour, 10 * common::kMillisPerHour}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (TimestampMs t = 0; t <= 12 * common::kMillisPerHour; t += 30000) {
    hot.append(named("m", "n1"), t, 1);
  }
  lt.sync_from(hot);
  lt.compact(12 * common::kMillisPerHour);

  // 5m level keeps exactly the bucket ends in [10h, 12h] (25 rows), the
  // 1h level exactly [2h, 12h] (11 rows).
  auto fine = lt.select_agg(5 * kMillisPerMinute, {},
                            10 * common::kMillisPerHour,
                            12 * common::kMillisPerHour);
  ASSERT_TRUE(fine.has_value());
  ASSERT_EQ(fine->size(), 1u);
  EXPECT_EQ((*fine)[0].buckets.size(), 25u);
  EXPECT_EQ((*fine)[0].buckets.front().t, 10 * common::kMillisPerHour);
  EXPECT_EQ((*fine)[0].buckets.back().t, 12 * common::kMillisPerHour);

  auto coarse = lt.select_agg(kMillisPerHour, {}, 2 * common::kMillisPerHour,
                              12 * common::kMillisPerHour);
  ASSERT_TRUE(coarse.has_value());
  ASSERT_EQ(coarse->size(), 1u);
  EXPECT_EQ((*coarse)[0].buckets.size(), 11u);
  EXPECT_EQ((*coarse)[0].buckets.front().t, 2 * common::kMillisPerHour);

  // One bucket past either horizon: coverage can no longer be promised.
  EXPECT_FALSE(lt.select_agg(5 * kMillisPerMinute, {},
                             10 * common::kMillisPerHour - 5 * kMillisPerMinute,
                             12 * common::kMillisPerHour)
                   .has_value());
  EXPECT_FALSE(lt.select_agg(kMillisPerHour, {}, kMillisPerHour,
                             12 * common::kMillisPerHour)
                   .has_value());
  EXPECT_EQ(lt.downsampled_stats().num_samples, 25u + 11u);
}

TEST(LongTerm, StatsReflectBothTiers) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    hot.append(named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  StorageStats before = lt.stats();
  lt.compact(2 * kMillisPerHour);
  StorageStats after = lt.stats();
  EXPECT_EQ(before.num_samples, 240u);
  EXPECT_LT(after.num_samples, before.num_samples);  // downsampling shrank it
  EXPECT_GT(lt.downsampled_stats().num_samples, 0u);
}

// The replication copy sync_from used to make, kept as the oracle: pull
// materialised series_since(cursor + 1), append each sample by its label
// strings, and take the cursor from the copy's newest sample.
struct SeriesSinceOracle {
  TimeSeriesStore raw;
  TimestampMs cursor = -1;

  std::size_t sync_from(const TimeSeriesStore& hot) {
    std::size_t copied = 0;
    for (const auto& series : hot.series_since(cursor + 1)) {
      for (const auto& sample : series.samples) {
        if (raw.append(series.labels, sample.t, sample.v)) ++copied;
      }
    }
    if (auto max_t = raw.max_time()) cursor = *max_t;
    return copied;
  }
};

using BitSamples = std::vector<std::pair<TimestampMs, uint64_t>>;

// Views flattened to (labels, samples as bit patterns), in select order.
std::vector<std::pair<Labels, BitSamples>> bits_of(
    const std::vector<SeriesView>& views) {
  std::vector<std::pair<Labels, BitSamples>> out;
  for (const auto& view : views) {
    BitSamples samples;
    for (const auto& sample : view.samples()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &sample.v, sizeof(bits));
      samples.emplace_back(sample.t, bits);
    }
    out.emplace_back(view.labels.to_labels(), std::move(samples));
  }
  return out;
}

std::vector<std::pair<Labels, std::vector<TimestampMs>>> buckets_of(
    const std::optional<std::vector<AggSeriesView>>& views) {
  std::vector<std::pair<Labels, std::vector<TimestampMs>>> out;
  if (!views) return out;
  for (const auto& view : *views) {
    std::vector<TimestampMs> ends;
    for (const auto& bucket : view.buckets) ends.push_back(bucket.t);
    out.emplace_back(view.labels.to_labels(), std::move(ends));
  }
  return out;
}

// Repeated syncs and compactions over a churning hot store: out-of-order
// appends the hot store rejects, late series older than the cursor,
// duplicate-timestamp overwrites, staleness markers, hot retention and
// series deletion. The shard-parallel sync (pooled and inline) must return
// the oracle's counts, and hold exactly the oracle's raw samples above the
// downsample horizon; the pooled and inline stores must match entirely,
// ladder included.
TEST(LongTerm, ShardParallelSyncMatchesSeriesSinceOracle) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}, {kMillisPerHour, 0}};
  LongTermStore pooled(config,
                       std::make_shared<common::ThreadPool>(4, "lt-test"));
  LongTermStore inline_store(config);
  SeriesSinceOracle oracle;
  TimeSeriesStore hot;
  common::Rng rng(7);

  const TimestampMs step = 30000;
  for (int cycle = 1; cycle <= 300; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    const TimestampMs now = cycle * step;
    for (int host = 0; host < 40; ++host) {
      std::string name = host % 3 == 0 ? "power" : "joules_total";
      Labels labels = named(name, "n" + std::to_string(host));
      if ((cycle + host) % 17 == 0) {
        hot.append(labels, now, metrics::stale_marker());
        continue;
      }
      double v = static_cast<double>(rng.uniform_int(0, 1000));
      hot.append(labels, now, v);
      if (host % 5 == 0) hot.append(labels, now, v + 0.5);  // overwrite
      if (host % 7 == 0) hot.append(labels, now - step, v);  // rejected
    }
    if (cycle % 11 == 0) {
      // A series first seen with a sample the cursor already passed: the
      // hot store takes it, replication never pulls it.
      hot.append(named("late", "n" + std::to_string(cycle)), now - 2 * step,
                 1);
    }
    if (cycle % 13 == 0) {
      hot.delete_series({{"hostname", metrics::LabelMatcher::Op::kEq,
                          "n" + std::to_string(cycle % 40)}});
    }
    if (cycle % 4 == 0) hot.purge_before(now - 20 * kMillisPerMinute);

    std::size_t expected = oracle.sync_from(hot);
    EXPECT_EQ(pooled.sync_from(hot), expected);
    EXPECT_EQ(inline_store.sync_from(hot), expected);
    pooled.compact(now);
    inline_store.compact(now);

    // Raw samples newer than any purge boundary are untouched by
    // compaction, so they must be exactly the oracle's.
    const TimestampMs horizon = now - config.downsample_after_ms + 1;
    const TimestampMs end = std::numeric_limits<TimestampMs>::max();
    ASSERT_EQ(bits_of(pooled.select({}, horizon, end)),
              bits_of(oracle.raw.select({}, horizon, end)));
    ASSERT_EQ(bits_of(pooled.select({}, 0, end)),
              bits_of(inline_store.select({}, 0, end)));
    EXPECT_EQ(pooled.raw_stats().num_samples,
              inline_store.raw_stats().num_samples);
  }
  for (int64_t res : pooled.agg_resolutions()) {
    const TimestampMs lo = kMillisPerHour;
    const TimestampMs hi = 2 * kMillisPerHour;
    auto a = pooled.select_agg(res, {}, lo, hi);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(buckets_of(a), buckets_of(inline_store.select_agg(res, {}, lo, hi)));
    EXPECT_FALSE(a->empty());
  }
  EXPECT_EQ(pooled.downsampled_stats().num_samples,
            inline_store.downsampled_stats().num_samples);
}

// select() and select_agg() answer a fixed metric name from that name's
// series alone, with the same output as a nameless selector filtered down.
TEST(LongTerm, NamedSelectMatchesFilteredScan) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    for (const char* name : {"a", "b", "c"}) {
      hot.append(Labels{{"hostname", "n1"}, {"UUID", "u" + std::to_string(i % 3)}}
                     .with_name(name),
                 i * 30000, i);
      hot.append(named(name, "n2"), i * 30000, -i);
    }
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);

  using Op = metrics::LabelMatcher::Op;
  std::vector<metrics::LabelMatcher> by_name = {{"__name__", Op::kEq, "b"}};
  std::vector<metrics::LabelMatcher> by_regex = {{"__name__", Op::kRegexMatch, "b"}};
  auto named_views = lt.select(by_name, 0, 2 * kMillisPerHour);
  ASSERT_EQ(named_views.size(), 4u);
  EXPECT_EQ(bits_of(named_views),
            bits_of(lt.select(by_regex, 0, 2 * kMillisPerHour)));
  auto one_host = lt.select({{"__name__", Op::kEq, "b"}, {"hostname", Op::kEq, "n2"}},
                            0, 2 * kMillisPerHour);
  ASSERT_EQ(one_host.size(), 1u);
  EXPECT_EQ(one_host[0].labels, named("b", "n2"));
  EXPECT_TRUE(lt.select({{"__name__", Op::kEq, "zzz"}}, 0,
                        2 * kMillisPerHour)
                  .empty());

  auto agg_named = lt.select_agg(5 * kMillisPerMinute, by_name, 0,
                                 kMillisPerHour);
  auto agg_regex = lt.select_agg(5 * kMillisPerMinute, by_regex, 0,
                                 kMillisPerHour);
  ASSERT_TRUE(agg_named.has_value());
  EXPECT_EQ(agg_named->size(), 4u);
  EXPECT_EQ(buckets_of(agg_named), buckets_of(agg_regex));
  // Across names, output stays in label order.
  auto all = lt.select_agg(5 * kMillisPerMinute, {}, 0, kMillisPerHour);
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(all->size(), 12u);
  for (std::size_t i = 1; i < all->size(); ++i) {
    EXPECT_LT((*all)[i - 1].labels, (*all)[i].labels);
  }
}

}  // namespace
}  // namespace ceems::tsdb
