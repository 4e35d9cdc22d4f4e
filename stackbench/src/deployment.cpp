#include "deployment.h"

#include "slurm/cluster_sim.h"
#include "tsdb/chunk.h"

namespace stackbench {

using ceems::common::TimestampMs;

namespace {

// Fixed simulated epoch (the scale benches use the same one).
constexpr TimestampMs kEpochMs = 1700000000000LL;
// Job arrivals per node and day; the E4 scale bench's convention
// (3000 jobs/day for the 28-node 2% slice).
constexpr double kJobsPerNodeDay = 3000.0 / 28.0;
// Simulator-only warm-up step: coarse, the stack does not watch it.
constexpr int64_t kPrewarmStepMs = 5 * 60 * 1000;

uint64_t decodes() { return ceems::tsdb::chunk_decode_count(); }

uint64_t agg_rows(const ceems::tsdb::LongTermStore& store) {
  return store.downsampled_stats().num_samples;
}

}  // namespace

Deployment::Deployment(int nodes, uint64_t seed, int64_t prewarm_ms,
                       int warm_generations) {
  clock_ = ceems::common::make_sim_clock(kEpochMs);
  auto scale = ceems::slurm::JeanZayScale{}.scaled(nodes / 1400.0);
  auto workload = ceems::slurm::make_jean_zay_workload_config(
      scale, kJobsPerNodeDay * nodes);
  workload.seed = seed;
  sim_ = std::make_unique<ceems::slurm::ClusterSim>(
      clock_, ceems::slurm::make_jean_zay_cluster(clock_, scale, seed),
      workload, seed);
  if (prewarm_ms > 0) sim_->run_for(prewarm_ms, kPrewarmStepMs);

  dir_ = std::make_shared<ceems::simfs::SimDurableDir>();
  ceems::core::StackConfig config;  // the stack's defaults...
  config.hot_durable_dir = dir_;    // ...plus the durable hot WAL
  stack_ = std::make_unique<ceems::core::CeemsStack>(*sim_, config);
  stack_->start_servers();

  SpanRecorder off(false);
  for (int i = 0; i < warm_generations; ++i) generation(false, off);
  stack_->update_api();
}

Deployment::~Deployment() { stack_->stop_servers(); }

GenRecord Deployment::generation(bool traced, SpanRecorder& spans,
                                 std::mutex* serialize) {
  auto guard = [serialize] {
    return serialize ? std::unique_lock<std::mutex>(*serialize)
                     : std::unique_lock<std::mutex>();
  };
  GenRecord rec;
  rec.traced = traced && spans.enabled();
  uint64_t request = next_request_id_++;

  {
    SpanRecorder::Scope span(spans, "sim.step", 0, request);
    auto t0 = SteadyClock::now();
    sim_->step(kSimStepMs);
    rec.sim_ms = ms_between(t0, SteadyClock::now());
  }
  ++generations_;
  const bool checkpoint_due =
      generations_ >= kFirstCheckpoint &&
      (generations_ - kFirstCheckpoint) % kCheckpointEvery == 0;
  auto scrape_before = stack_->scraper().stats();

  if (!rec.traced) {
    auto lock = guard();
    auto t0 = SteadyClock::now();
    stack_->pipeline_step_forced();
    if (checkpoint_due) stack_->durable_tsdb()->checkpoint();
    rec.gen_ms = ms_between(t0, SteadyClock::now());
  } else {
    auto& stack = *stack_;
    auto& longterm = *stack.longterm();
    StageCounters& c = rec.counters;
    std::size_t hot_before = stack.hot_store()->stats().num_samples;
    uint64_t rows_before = agg_rows(longterm);
    auto wal_before = stack.durable_tsdb()->wal().stats();

    auto t0 = SteadyClock::now();
    {
      SpanRecorder::Scope root(spans, "generation", 0, request);
      TimestampMs now = clock_->now_ms();
      {
        auto lock = guard();
        SpanRecorder::Scope span(spans, "scrape", root.id(), request);
        c.scrape_samples = stack.scraper().scrape_all_once().samples_ingested;
      }
      {
        auto lock = guard();
        uint64_t d0 = decodes();
        SpanRecorder::Scope span(spans, "rules", root.id(), request);
        auto stats = stack.rules().evaluate_all(now);
        c.rules_evaluated = stats.rules_evaluated;
        c.rules_samples_written = stats.samples_written;
        c.rules_failures = stats.rule_failures;
        c.rules_chunks_decoded = decodes() - d0;
      }
      {
        auto lock = guard();
        SpanRecorder::Scope span(spans, "sync", root.id(), request);
        c.sync_copied = longterm.sync_from(*stack.hot_store());
      }
      {
        auto lock = guard();
        SpanRecorder::Scope span(spans, "compact", root.id(), request);
        longterm.compact(now);
      }
      if (checkpoint_due) {
        auto lock = guard();
        SpanRecorder::Scope span(spans, "checkpoint", root.id(), request);
        stack.durable_tsdb()->checkpoint();
      }
    }
    rec.gen_ms = ms_between(t0, SteadyClock::now());

    c.hot_gained = stack.hot_store()->stats().num_samples - hot_before;
    c.compact_buckets = agg_rows(longterm) - rows_before;
    auto wal_after = stack.durable_tsdb()->wal().stats();
    c.wal_bytes = wal_after.bytes - wal_before.bytes;
    c.wal_samples = wal_after.samples - wal_before.samples;
    c.wal_groups = wal_after.groups - wal_before.groups;
  }

  auto scrape_after = stack_->scraper().stats();
  rec.samples = scrape_after.samples_ingested - scrape_before.samples_ingested;
  rec.scrapes_failed = scrape_after.scrapes_failed - scrape_before.scrapes_failed;
  rec.scrape_retries = scrape_after.retries - scrape_before.retries;

  if (generations_ % kUpdateEvery == 0) {
    auto lock = guard();
    SpanRecorder::Scope span(spans, "update", 0, request);
    auto t0 = SteadyClock::now();
    auto stats = stack_->update_api();
    rec.update_ms = ms_between(t0, SteadyClock::now());
    rec.units_upserted = stats.units_upserted;
    rec.units_aggregated = stats.units_aggregated;
  }
  return rec;
}

}  // namespace stackbench
