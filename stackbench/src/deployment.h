// One simulated Jean-Zay slice plus a whole core::CeemsStack over it, and
// the closed generation loop that drives them: sim step (30 s), then one
// monitoring generation, with a hot-WAL checkpoint every 20 generations
// and the API-server updater every 2nd generation (the paper's 60 s).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/stack.h"
#include "simfs/durable_dir.h"
#include "spans.h"

namespace stackbench {

inline constexpr int64_t kSimStepMs = 30 * 1000;
inline constexpr int kCheckpointEvery = 20;
// Generation (counting the warm-up ones) on which the first checkpoint
// falls due. A run holds 14 to 20 generations, so counting from the 20th
// would time none. The 7th is the 5th timed generation: in the first
// write segment, and one the trace run traces (mind this when changing the
// warm-up or the trace run's alternation).
inline constexpr int kFirstCheckpoint = 7;
inline constexpr int kUpdateEvery = 2;

// Work counters of one traced generation (zero in untraced ones).
struct StageCounters {
  uint64_t scrape_samples = 0;
  uint64_t rules_evaluated = 0;
  uint64_t rules_samples_written = 0;
  uint64_t rules_failures = 0;
  uint64_t rules_chunks_decoded = 0;
  uint64_t sync_copied = 0;
  uint64_t hot_gained = 0;  // hot-store samples added by the generation
  uint64_t compact_buckets = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_samples = 0;
  uint64_t wal_groups = 0;
};

struct GenRecord {
  bool traced = false;
  double sim_ms = 0;
  double gen_ms = 0;        // pipeline + any due checkpoint
  double update_ms = -1;    // -1: the updater did not run
  uint64_t samples = 0;     // scrape samples ingested
  uint64_t scrapes_failed = 0;
  uint64_t scrape_retries = 0;
  std::size_t units_upserted = 0;
  std::size_t units_aggregated = 0;
  StageCounters counters;
};

class Deployment {
 public:
  // Builds a `nodes`-node cluster from `seed`, runs the simulator alone for
  // `prewarm_ms` so the job mix reaches steady state, then builds the
  // stack and runs `warm_generations` untimed generations plus one update.
  Deployment(int nodes, uint64_t seed, int64_t prewarm_ms,
             int warm_generations);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // One closed-loop iteration. Untraced: times pipeline_step_forced()
  // itself. Traced: calls the five stages one by one under spans and
  // collects per-stage counters. `serialize`, when set, is held around
  // every call into the stack, so a concurrent traced reader's counter
  // deltas attribute to its own call.
  GenRecord generation(bool traced, SpanRecorder& spans,
                       std::mutex* serialize = nullptr);

  ceems::core::CeemsStack& stack() { return *stack_; }
  ceems::slurm::ClusterSim& sim() { return *sim_; }
  int64_t now_ms() const { return clock_->now_ms(); }
  const std::shared_ptr<ceems::simfs::SimDurableDir>& durable_dir() const {
    return dir_;
  }

 private:
  std::shared_ptr<ceems::common::SimClock> clock_;
  std::unique_ptr<ceems::slurm::ClusterSim> sim_;
  std::shared_ptr<ceems::simfs::SimDurableDir> dir_;
  std::unique_ptr<ceems::core::CeemsStack> stack_;
  int generations_ = 0;
  uint64_t next_request_id_ = 1;
};

}  // namespace stackbench
