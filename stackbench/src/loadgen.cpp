#include "loadgen.h"

#include <atomic>
#include <thread>

#include "util.h"

namespace stackbench {

OpenLoopResult run_open_loop(const std::vector<Scheduled>& schedule,
                             int threads, const SendFn& send,
                             const std::atomic<bool>* stop) {
  OpenLoopResult result;
  result.outcomes.resize(schedule.size());
  result.sent.assign(schedule.size(), 0);
  std::vector<SteadyClock::time_point> started(schedule.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = SteadyClock::now();
  auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s));
  };
  auto worker = [&](int thread) {
    for (;;) {
      std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      auto due = due_at(i);
      std::this_thread::sleep_until(due);
      if (stop && stop->load()) return;
      auto start = SteadyClock::now();
      send(thread, i);
      auto done = SteadyClock::now();
      started[i] = start;
      result.sent[i] = 1;
      result.outcomes[i].latency_ms = ms_between(due, done);
      result.outcomes[i].lag_ms = ms_between(due, start);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& thread : pool) thread.join();
  result.duration_s = seconds_since(t0);
  if (!schedule.empty()) {
    auto last_due = due_at(schedule.size() - 1);
    for (std::size_t i = 0; i < started.size(); ++i) {
      if (result.sent[i] && started[i] > last_due) ++result.backlog;
    }
  }
  return result;
}

ClosedLoopResult run_closed_loop(std::size_t count, int threads,
                                 double duration_s, const SendFn& send) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  const auto t0 = SteadyClock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double>(duration_s));
  auto worker = [&](int thread) {
    while (SteadyClock::now() < deadline) {
      std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      send(thread, i);
      ++completed;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& thread : pool) thread.join();
  return {completed.load(), seconds_since(t0)};
}

}  // namespace stackbench
