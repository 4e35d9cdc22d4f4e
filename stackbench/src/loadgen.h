// Open- and closed-loop load generators. Open loop: requests are due on a
// fixed schedule whatever the system does, and each is timed from when it
// was due, so a stall also charges the requests queued behind it. Closed
// loop: each client sends its next request only after the previous reply.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "mix.h"

namespace stackbench {

struct Outcome {
  double latency_ms = 0;  // completion - due time
  double lag_ms = 0;      // send start - due time (generator lateness)
};

struct OpenLoopResult {
  std::vector<Outcome> outcomes;  // index-aligned with the schedule
  std::vector<char> sent;         // false: stopped before it was sent
  // Requests not yet started when the last one fell due: a backlog that
  // grows over the phase ends here.
  std::size_t backlog = 0;
  double duration_s = 0;
};

// `send(thread, index)` performs schedule[index] on client `thread`.
using SendFn = std::function<void(int thread, std::size_t index)>;

// Requests not yet started when `*stop` becomes true are not sent.
OpenLoopResult run_open_loop(const std::vector<Scheduled>& schedule,
                             int threads, const SendFn& send,
                             const std::atomic<bool>* stop = nullptr);

struct ClosedLoopResult {
  std::size_t completed = 0;
  double duration_s = 0;
};

// Clients take indices 0, 1, ... (< count) until `duration_s` has passed.
ClosedLoopResult run_closed_loop(std::size_t count, int threads,
                                 double duration_s, const SendFn& send);

}  // namespace stackbench
