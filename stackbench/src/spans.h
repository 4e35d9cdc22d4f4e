// In-memory span recorder for the traced run. The benchmark opens a span
// around every call it makes into a layer (name, start, end, parent span,
// request id), keeps them in memory and writes them out when the run ends.
// A span's self time is its duration minus the part of its interval that
// its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace stackbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the recorder's origin
  int64_t end_ns = -1;   // -1 while open
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans caused by one request/generation share it
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Returns the new span's id (0 when disabled).
  uint64_t begin(const std::string& name, uint64_t parent, uint64_t request);
  void end(uint64_t id);

  // RAII span; a disabled recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name, uint64_t parent,
          uint64_t request)
        : recorder_(recorder),
          id_(recorder.begin(name, parent, request)) {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    uint64_t id_;
  };

  // Self time (ms) of every closed span, grouped by span name.
  std::map<std::string, std::vector<double>> self_ms_by_name() const;
  // For every closed span named `name`: summed duration (ms) of its
  // direct children.
  std::vector<double> children_ms(const std::string& name) const;

  // Writes {"context": <context_json>, "spans": [...]} to `path`.
  bool write_json(const std::string& path,
                  const std::string& context_json) const;

 private:
  const bool enabled_;
  const SteadyClock::time_point origin_ = SteadyClock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

}  // namespace stackbench
