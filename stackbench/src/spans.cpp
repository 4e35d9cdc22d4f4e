#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace stackbench {

uint64_t SpanRecorder::begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - origin_)
                    .count();
  std::lock_guard lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(uint64_t id) {
  if (!enabled_ || id == 0) return;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - origin_)
                    .count();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::vector<double> SpanRecorder::children_ms(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::map<uint64_t, double> by_parent;
  for (const auto& span : spans_) {
    if (span.name == name && span.end_ns >= 0) by_parent[span.id] = 0;
  }
  for (const auto& span : spans_) {
    auto it = by_parent.find(span.parent);
    if (it != by_parent.end() && span.end_ns >= 0)
      it->second += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  std::vector<double> out;
  for (const auto& [id, ms] : by_parent) out.push_back(ms);
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_ms_by_name()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size() + 1);
  for (const auto& span : spans_) {
    if (span.end_ns < 0 || span.parent == 0) continue;
    children[span.parent].push_back({span.start_ns, span.end_ns});
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& span : spans_) {
    if (span.end_ns < 0) continue;
    auto& kids = children[span.id];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to this span.
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6);
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& context_json) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  std::lock_guard lock(mu_);
  std::fprintf(file, "{\"context\": %s,\n\"spans\": [\n", context_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 span.name.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace stackbench
