#include "tsdb/storage.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "tsdb/wal.h"

namespace ceems::tsdb {

using metrics::SymbolTable;

const TimeSeriesStore::StoredSeries* TimeSeriesStore::find_series_locked(
    const Shard& shard, const InternedLabels& labels) {
  auto chain_it = shard.by_fp.find(labels.fingerprint());
  if (chain_it == shard.by_fp.end()) return nullptr;
  for (uint64_t id : chain_it->second) {
    const StoredSeries& stored = shard.series.at(id);
    // Fingerprints collide; trust only full label equality (a cheap
    // symbol-vector compare, no strings involved).
    if (stored.labels == labels) return &stored;
  }
  return nullptr;
}

TimeSeriesStore::StoredSeries& TimeSeriesStore::get_or_create_locked(
    Shard& shard, const InternedLabels& labels) {
  if (const StoredSeries* found = find_series_locked(shard, labels)) {
    return const_cast<StoredSeries&>(*found);
  }
  uint64_t id = shard.next_series_id++;
  auto [it, inserted] = shard.series.emplace(
      id, StoredSeries{labels, ChunkedSeries{}});
  shard.by_fp[labels.fingerprint()].push_back(id);
  for (const auto& [name_sym, value_sym] : labels.pairs()) {
    shard.index[name_sym][value_sym].insert(id);
  }
  return it->second;
}

void TimeSeriesStore::erase_series_locked(Shard& shard, uint64_t id) {
  auto it = shard.series.find(id);
  if (it == shard.series.end()) return;
  for (const auto& [name_sym, value_sym] : it->second.labels.pairs()) {
    auto name_it = shard.index.find(name_sym);
    if (name_it == shard.index.end()) continue;
    auto value_it = name_it->second.find(value_sym);
    if (value_it != name_it->second.end()) value_it->second.erase(id);
  }
  auto chain_it = shard.by_fp.find(it->second.labels.fingerprint());
  if (chain_it != shard.by_fp.end()) {
    auto& chain = chain_it->second;
    chain.erase(std::remove(chain.begin(), chain.end(), id), chain.end());
    if (chain.empty()) shard.by_fp.erase(chain_it);
  }
  shard.series.erase(it);
}

bool TimeSeriesStore::append_locked(Shard& shard, const InternedLabels& labels,
                                    TimestampMs t, double v) {
  StoredSeries& stored = get_or_create_locked(shard, labels);
  switch (stored.data.append(t, v)) {
    case AppendResult::kRejected:
      return false;  // out-of-order; Prometheus rejects these too
    case AppendResult::kOverwrote:
      return true;  // duplicate timestamp: last write wins, no new sample
    case AppendResult::kAppended:
      ++shard.num_samples;
      return true;
  }
  return false;
}

void TimeSeriesStore::set_wal(std::shared_ptr<Wal> wal) {
  wal_owner_ = std::move(wal);
  wal_.store(wal_owner_.get(), std::memory_order_release);
}

bool TimeSeriesStore::append(const Labels& labels, TimestampMs t, double v) {
  return append(InternedLabels(labels), t, v);
}

bool TimeSeriesStore::append(const InternedLabels& labels, TimestampMs t,
                             double v) {
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    metrics::SampleRef ref{&labels, t, v};
    guard = wal->commit_shared();
    wal->log_batch(&ref, 1);
  }
  Shard& shard = shards_[shard_of(labels.fingerprint())];
  std::unique_lock lock(shard.mu);
  bool accepted = append_locked(shard, labels, t, v);
  if (accepted) shard.version.fetch_add(1, std::memory_order_acq_rel);
  return accepted;
}

std::size_t TimeSeriesStore::append_all(
    const std::vector<metrics::Sample>& samples) {
  // One code path with append_refs: batch appends flow through the same
  // WAL logging and shard bucketing regardless of the caller's sample
  // representation. The ref vector is thread-local scratch, so steady
  // state allocates nothing.
  thread_local std::vector<metrics::SampleRef> refs;
  refs.clear();
  refs.reserve(samples.size());
  for (const auto& sample : samples) {
    refs.push_back({&sample.labels, sample.timestamp_ms, sample.value});
  }
  return append_refs(refs.data(), refs.size());
}

std::size_t TimeSeriesStore::append_refs(const metrics::SampleRef* samples,
                                         std::size_t count) {
  return append_refs(samples, count, count);
}

std::size_t TimeSeriesStore::append_refs(const metrics::SampleRef* samples,
                                         std::size_t count,
                                         std::size_t counted) {
  if (count == 0) return 0;
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    // Durable before applied: the guard spans log→apply so a checkpoint
    // (which takes the barrier exclusively) always sees both or neither.
    guard = wal->commit_shared();
    wal->log_batch(samples, count);
  }
  return apply_refs(samples, count, counted);
}

std::size_t TimeSeriesStore::apply_refs(const metrics::SampleRef* samples,
                                        std::size_t count,
                                        std::size_t counted) {
  // Bucket by shard first so each shard lock is acquired once per batch.
  // Sample labels arrive interned from the parser, so this reads the
  // precomputed fingerprint instead of hashing label strings. Buckets
  // are thread-local so their capacity persists across batches.
  thread_local std::array<std::vector<const metrics::SampleRef*>,
                          kShardCount>
      buckets;
  for (auto& bucket : buckets) bucket.clear();
  for (std::size_t i = 0; i < count; ++i) {
    buckets[shard_of(samples[i].labels->fingerprint())].push_back(
        &samples[i]);
  }
  const metrics::SampleRef* const counted_end =
      samples + std::min(counted, count);
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    bool mutated = false;
    for (const metrics::SampleRef* sample : buckets[s]) {
      if (append_locked(shard, *sample->labels, sample->timestamp_ms,
                        sample->value)) {
        mutated = true;
        if (sample < counted_end) ++accepted;
      }
    }
    // One version bump per shard per batch is enough for cache
    // invalidation (entries compare signatures for equality).
    if (mutated) shard.version.fetch_add(1, std::memory_order_acq_rel);
  }
  return accepted;
}

std::vector<uint64_t> TimeSeriesStore::match_ids(
    const Shard& shard, const std::vector<metrics::SymbolMatcher>& matchers) {
  // Walk the smallest equality matcher's posting set in place and filter
  // by every matcher, so a select copies no index set. Index keys are
  // symbol ids: a matcher whose name or value was never interned cannot
  // match any stored series.
  const std::set<uint64_t>* candidates = nullptr;
  for (const auto& matcher : matchers) {
    if (matcher.matcher().op != LabelMatcher::Op::kEq ||
        matcher.matcher().value.empty()) {
      continue;
    }
    auto name_sym = matcher.name_symbol();
    auto value_sym = matcher.value_symbol();
    if (!name_sym || !value_sym) return {};
    auto name_it = shard.index.find(*name_sym);
    if (name_it == shard.index.end()) return {};
    auto value_it = name_it->second.find(*value_sym);
    if (value_it == name_it->second.end() || value_it->second.empty())
      return {};
    if (!candidates || value_it->second.size() < candidates->size())
      candidates = &value_it->second;
  }

  std::vector<uint64_t> out;
  auto check = [&](uint64_t id, const StoredSeries& stored) {
    if (metrics::matches_all(matchers, stored.labels)) out.push_back(id);
  };
  if (candidates) {
    for (uint64_t id : *candidates) {
      auto it = shard.series.find(id);
      if (it != shard.series.end()) check(id, it->second);
    }
  } else {
    for (const auto& [id, stored] : shard.series) check(id, stored);
  }
  return out;
}

std::vector<SeriesView> TimeSeriesStore::select(
    const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
    TimestampMs max_t) const {
  const auto resolved = metrics::resolve_matchers(matchers);
  std::vector<SeriesView> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (uint64_t id : match_ids(shard, resolved)) {
      const StoredSeries& stored = shard.series.at(id);
      // Boundary chunks are decoded under the lock so emptiness is exact;
      // fully-covered chunks ride along compressed and refcounted.
      auto slices = stored.data.slices_between(min_t, max_t);
      if (slices.empty()) continue;
      out.push_back(SeriesView{stored.labels, std::move(slices)});
    }
  }
  // Deterministic output order: by label strings, as Labels would sort.
  std::sort(out.begin(), out.end(),
            [](const SeriesView& a, const SeriesView& b) {
              return a.labels < b.labels;
            });
  return out;
}

std::vector<uint64_t> TimeSeriesStore::version_signature() const {
  std::vector<uint64_t> out;
  out.reserve(kShardCount);
  for (const Shard& shard : shards_) {
    out.push_back(shard.version.load(std::memory_order_acquire));
  }
  return out;
}

std::vector<std::string> TimeSeriesStore::label_values(
    const std::string& label_name) const {
  auto name_sym = SymbolTable::global().find(label_name);
  if (!name_sym) return {};
  std::set<std::string> merged;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    auto it = shard.index.find(*name_sym);
    if (it == shard.index.end()) continue;
    for (const auto& [value_sym, ids] : it->second) {
      if (!ids.empty())
        merged.emplace(SymbolTable::global().text(value_sym));
    }
  }
  return {merged.begin(), merged.end()};
}

std::size_t TimeSeriesStore::purge_before(TimestampMs cutoff) {
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    guard = wal->commit_shared();
    wal->log_purge(cutoff);
  }
  std::size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    std::size_t shard_dropped = 0;
    std::vector<uint64_t> emptied;
    for (auto& [id, stored] : shard.series) {
      shard_dropped += stored.data.drop_before(cutoff);
      if (stored.data.empty()) emptied.push_back(id);
    }
    for (uint64_t id : emptied) erase_series_locked(shard, id);
    if (shard_dropped > 0) {
      shard.num_samples -= shard_dropped;
      shard.version.fetch_add(1, std::memory_order_acq_rel);
    }
    dropped += shard_dropped;
  }
  return dropped;
}

std::size_t TimeSeriesStore::delete_series(
    const std::vector<LabelMatcher>& matchers) {
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    guard = wal->commit_shared();
    wal->log_delete(matchers);
  }
  const auto resolved = metrics::resolve_matchers(matchers);
  std::size_t deleted = 0;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    bool mutated = false;
    for (uint64_t id : match_ids(shard, resolved)) {
      auto it = shard.series.find(id);
      if (it == shard.series.end()) continue;
      shard.num_samples -= it->second.data.num_samples();
      erase_series_locked(shard, id);
      ++deleted;
      mutated = true;
    }
    if (mutated) shard.version.fetch_add(1, std::memory_order_acq_rel);
  }
  return deleted;
}

void TimeSeriesStore::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.series.clear();
    shard.by_fp.clear();
    shard.index.clear();
    shard.num_samples = 0;
    // Versions keep counting up (never reset) so query-cache entries
    // recorded before the clear can never validate afterwards.
    shard.version.fetch_add(1, std::memory_order_acq_rel);
  }
}

StorageStats TimeSeriesStore::stats() const {
  StorageStats stats;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    stats.num_series += shard.series.size();
    stats.num_samples += shard.num_samples;
    for (const auto& [id, stored] : shard.series) {
      stats.approx_bytes += stored.data.approx_bytes();
      stats.approx_bytes +=
          stored.labels.size() * sizeof(InternedLabels::SymbolPair);
    }
  }
  // Label strings live once in the process-wide symbol table, shared by
  // every store in the process: keep them out of approx_bytes (which
  // callers sum across stores) and report them in their own field.
  stats.symbol_bytes = SymbolTable::global().approx_bytes();
  return stats;
}

std::optional<TimestampMs> TimeSeriesStore::max_time() const {
  std::optional<TimestampMs> max_t;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, stored] : shard.series) {
      if (stored.data.empty()) continue;
      if (!max_t || stored.data.max_time() > *max_t)
        max_t = stored.data.max_time();
    }
  }
  return max_t;
}

std::vector<Series> TimeSeriesStore::series_since(TimestampMs since) const {
  std::vector<Series> out;
  constexpr TimestampMs kMax = std::numeric_limits<TimestampMs>::max();
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, stored] : shard.series) {
      if (stored.data.empty() || stored.data.max_time() < since) continue;
      auto samples = stored.data.samples_between(since, kMax);
      if (samples.empty()) continue;
      out.push_back(Series{stored.labels.to_labels(), std::move(samples)});
    }
  }
  return out;
}

void TimeSeriesStore::visit_shard_since(
    std::size_t shard_index, TimestampMs since,
    const std::function<void(const metrics::SampleRef*, std::size_t)>& fn)
    const {
  constexpr TimestampMs kMax = std::numeric_limits<TimestampMs>::max();
  // Thread-local so its capacity persists across pulls.
  thread_local std::vector<metrics::SampleRef> refs;
  refs.clear();
  const Shard& shard = shards_[shard_index];
  std::shared_lock lock(shard.mu);
  for (const auto& [id, stored] : shard.series) {
    const ChunkedSeries& data = stored.data;
    if (data.empty() || data.max_time() < since) continue;
    if (data.sealed().empty() || data.sealed().back()->max_time() < since) {
      // Steady state: everything new is still in the mutable head.
      for (const auto& sample : data.head()) {
        if (sample.t >= since)
          refs.push_back({&stored.labels, sample.t, sample.v});
      }
      continue;
    }
    for (const auto& sample : data.samples_between(since, kMax)) {
      refs.push_back({&stored.labels, sample.t, sample.v});
    }
  }
  fn(refs.data(), refs.size());
}

namespace {

// v2: sealed chunks written compressed. v1 (raw samples) is still read.
constexpr char kSnapshotMagicV2[] = "CEEMSTSDB2";
constexpr char kSnapshotMagicV1[] = "CEEMSTSDB1";
static_assert(sizeof(kSnapshotMagicV2) == sizeof(kSnapshotMagicV1));

void put_u64(std::string& out, uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}
void put_f64(std::string& out, double value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}
void put_string(std::string& out, std::string_view text) {
  put_u64(out, text.size());
  out.append(text);
}
bool get_u64(std::istream& in, uint64_t& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return in.good();
}
bool get_f64(std::istream& in, double& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return in.good();
}
bool get_string(std::istream& in, std::string& text) {
  uint64_t size = 0;
  if (!get_u64(in, size) || size > (1u << 20)) return false;
  text.resize(size);
  in.read(text.data(), static_cast<std::streamsize>(size));
  return in.good();
}

// Reads one label set; false on malformed input.
bool get_labels(std::istream& in, Labels& out) {
  uint64_t num_labels = 0;
  if (!get_u64(in, num_labels) || num_labels > 256) return false;
  std::vector<Labels::Pair> pairs;
  pairs.reserve(num_labels);
  for (uint64_t l = 0; l < num_labels; ++l) {
    std::string name, value;
    if (!get_string(in, name) || !get_string(in, value)) return false;
    pairs.emplace_back(std::move(name), std::move(value));
  }
  out = Labels(std::move(pairs));
  return true;
}

}  // namespace

bool TimeSeriesStore::snapshot_to(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  std::string bytes = snapshot_bytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::string TimeSeriesStore::snapshot_bytes() const {
  std::string out;
  append_snapshot(out);
  return out;
}

void TimeSeriesStore::append_snapshot(std::string& out) const {
  // Hold every shard lock (in index order, so concurrent snapshots cannot
  // deadlock) for a consistent cut across shards.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(kShardCount);
  for (const Shard& shard : shards_) locks.emplace_back(shard.mu);
  const SymbolTable& table = SymbolTable::global();

  // Size pass: the buffer grows once, to exactly the encoded size.
  std::size_t num_series = 0;
  std::size_t size = sizeof(kSnapshotMagicV2) - 1 + sizeof(uint64_t);
  for (const Shard& shard : shards_) {
    num_series += shard.series.size();
    for (const auto& [id, stored] : shard.series) {
      size += 3 * sizeof(uint64_t);  // label, chunk and head counts
      for (const auto& [name_sym, value_sym] : stored.labels.pairs()) {
        size += 2 * sizeof(uint64_t) + table.text(name_sym).size() +
                table.text(value_sym).size();
      }
      for (const ChunkPtr& chunk : stored.data.sealed()) {
        size += 4 * sizeof(uint64_t) + chunk->bytes().size();
      }
      size += stored.data.head().size() * (sizeof(uint64_t) + sizeof(double));
    }
  }
  out.reserve(out.size() + size);

  out.append(kSnapshotMagicV2, sizeof(kSnapshotMagicV2) - 1);
  put_u64(out, num_series);
  for (const Shard& shard : shards_) {
    for (const auto& [id, stored] : shard.series) {
      put_u64(out, stored.labels.size());
      for (const auto& [name_sym, value_sym] : stored.labels.pairs()) {
        put_string(out, table.text(name_sym));
        put_string(out, table.text(value_sym));
      }
      put_u64(out, stored.data.sealed().size());
      for (const ChunkPtr& chunk : stored.data.sealed()) {
        put_u64(out, chunk->count());
        put_u64(out, static_cast<uint64_t>(chunk->min_time()));
        put_u64(out, static_cast<uint64_t>(chunk->max_time()));
        put_u64(out, chunk->bytes().size());
        out.append(reinterpret_cast<const char*>(chunk->bytes().data()),
                   chunk->bytes().size());
      }
      put_u64(out, stored.data.head().size());
      for (const auto& sample : stored.data.head()) {
        put_u64(out, static_cast<uint64_t>(sample.t));
        put_f64(out, sample.v);
      }
    }
  }
}

std::optional<std::size_t> TimeSeriesStore::restore_from(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  return restore_stream(in);
}

std::optional<std::size_t> TimeSeriesStore::restore_from_bytes(
    std::string_view bytes) {
  std::istringstream in(std::string(bytes), std::ios::binary);
  return restore_stream(in);
}

std::optional<std::size_t> TimeSeriesStore::restore_stream(std::istream& in) {
  char magic[sizeof(kSnapshotMagicV2) - 1];
  in.read(magic, sizeof(magic));
  if (!in.good()) return std::nullopt;
  std::string_view version(magic, sizeof(magic));

  // Stage 1: parse and validate the whole file into scratch structures.
  // Nothing touches the shards until the snapshot is known-good, so a
  // corrupt or truncated file can never leave a partial restore applied.
  struct StagedSeries {
    Labels labels;
    std::vector<ChunkPtr> chunks;       // sealed (v2 only)
    std::vector<SamplePoint> samples;   // head (v2) or raw run (v1)
  };
  std::vector<StagedSeries> staged;

  if (version == kSnapshotMagicV1) {
    // Legacy raw-sample format.
    uint64_t num_series = 0;
    if (!get_u64(in, num_series)) return std::nullopt;
    staged.reserve(num_series);
    for (uint64_t s = 0; s < num_series; ++s) {
      StagedSeries entry;
      if (!get_labels(in, entry.labels)) return std::nullopt;
      uint64_t num_samples = 0;
      if (!get_u64(in, num_samples)) return std::nullopt;
      entry.samples.resize(num_samples);
      for (uint64_t i = 0; i < num_samples; ++i) {
        uint64_t t = 0;
        if (!get_u64(in, t) || !get_f64(in, entry.samples[i].v))
          return std::nullopt;
        entry.samples[i].t = static_cast<TimestampMs>(t);
      }
      staged.push_back(std::move(entry));
    }
  } else if (version == kSnapshotMagicV2) {
    uint64_t num_series = 0;
    if (!get_u64(in, num_series)) return std::nullopt;
    staged.reserve(num_series);
    for (uint64_t s = 0; s < num_series; ++s) {
      StagedSeries entry;
      if (!get_labels(in, entry.labels)) return std::nullopt;
      uint64_t num_sealed = 0;
      if (!get_u64(in, num_sealed) || num_sealed > (1u << 24))
        return std::nullopt;
      entry.chunks.reserve(num_sealed);
      for (uint64_t c = 0; c < num_sealed; ++c) {
        uint64_t count = 0, min_t = 0, max_t = 0, nbytes = 0;
        if (!get_u64(in, count) || !get_u64(in, min_t) ||
            !get_u64(in, max_t) || !get_u64(in, nbytes)) {
          return std::nullopt;
        }
        // Sanity caps: a chunk never exceeds the seal threshold by much,
        // and its payload is bounded by ~17 bytes/sample worst case.
        if (count == 0 || count > (1u << 20) || nbytes > (1u << 26))
          return std::nullopt;
        std::vector<uint8_t> bytes(nbytes);
        in.read(reinterpret_cast<char*>(bytes.data()),
                static_cast<std::streamsize>(nbytes));
        if (!in.good()) return std::nullopt;
        ChunkPtr chunk = GorillaChunk::from_parts(
            std::move(bytes), static_cast<uint32_t>(count),
            static_cast<TimestampMs>(min_t), static_cast<TimestampMs>(max_t));
        if (!chunk) return std::nullopt;  // corrupt: header/body mismatch
        entry.chunks.push_back(std::move(chunk));
      }
      uint64_t num_head = 0;
      if (!get_u64(in, num_head) || num_head > (1u << 24)) return std::nullopt;
      entry.samples.resize(num_head);
      for (uint64_t i = 0; i < num_head; ++i) {
        uint64_t t = 0;
        if (!get_u64(in, t) || !get_f64(in, entry.samples[i].v))
          return std::nullopt;
        entry.samples[i].t = static_cast<TimestampMs>(t);
      }
      staged.push_back(std::move(entry));
    }
  } else {
    return std::nullopt;
  }

  // Stage 2: commit. Only counted appends (kAppended) bump num_samples;
  // duplicates merging into existing data overwrite without counting.
  std::size_t restored = 0;
  for (StagedSeries& entry : staged) {
    // Intern once per series; every sample below reuses the fingerprint.
    InternedLabels interned(entry.labels);
    Shard& shard = shards_[shard_of(interned.fingerprint())];
    std::unique_lock lock(shard.mu);
    StoredSeries& stored = get_or_create_locked(shard, interned);
    std::size_t series_restored = 0;
    for (ChunkPtr& chunk : entry.chunks) {
      if (stored.data.adopt_sealed(chunk)) {
        // Empty-store fast path: the compressed chunk is adopted verbatim,
        // no re-encode.
        series_restored += chunk->count();
      } else {
        // Merging into existing data: replay samples individually. The
        // chunk was decode-validated by from_parts, so decode succeeds.
        auto decoded = chunk->decode();
        if (!decoded) continue;
        for (const auto& sp : *decoded) {
          if (stored.data.append(sp.t, sp.v) == AppendResult::kAppended)
            ++series_restored;
        }
      }
    }
    for (const auto& sp : entry.samples) {
      if (stored.data.append(sp.t, sp.v) == AppendResult::kAppended)
        ++series_restored;
    }
    if (series_restored > 0) {
      shard.num_samples += series_restored;
      shard.version.fetch_add(1, std::memory_order_acq_rel);
      restored += series_restored;
    }
  }
  return restored;
}

}  // namespace ceems::tsdb
