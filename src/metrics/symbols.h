// Symbol interning for label strings — the Prometheus symbol-table idea.
// Every distinct label name/value string is stored once per process in the
// global SymbolTable; label sets then travel as small vectors of 32-bit
// symbol ids (InternedLabels) with a precomputed fingerprint, making
// equality O(1)-ish (fingerprint compare + short id-vector compare) and
// per-sample label handling allocation-free after first sight.
//
// InternedLabels keeps the same canonical ordering (sorted by label *name
// string*) and the same FNV-1a fingerprint as Labels, so the two
// representations are interchangeable: converting back and forth is
// lossless and fingerprints agree bit-for-bit. Past ingestion the storage
// layer and the PromQL evaluator carry only InternedLabels; strings are
// materialised at the API boundary (DESIGN.md §14).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <regex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/labels.h"

namespace ceems::metrics {

// Process-wide thread-safe string interner. Symbol ids are dense, start at
// 0, and stay valid (with stable string storage) for the process lifetime;
// nothing is ever un-interned.
//
// text() is lock-free: strings live in fixed-size chunks that never move,
// and an id is published (release) only after its string is constructed,
// so a reader that acquires the published size may index the chunk
// directly. intern()/find() still take the lock around the hash index.
class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // The table shared by every metrics producer/consumer in the process.
  static SymbolTable& global();

  // Returns the id for `text`, inserting it on first sight.
  uint32_t intern(std::string_view text);
  // Lookup without insertion — nullopt when the string was never interned
  // (useful for matchers: an unknown value cannot match any series).
  std::optional<uint32_t> find(std::string_view text) const;
  // The string for an id. Views are backed by stable per-process storage
  // and remain valid forever; an out-of-range id returns an empty view.
  std::string_view text(uint32_t id) const {
    if (id >= size_.load(std::memory_order_acquire)) return {};
    return chunks_[id >> kChunkBits].load(std::memory_order_relaxed)
        [id & (kChunkSize - 1)];
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  // Approximate memory held by the table (string bytes + index overhead).
  std::size_t approx_bytes() const;

 private:
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kMaxChunks = 1u << 16;

  mutable std::shared_mutex mu_;  // guards ids_, string_bytes_, inserts
  // kMaxChunks slots; chunk i holds ids [i * kChunkSize, (i+1) * kChunkSize).
  std::unique_ptr<std::atomic<std::string*>[]> chunks_;
  std::atomic<uint32_t> size_{0};  // published ids: [0, size_)
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into chunks
  std::size_t string_bytes_ = 0;
};

// A label set as sorted (name, value) symbol-id pairs plus the precomputed
// 64-bit fingerprint of the equivalent Labels. Construction interns every
// string once; copies and comparisons afterwards never touch string bytes.
class InternedLabels {
 public:
  using SymbolPair = std::pair<uint32_t, uint32_t>;  // (name id, value id)

  InternedLabels() = default;
  // Implicit by design: lets Labels flow into Sample{...} literals and
  // other interned-label APIs without call-site churn.
  InternedLabels(const Labels& labels);  // NOLINT(google-explicit-constructor)
  // Test-only seam: same labels, forced fingerprint — used to exercise the
  // storage layer's fingerprint-collision chaining deterministically.
  InternedLabels(const Labels& labels, uint64_t fingerprint_override);

  // From pairs already in canonical order (e.g. a subset of another set's
  // pairs); computes the fingerprint without re-sorting.
  static InternedLabels from_sorted(std::vector<SymbolPair> syms);
  // Symbol of the metric name label, interned once per process.
  static uint32_t name_symbol();

  // Symbol pairs sorted by label name string (same canonical order as
  // Labels::pairs()).
  const std::vector<SymbolPair>& pairs() const { return syms_; }
  std::size_t size() const { return syms_.size(); }
  bool empty() const { return syms_.empty(); }

  uint64_t fingerprint() const { return fingerprint_; }

  // Value for a label name, or nullopt. The view stays valid for the
  // process lifetime (symbol storage is never freed).
  std::optional<std::string_view> get(std::string_view name) const;
  bool has(std::string_view name) const { return get(name).has_value(); }
  // Value symbol for a name symbol, or nullopt.
  std::optional<uint32_t> get_symbol(uint32_t name_sym) const {
    for (const auto& [n, v] : syms_) {
      if (n == name_sym) return v;
    }
    return std::nullopt;
  }
  // Convenience for the metric name label.
  std::string_view name() const;

  // Returns a copy with `name` set to `value` (replacing any existing),
  // interning both strings. The symbol overload skips the intern lookups
  // when the caller pre-interned (e.g. per-target scrape labels).
  InternedLabels with(std::string_view name, std::string_view value) const;
  InternedLabels with_symbols(uint32_t name_sym, uint32_t value_sym) const;
  // Returns a copy without the label `name_sym` (a plain copy if absent).
  InternedLabels without(uint32_t name_sym) const;
  InternedLabels without_name() const { return without(name_symbol()); }

  // Materialises the equivalent Labels (allocates; API-boundary use only).
  Labels to_labels() const;
  // Canonical rendering, identical to Labels::to_string().
  std::string to_string() const;

  bool operator==(const InternedLabels& other) const {
    return fingerprint_ == other.fingerprint_ && syms_ == other.syms_;
  }
  bool operator!=(const InternedLabels& other) const {
    return !(*this == other);
  }
  // The order of Labels::operator<: lexicographic over (name, value)
  // strings. Output orders (select, range results) are defined by it.
  bool operator<(const InternedLabels& other) const;

 private:
  std::vector<SymbolPair> syms_;
  uint64_t fingerprint_ = kEmptyFingerprint;

  // FNV-1a offset basis — the fingerprint of an empty label set, matching
  // Labels::fingerprint().
  static constexpr uint64_t kEmptyFingerprint = 0xcbf29ce484222325ULL;

  // Fingerprint of canonically ordered pairs — Labels::fingerprint() of
  // the equivalent string set.
  static uint64_t fingerprint_of(const std::vector<SymbolPair>& syms);
};

struct InternedLabelsHash {
  std::size_t operator()(const InternedLabels& labels) const {
    return static_cast<std::size_t>(labels.fingerprint());
  }
};

// A LabelMatcher with its label name (and an equality value) resolved to
// symbols once, so testing it against many interned label sets — a
// select's candidate series — takes no interner lock and no regex-cache
// lookup per set. Same semantics as LabelMatcher::matches: a missing
// label matches as the empty string. Holds a pointer to `matcher`, which
// must outlive it.
class SymbolMatcher {
 public:
  explicit SymbolMatcher(const LabelMatcher& matcher);
  bool matches(const InternedLabels& labels) const;

  const LabelMatcher& matcher() const { return *matcher_; }
  // Symbols resolved at construction; nullopt when never interned.
  std::optional<uint32_t> name_symbol() const { return name_sym_; }
  std::optional<uint32_t> value_symbol() const { return value_sym_; }

 private:
  const LabelMatcher* matcher_;
  std::optional<uint32_t> name_sym_;
  std::optional<uint32_t> value_sym_;  // kEq/kNe value, when interned
  // Compiled on first use. A SymbolMatcher belongs to one select call on
  // one thread, so the lazy fill needs no synchronisation.
  mutable std::shared_ptr<const std::regex> regex_;
};

// True when every matcher matches.
bool matches_all(const std::vector<SymbolMatcher>& matchers,
                 const InternedLabels& labels);
std::vector<SymbolMatcher> resolve_matchers(
    const std::vector<LabelMatcher>& matchers);

}  // namespace ceems::metrics
