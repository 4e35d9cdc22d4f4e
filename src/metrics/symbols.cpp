#include "metrics/symbols.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "metrics/regex_cache.h"

namespace ceems::metrics {

SymbolTable::SymbolTable()
    : chunks_(std::make_unique<std::atomic<std::string*>[]>(kMaxChunks)) {}

SymbolTable::~SymbolTable() {
  for (uint32_t i = 0; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
  }
}

SymbolTable& SymbolTable::global() {
  static SymbolTable* table = new SymbolTable();  // immortal, like the ids
  return *table;
}

uint32_t SymbolTable::intern(std::string_view text) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(text);  // raced insert between the two locks
  if (it != ids_.end()) return it->second;
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const uint32_t chunk = id >> kChunkBits;
  if (chunk >= kMaxChunks) throw std::length_error("symbol table full");
  std::string* strings = chunks_[chunk].load(std::memory_order_relaxed);
  if (!strings) {
    strings = new std::string[kChunkSize];
    chunks_[chunk].store(strings, std::memory_order_relaxed);
  }
  std::string& slot = strings[id & (kChunkSize - 1)];
  slot.assign(text);
  ids_.emplace(std::string_view(slot), id);
  string_bytes_ += text.size();
  // Publishes the string (and its chunk) to lock-free text() readers.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

std::optional<uint32_t> SymbolTable::find(std::string_view text) const {
  std::shared_lock lock(mu_);
  auto it = ids_.find(text);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::size_t SymbolTable::approx_bytes() const {
  std::shared_lock lock(mu_);
  return string_bytes_ +
         size() * (sizeof(std::string) + sizeof(std::string_view) +
                   sizeof(uint32_t) + 2 * sizeof(void*));
}

InternedLabels::InternedLabels(const Labels& labels) {
  SymbolTable& table = SymbolTable::global();
  syms_.reserve(labels.size());
  for (const auto& [name, value] : labels.pairs()) {
    syms_.emplace_back(table.intern(name), table.intern(value));
  }
  fingerprint_ = labels.fingerprint();
}

InternedLabels::InternedLabels(const Labels& labels,
                               uint64_t fingerprint_override)
    : InternedLabels(labels) {
  fingerprint_ = fingerprint_override;
}

uint64_t InternedLabels::fingerprint_of(const std::vector<SymbolPair>& syms) {
  const SymbolTable& table = SymbolTable::global();
  // Same FNV-1a-with-separators scheme as Labels::fingerprint().
  uint64_t hash = kEmptyFingerprint;
  auto mix = [&hash](std::string_view text) {
    for (char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xff;
    hash *= 0x100000001b3ULL;
  };
  for (const auto& [name_sym, value_sym] : syms) {
    mix(table.text(name_sym));
    mix(table.text(value_sym));
  }
  return hash;
}

InternedLabels InternedLabels::from_sorted(std::vector<SymbolPair> syms) {
  InternedLabels out;
  out.fingerprint_ = fingerprint_of(syms);
  out.syms_ = std::move(syms);
  return out;
}

uint32_t InternedLabels::name_symbol() {
  static const uint32_t sym = SymbolTable::global().intern(kMetricNameLabel);
  return sym;
}

std::optional<std::string_view> InternedLabels::get(
    std::string_view name) const {
  SymbolTable& table = SymbolTable::global();
  auto name_sym = table.find(name);
  if (!name_sym) return std::nullopt;
  auto value_sym = get_symbol(*name_sym);
  if (!value_sym) return std::nullopt;
  return table.text(*value_sym);
}

std::string_view InternedLabels::name() const {
  auto value_sym = get_symbol(name_symbol());
  return value_sym ? SymbolTable::global().text(*value_sym)
                   : std::string_view{};
}

InternedLabels InternedLabels::with(std::string_view name,
                                    std::string_view value) const {
  SymbolTable& table = SymbolTable::global();
  return with_symbols(table.intern(name), table.intern(value));
}

InternedLabels InternedLabels::with_symbols(uint32_t name_sym,
                                            uint32_t value_sym) const {
  std::vector<SymbolPair> syms;
  syms.reserve(syms_.size() + 1);
  syms.assign(syms_.begin(), syms_.end());
  auto same = std::find_if(syms.begin(), syms.end(), [&](const SymbolPair& p) {
    return p.first == name_sym;
  });
  if (same != syms.end()) {
    same->second = value_sym;
  } else {
    const SymbolTable& table = SymbolTable::global();
    std::string_view name = table.text(name_sym);
    auto at = std::find_if(syms.begin(), syms.end(), [&](const SymbolPair& p) {
      return name < table.text(p.first);
    });
    syms.insert(at, {name_sym, value_sym});
  }
  return from_sorted(std::move(syms));
}

InternedLabels InternedLabels::without(uint32_t name_sym) const {
  auto it = std::find_if(syms_.begin(), syms_.end(), [&](const SymbolPair& p) {
    return p.first == name_sym;
  });
  if (it == syms_.end()) return *this;
  std::vector<SymbolPair> syms;
  syms.reserve(syms_.size() - 1);
  syms.insert(syms.end(), syms_.begin(), it);
  syms.insert(syms.end(), it + 1, syms_.end());
  return from_sorted(std::move(syms));
}

Labels InternedLabels::to_labels() const {
  SymbolTable& table = SymbolTable::global();
  std::vector<Labels::Pair> pairs;
  pairs.reserve(syms_.size());
  for (const auto& [name_sym, value_sym] : syms_) {
    pairs.emplace_back(std::string(table.text(name_sym)),
                       std::string(table.text(value_sym)));
  }
  return Labels(std::move(pairs));
}

std::string InternedLabels::to_string() const {
  const SymbolTable& table = SymbolTable::global();
  std::string out = "{";
  bool first = true;
  for (const auto& [name_sym, value_sym] : syms_) {
    if (!first) out += ",";
    first = false;
    out += table.text(name_sym);
    out += "=\"";
    out += table.text(value_sym);
    out += "\"";
  }
  out += "}";
  return out;
}

bool InternedLabels::operator<(const InternedLabels& other) const {
  const SymbolTable& table = SymbolTable::global();
  const std::size_t n = std::min(syms_.size(), other.syms_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SymbolPair& a = syms_[i];
    const SymbolPair& b = other.syms_[i];
    // Interning is injective: equal ids are equal strings and different
    // ids different strings, so only a differing id needs its text.
    if (a.first != b.first) return table.text(a.first) < table.text(b.first);
    if (a.second != b.second) {
      return table.text(a.second) < table.text(b.second);
    }
  }
  return syms_.size() < other.syms_.size();
}

SymbolMatcher::SymbolMatcher(const LabelMatcher& matcher) : matcher_(&matcher) {
  const SymbolTable& table = SymbolTable::global();
  name_sym_ = table.find(matcher.name);
  switch (matcher.op) {
    case LabelMatcher::Op::kEq:
    case LabelMatcher::Op::kNe:
      value_sym_ = table.find(matcher.value);
      break;
    case LabelMatcher::Op::kRegexMatch:
    case LabelMatcher::Op::kRegexNoMatch:
      break;  // compiled on first use, like LabelMatcher::matches
  }
}

bool SymbolMatcher::matches(const InternedLabels& labels) const {
  std::optional<uint32_t> actual;
  if (name_sym_) actual = labels.get_symbol(*name_sym_);
  switch (matcher_->op) {
    case LabelMatcher::Op::kEq:
    case LabelMatcher::Op::kNe: {
      bool equal;
      if (actual && value_sym_) {
        equal = *actual == *value_sym_;
      } else if (actual) {
        // Interned after this matcher was resolved (a concurrent write).
        equal = SymbolTable::global().text(*actual) == matcher_->value;
      } else {
        equal = matcher_->value.empty();
      }
      return matcher_->op == LabelMatcher::Op::kEq ? equal : !equal;
    }
    case LabelMatcher::Op::kRegexMatch:
    case LabelMatcher::Op::kRegexNoMatch: {
      // PromQL regexes are fully anchored (same behaviour as the Labels
      // overload in labels.cpp).
      std::string_view value =
          actual ? SymbolTable::global().text(*actual) : std::string_view{};
      if (!regex_) regex_ = compiled_anchored_regex(matcher_->value);
      bool match = std::regex_search(value.begin(), value.end(), *regex_);
      return matcher_->op == LabelMatcher::Op::kRegexMatch ? match : !match;
    }
  }
  return false;
}

bool matches_all(const std::vector<SymbolMatcher>& matchers,
                 const InternedLabels& labels) {
  for (const auto& matcher : matchers) {
    if (!matcher.matches(labels)) return false;
  }
  return true;
}

std::vector<SymbolMatcher> resolve_matchers(
    const std::vector<LabelMatcher>& matchers) {
  std::vector<SymbolMatcher> out;
  out.reserve(matchers.size());
  for (const auto& matcher : matchers) out.emplace_back(matcher);
  return out;
}

bool LabelMatcher::matches(const InternedLabels& labels) const {
  return SymbolMatcher(*this).matches(labels);
}

}  // namespace ceems::metrics
