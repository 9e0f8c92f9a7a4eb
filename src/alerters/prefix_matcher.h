#ifndef XYMON_ALERTERS_PREFIX_MATCHER_H_
#define XYMON_ALERTERS_PREFIX_MATCHER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/mqp/event.h"

namespace xymon::alerters {

/// Detection of `URL extends string` patterns (paper §6.2): given a fetched
/// URL, find the codes of every registered prefix it extends. The paper
/// implemented a hash-table variant and tried a dictionary (trie) that was
/// ~30% faster but too memory-hungry. The monitor ships the hash variant;
/// the trie is a bench baseline (trie_prefix_matcher.h) and
/// bench_url_alerter reproduces the trade-off.
class PrefixMatcher {
 public:
  virtual ~PrefixMatcher() = default;

  virtual void Add(std::string_view prefix, mqp::AtomicEvent code) = 0;
  virtual void Remove(std::string_view prefix) = 0;
  /// Appends the codes of all prefixes of `url` (including `url` itself).
  virtual void Match(std::string_view url,
                     std::vector<mqp::AtomicEvent>* out) const = 0;
  virtual size_t MemoryUsage() const = 0;
  virtual const char* name() const = 0;
};

/// Hash-table variant: one probe per URL prefix length ("we look up each of
/// its prefixes"; the dominating cost is the look-up in the million-records
/// hash table).
class HashPrefixMatcher final : public PrefixMatcher {
 public:
  void Add(std::string_view prefix, mqp::AtomicEvent code) override;
  void Remove(std::string_view prefix) override;
  void Match(std::string_view url,
             std::vector<mqp::AtomicEvent>* out) const override;
  size_t MemoryUsage() const override;
  const char* name() const override { return "hash"; }

 private:
  std::unordered_map<std::string, mqp::AtomicEvent> prefixes_;
};

}  // namespace xymon::alerters

#endif  // XYMON_ALERTERS_PREFIX_MATCHER_H_
