#ifndef XYMON_ALERTERS_TRIE_PREFIX_MATCHER_H_
#define XYMON_ALERTERS_TRIE_PREFIX_MATCHER_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/alerters/prefix_matcher.h"

namespace xymon::alerters {

/// Byte-trie variant ("dictionary structure"): one walk down the trie per
/// URL, collecting marks along the way. Linear in |url| regardless of the
/// number of patterns, at a per-node memory overhead. The paper measured it
/// ~30% faster than the hash variant but rejected it for that overhead
/// (§6.2), so it is a baseline for T-URL, not part of the monitor.
class TriePrefixMatcher : public PrefixMatcher {
 public:
  TriePrefixMatcher() : root_(std::make_unique<TrieNode>()) {}

  void Add(std::string_view prefix, mqp::AtomicEvent code) override;
  void Remove(std::string_view prefix) override;
  void Match(std::string_view url,
             std::vector<mqp::AtomicEvent>* out) const override;
  size_t MemoryUsage() const override;
  const char* name() const override { return "trie"; }

 private:
  struct TrieNode {
    mqp::AtomicEvent code = mqp::kNoAtomicEvent;
    std::unordered_map<char, std::unique_ptr<TrieNode>> children;
  };

  std::unique_ptr<TrieNode> root_;
  size_t node_count_ = 1;
};

}  // namespace xymon::alerters

#endif  // XYMON_ALERTERS_TRIE_PREFIX_MATCHER_H_
