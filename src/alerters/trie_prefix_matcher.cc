#include "src/alerters/trie_prefix_matcher.h"

namespace xymon::alerters {

void TriePrefixMatcher::Add(std::string_view prefix, mqp::AtomicEvent code) {
  TrieNode* node = root_.get();
  for (char c : prefix) {
    auto& child = node->children[c];
    if (child == nullptr) {
      child = std::make_unique<TrieNode>();
      ++node_count_;
    }
    node = child.get();
  }
  node->code = code;
}

void TriePrefixMatcher::Remove(std::string_view prefix) {
  TrieNode* node = root_.get();
  for (char c : prefix) {
    auto it = node->children.find(c);
    if (it == node->children.end()) return;
    node = it->second.get();
  }
  node->code = mqp::kNoAtomicEvent;
  // Nodes are not pruned; Remove is rare and correctness is unaffected.
}

void TriePrefixMatcher::Match(std::string_view url,
                              std::vector<mqp::AtomicEvent>* out) const {
  const TrieNode* node = root_.get();
  for (char c : url) {
    auto it = node->children.find(c);
    if (it == node->children.end()) return;
    node = it->second.get();
    if (node->code != mqp::kNoAtomicEvent) out->push_back(node->code);
  }
}

size_t TriePrefixMatcher::MemoryUsage() const {
  // Per node: the node struct plus its hash-map overhead (measured
  // empirically ~80 bytes for libstdc++'s unordered_map with 1 entry).
  return node_count_ * (sizeof(TrieNode) + 80);
}

}  // namespace xymon::alerters
