#include "src/alerters/prefix_matcher.h"

namespace xymon::alerters {

void HashPrefixMatcher::Add(std::string_view prefix, mqp::AtomicEvent code) {
  prefixes_[std::string(prefix)] = code;
}

void HashPrefixMatcher::Remove(std::string_view prefix) {
  prefixes_.erase(std::string(prefix));
}

void HashPrefixMatcher::Match(std::string_view url,
                              std::vector<mqp::AtomicEvent>* out) const {
  // One lookup per prefix length. Reuses a buffer-free heterogenous lookup
  // via string_view materialization (the map key type forces a copy; the
  // paper's implementation shares the cost profile).
  std::string buf;
  buf.reserve(url.size());
  for (size_t len = 1; len <= url.size(); ++len) {
    buf.assign(url.substr(0, len));
    auto it = prefixes_.find(buf);
    if (it != prefixes_.end()) out->push_back(it->second);
  }
}

size_t HashPrefixMatcher::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [prefix, code] : prefixes_) {
    (void)code;
    // Node + key storage + bucket share.
    bytes += sizeof(void*) * 2 + sizeof(mqp::AtomicEvent) + 32 +
             prefix.capacity();
  }
  return bytes;
}

}  // namespace xymon::alerters
