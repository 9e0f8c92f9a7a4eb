#include "src/mqp/partitioned_matcher.h"

#include <algorithm>

namespace xymon::mqp {

SubscriptionPartitionedMatcher::SubscriptionPartitionedMatcher(
    size_t partitions) {
  if (partitions == 0) partitions = 1;
  parts_.reserve(partitions);
  for (size_t i = 0; i < partitions; ++i) {
    parts_.push_back(std::make_unique<AesMatcher>());
  }
}

Status SubscriptionPartitionedMatcher::Insert(ComplexEventId id,
                                              const EventSet& events) {
  size_t part = id % parts_.size();
  XYMON_RETURN_IF_ERROR(parts_[part]->Insert(id, events));
  if (owner_.size() <= id) owner_.resize(id + 1, SIZE_MAX);
  owner_[id] = part;
  return Status::OK();
}

Status SubscriptionPartitionedMatcher::Erase(ComplexEventId id) {
  if (id >= owner_.size() || owner_[id] == SIZE_MAX) {
    return Status::NotFound("complex event id " + std::to_string(id));
  }
  XYMON_RETURN_IF_ERROR(parts_[owner_[id]]->Erase(id));
  owner_[id] = SIZE_MAX;
  return Status::OK();
}

void SubscriptionPartitionedMatcher::Match(
    const EventSet& s, std::vector<ComplexEventId>* out) const {
  ++stats_.documents;
  for (const auto& part : parts_) {
    part->Match(s, out);
  }
}

size_t SubscriptionPartitionedMatcher::size() const {
  size_t n = 0;
  for (const auto& part : parts_) n += part->size();
  return n;
}

size_t SubscriptionPartitionedMatcher::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& part : parts_) bytes += part->MemoryUsage();
  return bytes;
}

size_t SubscriptionPartitionedMatcher::MaxPartitionBytes() const {
  size_t max_bytes = 0;
  for (const auto& part : parts_) {
    max_bytes = std::max(max_bytes, part->MemoryUsage());
  }
  return max_bytes;
}

}  // namespace xymon::mqp
