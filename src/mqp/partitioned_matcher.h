#ifndef XYMON_MQP_PARTITIONED_MATCHER_H_
#define XYMON_MQP_PARTITIONED_MATCHER_H_

#include <memory>
#include <vector>

#include "src/mqp/aes_matcher.h"
#include "src/mqp/matcher.h"

namespace xymon::mqp {

/// Memory-axis distribution (paper §4.2, "we can split the subscriptions
/// into several partitions and assign a Monitoring Query Processor to each
/// block"): complex events are spread round-robin over N matchers, every
/// alert is offered to all partitions. Each partition's structure is ~N×
/// smaller, so partitions can live on separate machines.
class SubscriptionPartitionedMatcher : public Matcher {
 public:
  explicit SubscriptionPartitionedMatcher(size_t partitions);

  Status Insert(ComplexEventId id, const EventSet& events) override;
  Status Erase(ComplexEventId id) override;
  void Match(const EventSet& s,
             std::vector<ComplexEventId>* out) const override;
  size_t size() const override;
  size_t MemoryUsage() const override;
  const MatchStats& stats() const override { return stats_; }
  const char* name() const override { return "aes-partitioned"; }

  size_t partitions() const { return parts_.size(); }
  /// Largest per-partition structure, the per-machine memory footprint.
  size_t MaxPartitionBytes() const;

 private:
  std::vector<std::unique_ptr<AesMatcher>> parts_;
  std::vector<size_t> owner_;  // id -> partition (dense ids expected)
  mutable MatchStats stats_;
};

}  // namespace xymon::mqp

#endif  // XYMON_MQP_PARTITIONED_MATCHER_H_
