#ifndef XYMON_MQP_MATCHER_H_
#define XYMON_MQP_MATCHER_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/mqp/event.h"

namespace xymon::mqp {

/// Interface of the Monitoring Query Processor's matching core: given the
/// ordered set S of atomic events detected on a document, report every
/// registered complex event C_i with C_i ⊆ S (paper §4.1).
///
/// Implementations in this library (xymon_mqp):
///   * AesMatcher      — the paper's "Atomic Event Sets" hash-tree (§4.2).
///   * BruteForceMatcher — per-complex-event subset test (correctness oracle
///     and worst baseline).
/// Comparison baselines live in the separate xymon_mqp_baselines target
/// (src/mqp/CMakeLists.txt), linked only by mqp_test, bench_baselines and
/// bench_ablation:
///   * CountingMatcher — classic pub/sub counting algorithm over an inverted
///     index (the strongest conventional alternative; §4.1 says candidate
///     algorithms were considered and rejected).
///   * MapAesMatcher   — the same AES tree built from std::unordered_map
///     tables with per-node heap allocation (Ablation B).
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Registers complex event `id` = `events` (strictly ascending, nonempty).
  /// Fails with InvalidArgument on a malformed set and AlreadyExists on a
  /// duplicate id. Subscriptions are added while the system runs (§4.1), so
  /// this must be callable at any time.
  virtual Status Insert(ComplexEventId id, const EventSet& events) = 0;

  /// Unregisters `id`. NotFound if it was never inserted.
  virtual Status Erase(ComplexEventId id) = 0;

  /// Appends to `out` the ids of all complex events contained in `s`
  /// (strictly ascending). An id is reported once per call. `out` is not
  /// cleared. Order of ids is unspecified.
  virtual void Match(const EventSet& s,
                     std::vector<ComplexEventId>* out) const = 0;

  /// Number of registered complex events.
  virtual size_t size() const = 0;

  /// Bytes held by the matching structure (the paper reports ~500 MB for
  /// Card(A)=1e6, Card(C)=1e7, D=10; bench_memory reproduces the scaling).
  virtual size_t MemoryUsage() const = 0;

  virtual const MatchStats& stats() const = 0;
  virtual const char* name() const = 0;
};

}  // namespace xymon::mqp

#endif  // XYMON_MQP_MATCHER_H_
