#include "src/manager/delivery_table.h"

#include <utility>

namespace xymon::manager {

void DeliveryTable::Add(mqp::ComplexEventId id, QueryBinding binding) {
  Remove(id);
  if (binding.slot >= slots_.size()) {
    slots_.resize(static_cast<size_t>(binding.slot) + 1);
  }
  SlotNames& names = slots_[binding.slot];
  if (names.refs++ == 0) {
    names.subscription = SharedString(binding.subscription);
    names.query_name = SharedString(binding.query_name);
    names.trigger_key =
        SharedString::Join(binding.subscription, '.', binding.query_name);
  }
  if (id >= targets_.size()) targets_.resize(static_cast<size_t>(id) + 1);
  targets_[id] = Target{
      binding.slot, binding.select.kind, names.subscription, names.query_name,
      names.trigger_key,
      std::make_unique<const QueryBinding>(std::move(binding))};
  ++live_;
}

void DeliveryTable::Remove(mqp::ComplexEventId id) {
  if (Find(id) == nullptr) return;
  Target& target = targets_[id];
  SlotNames& names = slots_[target.slot];
  // Buffered notifications keep their own references to the names.
  if (--names.refs == 0) names = SlotNames{};
  target = Target{};
  --live_;
}

}  // namespace xymon::manager
