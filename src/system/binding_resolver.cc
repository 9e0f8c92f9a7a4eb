#include "src/system/binding_resolver.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "src/common/string_util.h"
#include "src/manager/subscription_manager.h"
#include "src/sublang/template.h"
#include "src/xml/serializer.h"

namespace xymon::system {
namespace {

using Target = manager::DeliveryTable::Target;

/// Per-thread dedup scratch: stamps[slot] == generation marks a query
/// already notified for the current document. A fresh generation per
/// document clears it in O(1); thread-local because one resolver serves
/// every shard thread.
struct SlotStamps {
  std::vector<uint32_t> stamps;
  uint32_t generation = 0;

  uint32_t Begin(size_t slots) {
    if (stamps.size() < slots) stamps.resize(slots, 0);
    if (++generation == 0) {  // wrapped: an old stamp could alias
      std::fill(stamps.begin(), stamps.end(), 0);
      generation = 1;
    }
    return generation;
  }
};

/// The alert's info_xml as one shared buffer, built on first use: every
/// kDefault action of the document (and the fallbacks of the others)
/// carries this same payload.
class DocumentInfo {
 public:
  const SharedString& Get(const mqp::MqpNotification& match) {
    if (source_.data() != match.info_xml.data() ||
        source_.size() != match.info_xml.size()) {
      source_ = match.info_xml;
      shared_ = SharedString(source_);
    }
    return shared_;
  }

 private:
  std::string_view source_;
  SharedString shared_;
};

void PushNotification(const Target& target, SharedString payload,
                      DocOutcome* out) {
  out->actions.push_back(DeliveryAction{
      DeliveryAction::Kind::kNotification, target.subscription,
      target.query_name, std::move(payload), /*event_key=*/{}});
}

/// Appends the target's notification action(s) for one match.
void AppendNotifications(const Target& target,
                         const mqp::MqpNotification& match,
                         const warehouse::IngestResult& ingest,
                         DocumentInfo* info, DocOutcome* out) {
  using sublang::SelectClause;
  const manager::QueryBinding& binding = *target.binding;
  switch (target.select) {
    case SelectClause::Kind::kDefault:
      // The paper's implemented behaviour: "notifications simply return the
      // URL of the document and basic informations" (§5.1).
      PushNotification(target, info->Get(match), out);
      return;

    case SelectClause::Kind::kTemplate: {
      std::map<std::string, std::string> vars{
          {"URL", std::string(match.url)},
          {"DOCID", std::to_string(match.docid)},
          {"STATUS", warehouse::DocStatusName(ingest.meta.status)},
          {"DOMAIN", ingest.meta.domain},
      };
      auto expanded =
          sublang::ExpandTemplate(binding.select.template_xml, vars);
      PushNotification(target,
                       expanded.ok()
                           ? SharedString(xml::Serialize(*expanded.value()))
                           : info->Get(match),
                       out);
      return;
    }

    case SelectClause::Kind::kVariable: {
      if (!binding.from.has_value()) {
        PushNotification(target, info->Get(match), out);
        return;
      }
      const std::string& tag = binding.from->tag;
      // If the where clause constrains the variable with an element
      // condition (`new X`, `updated X contains "w"`), select exactly the
      // elements satisfying it; otherwise all elements bound by the from
      // clause.
      const alerters::Condition* element_cond = nullptr;
      for (const alerters::Condition& c : binding.conditions) {
        if (c.kind == alerters::ConditionKind::kElementChange && c.tag == tag) {
          element_cond = &c;
          break;
        }
      }
      auto word_matches = [&](const xml::Node& el) {
        if (element_cond == nullptr || element_cond->word.empty()) return true;
        std::string text =
            element_cond->strict ? [&] {
              std::string direct;
              for (const auto& child : el.children()) {
                if (child->is_text()) direct += child->text();
              }
              return direct;
            }()
                                 : el.TextContent();
        for (const std::string& token : TokenizeWords(text)) {
          if (token == ToLower(element_cond->word)) return true;
        }
        return false;
      };
      const size_t before = out->actions.size();
      if (element_cond != nullptr && element_cond->change_op.has_value()) {
        for (const xmldiff::ElementChange& change : ingest.diff.changes) {
          if (change.op == *element_cond->change_op &&
              change.element->name() == tag && word_matches(*change.element)) {
            PushNotification(target, xml::Serialize(*change.element), out);
          }
        }
      } else if (ingest.current != nullptr && ingest.current->root != nullptr) {
        for (const xml::Node* el :
             ingest.current->root->FindDescendants(tag)) {
          if (word_matches(*el)) {
            PushNotification(target, xml::Serialize(*el), out);
          }
        }
      }
      if (out->actions.size() == before) {
        PushNotification(target, info->Get(match), out);
      }
      return;
    }
  }
}

}  // namespace

BindingResolver::BindingResolver(const manager::SubscriptionManager* manager)
    : table_(&manager->delivery_table()) {}

void BindingResolver::Resolve(const warehouse::IngestResult& ingest,
                              const std::vector<mqp::MqpNotification>& matches,
                              DocOutcome* out) const {
  thread_local SlotStamps notified;
  const uint32_t generation = notified.Begin(table_->slot_limit());
  DocumentInfo info;
  for (const mqp::MqpNotification& match : matches) {
    const Target* target = table_->Find(match.complex_event);
    if (target == nullptr) continue;
    // A disjunctive where clause registers several complex events for one
    // monitoring query; a document satisfying more than one disjunct must
    // still notify the query only once.
    uint32_t& stamp = notified.stamps[target->slot];
    if (stamp == generation) continue;
    stamp = generation;

    AppendNotifications(*target, match, ingest, &info, out);
    // Wake continuous queries listening on this monitoring query (§5.2's
    // `when XylemeCompetitors.ChangeInMyProducts`).
    out->actions.push_back(DeliveryAction{
        DeliveryAction::Kind::kTriggerEvent, /*subscription=*/{},
        /*query_name=*/{}, /*payload_xml=*/{}, target->trigger_key});
  }
}

}  // namespace xymon::system
