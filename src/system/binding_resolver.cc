#include "src/system/binding_resolver.h"

#include <map>
#include <set>
#include <utility>

#include "src/common/string_util.h"
#include "src/sublang/template.h"
#include "src/xml/serializer.h"

namespace xymon::system {

void BindingResolver::CollectPayloads(
    const manager::QueryBinding& binding,
    const mqp::MqpNotification& notification,
    const warehouse::IngestResult& ingest,
    std::vector<std::string>* payloads) const {
  using sublang::SelectClause;
  switch (binding.select.kind) {
    case SelectClause::Kind::kDefault:
      // The paper's implemented behaviour: "notifications simply return the
      // URL of the document and basic informations" (§5.1).
      payloads->push_back(notification.info_xml);
      return;

    case SelectClause::Kind::kTemplate: {
      std::map<std::string, std::string> vars{
          {"URL", notification.url},
          {"DOCID", std::to_string(notification.docid)},
          {"STATUS", warehouse::DocStatusName(ingest.meta.status)},
          {"DOMAIN", ingest.meta.domain},
      };
      auto expanded =
          sublang::ExpandTemplate(binding.select.template_xml, vars);
      payloads->push_back(expanded.ok() ? xml::Serialize(*expanded.value())
                                        : notification.info_xml);
      return;
    }

    case SelectClause::Kind::kVariable: {
      if (!binding.from.has_value()) {
        payloads->push_back(notification.info_xml);
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
      if (element_cond != nullptr && element_cond->change_op.has_value()) {
        for (const xmldiff::ElementChange& change : ingest.diff.changes) {
          if (change.op == *element_cond->change_op &&
              change.element->name() == tag && word_matches(*change.element)) {
            payloads->push_back(xml::Serialize(*change.element));
          }
        }
      } else if (ingest.current != nullptr && ingest.current->root != nullptr) {
        for (const xml::Node* el :
             ingest.current->root->FindDescendants(tag)) {
          if (word_matches(*el)) {
            payloads->push_back(xml::Serialize(*el));
          }
        }
      }
      if (payloads->empty()) {
        payloads->push_back(notification.info_xml);
      }
      return;
    }
  }
}

void BindingResolver::Resolve(const warehouse::IngestResult& ingest,
                              const std::vector<mqp::MqpNotification>& matches,
                              DocOutcome* out) const {
  // A disjunctive where clause registers several complex events for one
  // monitoring query; a document satisfying more than one disjunct must
  // still notify the query only once.
  std::set<std::pair<std::string, std::string>> notified;
  for (const mqp::MqpNotification& match : matches) {
    const manager::QueryBinding* binding =
        bindings_->FindBinding(match.complex_event);
    if (binding == nullptr) continue;
    if (!notified.emplace(binding->subscription, binding->query_name).second) {
      continue;
    }

    std::vector<std::string> payloads;
    CollectPayloads(*binding, match, ingest, &payloads);
    for (std::string& payload : payloads) {
      out->actions.push_back(DeliveryAction{
          DeliveryAction::Kind::kNotification, binding->subscription,
          binding->query_name, std::move(payload), /*event_key=*/{}});
    }
    // Wake continuous queries listening on this monitoring query (§5.2's
    // `when XylemeCompetitors.ChangeInMyProducts`).
    out->actions.push_back(DeliveryAction{
        DeliveryAction::Kind::kTriggerEvent, /*subscription=*/{},
        /*query_name=*/{}, /*payload_xml=*/{},
        binding->subscription + "." + binding->query_name});
  }
}

}  // namespace xymon::system
