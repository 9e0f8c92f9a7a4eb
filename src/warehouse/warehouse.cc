#include "src/warehouse/warehouse.h"

#include "src/common/hash.h"
#include "src/common/string_util.h"
#include "src/xml/codec.h"
#include "src/xml/parser.h"

namespace xymon::warehouse {

const char* DocStatusName(DocStatus status) {
  switch (status) {
    case DocStatus::kNew:
      return "new";
    case DocStatus::kUpdated:
      return "updated";
    case DocStatus::kUnchanged:
      return "unchanged";
    case DocStatus::kDeleted:
      return "deleted";
  }
  return "?";
}

namespace {

// Storage keys: one record per document plus one counters record.
constexpr char kCountersKey[] = "!counters";
std::string DocKey(const std::string& url) { return "d:" + url; }

}  // namespace

std::string Warehouse::EncodeEntry(const Entry& entry) const {
  std::string out;
  const DocMeta& m = entry.meta;
  xml::PutVarint(m.docid, &out);
  xml::PutVarint(m.dtdid, &out);
  xml::PutVarint(static_cast<uint64_t>(m.last_accessed), &out);
  xml::PutVarint(static_cast<uint64_t>(m.last_updated), &out);
  xml::PutVarint(m.signature, &out);
  out.push_back(static_cast<char>(m.status));
  out.push_back(m.is_xml ? 1 : 0);
  xml::PutString(m.filename, &out);
  xml::PutString(m.doctype_name, &out);
  xml::PutString(m.dtd_url, &out);
  xml::PutString(m.domain, &out);
  xml::PutVarint(entry.xids.next(), &out);
  out.push_back(entry.has_current ? 1 : 0);
  if (entry.has_current) {
    xml::PutString(xml::EncodeDocument(entry.current), &out);
  }
  return out;
}

Status Warehouse::DecodeEntry(const std::string& url,
                              std::string_view record) {
  auto entry = std::make_unique<Entry>();
  DocMeta& m = entry->meta;
  m.url = url;
  uint64_t docid, dtdid, accessed, updated, signature, xid_next;
  if (!xml::GetVarint(&record, &docid) || !xml::GetVarint(&record, &dtdid) ||
      !xml::GetVarint(&record, &accessed) ||
      !xml::GetVarint(&record, &updated) ||
      !xml::GetVarint(&record, &signature) || record.size() < 2) {
    return Status::Corruption("truncated warehouse record for " + url);
  }
  m.docid = docid;
  m.dtdid = static_cast<uint32_t>(dtdid);
  m.last_accessed = static_cast<Timestamp>(accessed);
  m.last_updated = static_cast<Timestamp>(updated);
  m.signature = signature;
  m.status = static_cast<DocStatus>(record[0]);
  m.is_xml = record[1] != 0;
  record.remove_prefix(2);
  if (!xml::GetString(&record, &m.filename) ||
      !xml::GetString(&record, &m.doctype_name) ||
      !xml::GetString(&record, &m.dtd_url) ||
      !xml::GetString(&record, &m.domain) ||
      !xml::GetVarint(&record, &xid_next) || record.empty()) {
    return Status::Corruption("truncated warehouse record for " + url);
  }
  entry->xids = xmldiff::XidAllocator(xid_next);
  bool has_doc = record[0] != 0;
  record.remove_prefix(1);
  if (has_doc) {
    std::string doc_bytes;
    if (!xml::GetString(&record, &doc_bytes)) {
      return Status::Corruption("truncated document for " + url);
    }
    auto doc = xml::DecodeDocument(doc_bytes);
    if (!doc.ok()) return doc.status();
    entry->current = std::move(doc).value();
    entry->has_current = true;
    if (versioning_) {
      entry->versions = std::make_unique<VersionChain>(max_deltas_);
      entry->versions->Init(*entry->current.root, m.last_updated);
    }
  }
  entries_[url] = std::move(entry);
  return Status::OK();
}

void Warehouse::PersistEntry(const Entry& entry) {
  if (store_ == nullptr) return;
  (void)store_->Put(DocKey(entry.meta.url), EncodeEntry(entry));
}

void Warehouse::PersistCounters() {
  if (store_ == nullptr) return;
  std::string out;
  xml::PutVarint(next_docid_, &out);
  xml::PutVarint(dtd_ids_.size(), &out);
  for (const auto& [dtd_url, id] : dtd_ids_) {
    xml::PutString(dtd_url, &out);
    xml::PutVarint(id, &out);
  }
  (void)store_->Put(kCountersKey, out);
}

Status Warehouse::AttachStorage(const std::string& path,
                                const storage::LogStore::Options& options) {
  auto store = storage::PersistentMap::Open(path, options);
  if (!store.ok()) return store.status();
  owned_store_ = std::move(store).value();
  // Every content change appends a full document record; compact when the
  // log reaches 64 MB so update churn cannot grow it without bound.
  // (Hub-owned stores get their bound from StorageHub::Options instead.)
  owned_store_->SetAutoCheckpoint(64u << 20);
  return AttachStore(&*owned_store_);
}

Status Warehouse::AttachStore(storage::PersistentMap* store) {
  store_ = store;
  if (store_ == nullptr) return Status::OK();

  if (auto counters = store_->Get(kCountersKey); counters.has_value()) {
    std::string_view data(*counters);
    uint64_t dtd_count;
    if (!xml::GetVarint(&data, &next_docid_) ||
        !xml::GetVarint(&data, &dtd_count)) {
      return Status::Corruption("bad warehouse counters record");
    }
    for (uint64_t i = 0; i < dtd_count; ++i) {
      std::string dtd_url;
      uint64_t id;
      if (!xml::GetString(&data, &dtd_url) || !xml::GetVarint(&data, &id)) {
        return Status::Corruption("bad warehouse DTD record");
      }
      dtd_ids_[dtd_url] = static_cast<uint32_t>(id);
    }
  }
  for (const auto& [key, value] : store_->data()) {
    if (!StartsWith(key, "d:")) continue;
    XYMON_RETURN_IF_ERROR(DecodeEntry(key.substr(2), value));
  }
  return Status::OK();
}

storage::ReshardHooks Warehouse::MakeReshardHooks() {
  storage::ReshardHooks hooks;
  hooks.route = [](std::string_view key, size_t num_partitions) {
    std::vector<size_t> targets;
    if (StartsWith(key, "d:")) {
      // Document records follow the pipeline's URL partitioning.
      targets.push_back(
          static_cast<size_t>(Fnv1a(key.substr(2)) % num_partitions));
    } else {
      // Per-partition bookkeeping (the counters record) lives everywhere.
      for (size_t i = 0; i < num_partitions; ++i) targets.push_back(i);
    }
    return targets;
  };
  hooks.merge = [](std::string_view key,
                   const std::vector<std::string>& values) -> std::string {
    if (key != kCountersKey) return values.front();
    uint64_t next_docid = 1;
    std::vector<std::pair<std::string, uint32_t>> dtds;
    std::unordered_map<std::string, uint32_t> seen;
    for (const std::string& value : values) {
      std::string_view data(value);
      uint64_t docid = 1, dtd_count = 0;
      if (!xml::GetVarint(&data, &docid) || !xml::GetVarint(&data, &dtd_count)) {
        continue;
      }
      if (docid > next_docid) next_docid = docid;
      for (uint64_t i = 0; i < dtd_count; ++i) {
        std::string dtd_url;
        uint64_t id = 0;
        if (!xml::GetString(&data, &dtd_url) || !xml::GetVarint(&data, &id)) {
          break;
        }
        if (seen.emplace(dtd_url, static_cast<uint32_t>(id)).second) {
          dtds.emplace_back(dtd_url, static_cast<uint32_t>(id));
        }
      }
    }
    std::string out;
    xml::PutVarint(next_docid, &out);
    xml::PutVarint(dtds.size(), &out);
    for (const auto& [dtd_url, id] : dtds) {
      xml::PutString(dtd_url, &out);
      xml::PutVarint(id, &out);
    }
    return out;
  };
  return hooks;
}

uint32_t DtdRegistry::IdFor(const std::string& dtd_url) {
  if (dtd_url.empty()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = ids_.emplace(dtd_url, next_id_);
  if (inserted) ++next_id_;
  return it->second;
}

void DtdRegistry::Seed(const std::string& dtd_url, uint32_t id) {
  if (dtd_url.empty() || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = ids_.emplace(dtd_url, id);
  (void)it;
  if (inserted && id >= next_id_) next_id_ = id + 1;
}

size_t DtdRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ids_.size();
}

IngestResult Warehouse::Ingest(const FetchedContent& page, Timestamp now,
                               uint64_t preassigned_docid) {
  IngestResult out;
  uint64_t signature = Fnv1a(page.body);

  auto it = entries_.find(page.url);
  if (it != entries_.end() && it->second->meta.signature == signature) {
    // Unchanged: only the access time moves. A healthy body also ends any
    // malformed-fetch streak (the parse-failure cap counts consecutive ones).
    Entry& entry = *it->second;
    entry.parse_failures = 0;
    entry.meta.last_accessed = now;
    entry.meta.status = DocStatus::kUnchanged;
    out.meta = entry.meta;
    out.current = entry.has_current ? &entry.current : nullptr;
    return out;
  }

  // New or updated content: try to parse as XML, within the caps.
  xml::ParseOptions parse_options;
  parse_options.max_input_bytes = kMaxDocumentBytes;
  parse_options.max_nodes = kMaxDocumentNodes;
  auto parsed = xml::Parse(page.body, parse_options);
  bool is_xml = parsed.ok();

  if (!is_xml && it != entries_.end() && it->second->has_current &&
      max_parse_failures_ > 0 &&
      it->second->parse_failures < max_parse_failures_) {
    // A warehoused-XML page delivered a malformed body — on the unreliable
    // web that is usually a truncated transfer or a proxy error page, not a
    // real type change. Absorb it: keep the last good version, move only
    // the access time, and report the fetch as degraded. Past the cap the
    // type change is accepted below (the page really stopped being XML).
    Entry& entry = *it->second;
    ++entry.parse_failures;
    entry.meta.last_accessed = now;
    entry.meta.status = DocStatus::kUnchanged;
    out.meta = entry.meta;
    out.current = &entry.current;
    out.degraded = true;
    return out;
  }

  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    if (preassigned_docid != 0) {
      entry->meta.docid = preassigned_docid;
      if (preassigned_docid >= next_docid_) next_docid_ = preassigned_docid + 1;
    } else {
      entry->meta.docid = next_docid_++;
    }
    entry->meta.url = page.url;
    entry->meta.filename = std::string(UrlFilename(page.url));
    entry->meta.is_xml = is_xml;
    entry->meta.last_accessed = now;
    entry->meta.last_updated = now;
    entry->meta.signature = signature;
    entry->meta.status = DocStatus::kNew;
    if (is_xml) {
      entry->current = std::move(parsed).value();
      entry->has_current = true;
      entry->xids.AssignAll(entry->current.root.get());
      entry->meta.doctype_name = entry->current.doctype_name;
      entry->meta.dtd_url = entry->current.dtd_url;
      entry->meta.dtdid = DtdIdFor(entry->current.dtd_url);
      if (versioning_) {
        entry->versions = std::make_unique<VersionChain>(max_deltas_);
        entry->versions->Init(*entry->current.root, now);
      }
    }
    if (classifier_ != nullptr) {
      entry->meta.domain = classifier_->Classify(
          page.url, entry->meta.doctype_name,
          entry->has_current ? entry->current.root.get() : nullptr);
    }
    out.meta = entry->meta;
    out.current = entry->has_current ? &entry->current : nullptr;
    if (entry->has_current) {
      // Every element of a brand-new document is a "new" element.
      entry->current.root->VisitPostorder([&out](const xml::Node& n) {
        if (n.is_element()) {
          out.diff.changes.push_back(
              xmldiff::ElementChange{xmldiff::ChangeOp::kNew, &n});
        }
      });
    }
    PersistEntry(*entry);
    PersistCounters();
    entries_.emplace(page.url, std::move(entry));
    return out;
  }

  // Updated content.
  Entry& entry = *it->second;
  entry.parse_failures = 0;
  entry.meta.last_accessed = now;
  entry.meta.last_updated = now;
  entry.meta.signature = signature;
  entry.meta.status = DocStatus::kUpdated;
  entry.meta.is_xml = is_xml;

  if (is_xml && entry.has_current) {
    // Version: current becomes previous, diff propagates XIDs into the new
    // version.
    entry.previous = std::move(entry.current);
    entry.has_previous = true;
    entry.current = std::move(parsed).value();
    out.diff = xmldiff::Diff(*entry.previous.root, entry.current.root.get(),
                             &entry.xids);
    if (entry.versions != nullptr) {
      (void)entry.versions->Push(out.diff.delta.Clone(), now);
    }
    entry.meta.doctype_name = entry.current.doctype_name;
    entry.meta.dtd_url = entry.current.dtd_url;
    entry.meta.dtdid = DtdIdFor(entry.current.dtd_url);
  } else if (is_xml) {
    // Was HTML (or unparseable), now XML: treat the whole tree as new.
    entry.current = std::move(parsed).value();
    entry.has_current = true;
    entry.xids.AssignAll(entry.current.root.get());
    if (versioning_) {
      entry.versions = std::make_unique<VersionChain>(max_deltas_);
      entry.versions->Init(*entry.current.root, now);
    }
    entry.meta.doctype_name = entry.current.doctype_name;
    entry.meta.dtd_url = entry.current.dtd_url;
    entry.meta.dtdid = DtdIdFor(entry.current.dtd_url);
    entry.current.root->VisitPostorder([&out](const xml::Node& n) {
      if (n.is_element()) {
        out.diff.changes.push_back(
            xmldiff::ElementChange{xmldiff::ChangeOp::kNew, &n});
      }
    });
  } else {
    // Not parseable as XML: keep it signature-only (like HTML pages).
    entry.has_current = false;
    entry.has_previous = false;
  }

  if (classifier_ != nullptr) {
    entry.meta.domain = classifier_->Classify(
        page.url, entry.meta.doctype_name,
        entry.has_current ? entry.current.root.get() : nullptr);
  }
  PersistEntry(entry);
  PersistCounters();
  out.meta = entry.meta;
  out.current = entry.has_current ? &entry.current : nullptr;
  out.previous = entry.has_previous ? &entry.previous : nullptr;
  return out;
}

Result<IngestResult> Warehouse::MarkDeleted(const std::string& url,
                                            Timestamp now) {
  auto it = entries_.find(url);
  if (it == entries_.end()) {
    return Status::NotFound("unknown URL " + url);
  }
  Entry& entry = *it->second;
  entry.meta.last_accessed = now;
  entry.meta.status = DocStatus::kDeleted;
  PersistEntry(entry);

  IngestResult out;
  out.meta = entry.meta;
  if (entry.has_current) {
    entry.current.root->VisitPostorder([&out](const xml::Node& n) {
      if (n.is_element()) {
        out.diff.changes.push_back(
            xmldiff::ElementChange{xmldiff::ChangeOp::kDeleted, &n});
      }
    });
    out.current = &entry.current;  // Old content, for the alerter's benefit.
  }
  return out;
}

const DocMeta* Warehouse::GetMeta(const std::string& url) const {
  auto it = entries_.find(url);
  return it == entries_.end() ? nullptr : &it->second->meta;
}

const xml::Document* Warehouse::GetDocument(const std::string& url) const {
  auto it = entries_.find(url);
  if (it == entries_.end() || !it->second->has_current) return nullptr;
  return &it->second->current;
}

std::vector<std::pair<const DocMeta*, const xml::Document*>>
Warehouse::DocumentsInDomain(std::string_view domain) const {
  std::vector<std::pair<const DocMeta*, const xml::Document*>> out;
  for (const auto& [url, entry] : entries_) {
    (void)url;
    if (!entry->has_current) continue;
    if (entry->meta.status == DocStatus::kDeleted) continue;
    if (!domain.empty() && entry->meta.domain != domain) continue;
    out.emplace_back(&entry->meta, &entry->current);
  }
  return out;
}

size_t Warehouse::VersionCount(const std::string& url) const {
  auto it = entries_.find(url);
  if (it == entries_.end() || it->second->versions == nullptr) return 0;
  return it->second->versions->version_count();
}

Result<std::unique_ptr<xml::Node>> Warehouse::GetVersion(
    const std::string& url, size_t index) const {
  auto it = entries_.find(url);
  if (it == entries_.end() || it->second->versions == nullptr) {
    return Status::NotFound("no version history for " + url);
  }
  return it->second->versions->Reconstruct(index);
}

Result<Timestamp> Warehouse::GetVersionTime(const std::string& url,
                                            size_t index) const {
  auto it = entries_.find(url);
  if (it == entries_.end() || it->second->versions == nullptr) {
    return Status::NotFound("no version history for " + url);
  }
  return it->second->versions->VersionTime(index);
}

void Warehouse::ForEachMeta(
    const std::function<void(const DocMeta&)>& fn) const {
  for (const auto& [url, entry] : entries_) {
    (void)url;
    fn(entry->meta);
  }
}

uint32_t Warehouse::DtdIdFor(const std::string& dtd_url) {
  if (dtd_url.empty()) return 0;
  if (dtd_registry_ != nullptr) {
    // Process-global dense ids; remember the pair locally so it persists
    // with this partition's counters record.
    uint32_t id = dtd_registry_->IdFor(dtd_url);
    dtd_ids_.emplace(dtd_url, id);
    return id;
  }
  auto [it, inserted] =
      dtd_ids_.emplace(dtd_url, static_cast<uint32_t>(dtd_ids_.size() + 1));
  (void)inserted;
  return it->second;
}

}  // namespace xymon::warehouse
