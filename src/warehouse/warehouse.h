#ifndef XYMON_WAREHOUSE_WAREHOUSE_H_
#define XYMON_WAREHOUSE_WAREHOUSE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/storage/persistent_map.h"
#include "src/storage/storage_hub.h"
#include "src/warehouse/domain_classifier.h"
#include "src/warehouse/metadata.h"
#include "src/warehouse/version_chain.h"
#include "src/xml/dom.h"
#include "src/xmldiff/diff.h"

namespace xymon::warehouse {

/// Per-document parse caps. A body above either one is treated as a
/// malformed body (DESIGN.md §9: a warehoused page is degraded and keeps its
/// last good version), so one hostile page costs bounded time and memory in
/// the parser, the diff and the alerters. Both sit far above the largest
/// benchmark page, a 2,000-product catalog of about 210 KB and 14,000 nodes.
inline constexpr size_t kMaxDocumentBytes = size_t{4} << 20;
inline constexpr size_t kMaxDocumentNodes = 200000;

/// One page as fetched by the crawler (webstub) — URL plus raw bytes. The
/// warehouse decides whether it is XML by parsing.
struct FetchedContent {
  std::string url;
  std::string body;
};

/// What the warehouse learned from ingesting one fetch. Pointers are owned
/// by the warehouse and stay valid until the next Ingest of the same URL.
struct IngestResult {
  DocMeta meta;
  /// Current parsed document; nullptr for non-XML pages.
  const xml::Document* current = nullptr;
  /// Previous version (XML, warehoused); nullptr on first fetch.
  const xml::Document* previous = nullptr;
  /// Element-level changes (kUpdated only); see xmldiff::DiffResult.
  xmldiff::DiffResult diff;
  /// True when a malformed body for a warehoused-XML page was absorbed: the
  /// last good version was kept, nothing changed except last_accessed. The
  /// monitor counts such fetches instead of alerting on them.
  bool degraded = false;
};

/// Read-side collection interface: what the query processor needs from "the
/// warehouse" without caring whether it is one repository or a sharded set
/// of partitions (system::IngestPipeline aggregates one per shard).
class DocumentSource {
 public:
  virtual ~DocumentSource() = default;

  /// All warehoused XML documents in `domain` ("" = all) — the collection a
  /// continuous query ranges over.
  virtual std::vector<std::pair<const DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const = 0;
};

/// Dense DTD-id assignment shared across warehouse partitions, so a
/// `DTDID =` condition means the same DTD on every shard. Thread-safe:
/// shards assign ids concurrently from their worker threads. Virtual so a
/// shard running in a worker *process* can substitute a registry that asks
/// the supervisor's central instance over the wire (DESIGN.md §14) — the
/// id space stays process-global either way.
class DtdRegistry {
 public:
  virtual ~DtdRegistry() = default;

  /// Id for a DTD system-id, assigning the next dense id if unseen.
  /// "" maps to 0 (no DTD).
  virtual uint32_t IdFor(const std::string& dtd_url);

  /// Recovery: re-installs a persisted (url, id) pair. Conflicting seeds
  /// (same url, different id) keep the first — partitions recovered from the
  /// same run never conflict.
  virtual void Seed(const std::string& dtd_url, uint32_t id);

  size_t size() const;

 protected:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint32_t> ids_;
  uint32_t next_id_ = 1;
};

/// The XML repository + index manager of Figure 1, reduced to what the
/// monitoring chain needs (the full Xyleme repository, Natix, is out of
/// scope — DESIGN.md §1):
///   * stores the current version of every XML page, with persistent XIDs;
///   * keeps the previous version long enough to diff against;
///   * tracks metadata and change status for XML *and* HTML pages (HTML is
///     "not warehoused": only its signature is kept, paper §1);
///   * assigns DOCIDs and dense DTDIDs.
class Warehouse : public DocumentSource {
 public:
  explicit Warehouse(const DomainClassifier* classifier = nullptr)
      : classifier_(classifier) {}

  /// Makes the repository durable (the paper's warehouse — Natix — is a
  /// persistent store): current versions, metadata, DOCID/DTDID counters
  /// and XID allocators are written through to `path` and recovered by the
  /// next Open. The *previous* version is not retained across restarts
  /// (the first post-restart fetch of a changed page diffs against the
  /// recovered current version). Call before the first Ingest. `options`
  /// tunes durability and supplies the Env (see LogStore::Options).
  Status AttachStorage(const std::string& path,
                       const storage::LogStore::Options& options = {});

  /// Non-owning variant: recovers from (and writes through to) `store`,
  /// whose lifetime the caller manages — when the monitor runs, every store
  /// is owned by the StorageHub (DESIGN.md §12). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the backing store (no-op without storage).
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  /// How warehouse records move when the StorageHub reshards: document
  /// records ("d:<url>") follow hash(url) % M — the same partitioning the
  /// pipeline scatters by — and the counters record replicates to every
  /// partition, with next_docid taken as the max and the DTD tables
  /// unioned (ids are globally consistent, so the union is conflict-free).
  static storage::ReshardHooks MakeReshardHooks();

  /// Retains up to `max_deltas` historical versions per XML document
  /// (snapshot + deltas, paper [17]). Off by default — the monitoring chain
  /// only needs the previous version; versioning serves GetVersion /
  /// change-inspection use cases. Call before the first Ingest.
  void EnableVersioning(size_t max_deltas = 16) {
    versioning_ = true;
    max_deltas_ = max_deltas;
  }

  /// Degrade-don't-die (acquisition resilience): when a warehoused-XML URL
  /// suddenly returns a body that does not parse — a truncated transfer or
  /// a proxy error page, not a real edit — tolerate up to `max_consecutive`
  /// such fetches: the last good version is kept and IngestResult.degraded
  /// is set. Beyond the cap the type change is accepted (the page really is
  /// no longer XML). 0 restores the old drop-immediately behaviour.
  void set_max_parse_failures(uint32_t max_consecutive) {
    max_parse_failures_ = max_consecutive;
  }

  /// Ingests one fetch: computes the new status (new/updated/unchanged),
  /// parses XML, versions it and computes the delta against the previous
  /// version. Invalid XML is ingested as a non-XML page (the real system
  /// cannot reject the web).
  ///
  /// `preassigned_docid` != 0 pins the DOCID a first-time URL receives; the
  /// sharded pipeline allocates ids centrally in scatter order so DOCIDs are
  /// identical for every shard count. 0 keeps internal allocation.
  IngestResult Ingest(const FetchedContent& page, Timestamp now,
                      uint64_t preassigned_docid = 0);

  /// Marks a URL as deleted, producing element-level kDeleted changes for
  /// the whole old tree. NotFound if the URL is unknown.
  Result<IngestResult> MarkDeleted(const std::string& url, Timestamp now);

  /// Metadata for a URL; nullptr if never ingested.
  const DocMeta* GetMeta(const std::string& url) const;
  /// Current XML document for a URL; nullptr if absent or non-XML.
  const xml::Document* GetDocument(const std::string& url) const;

  /// All warehoused XML documents in `domain` ("" = all) — the collection a
  /// continuous query ranges over.
  std::vector<std::pair<const DocMeta*, const xml::Document*>> DocumentsInDomain(
      std::string_view domain) const override;

  /// Visits the metadata of every known document (any status). The sharded
  /// pipeline rebuilds its central URL → DOCID map from this on recovery.
  void ForEachMeta(const std::function<void(const DocMeta&)>& fn) const;

  /// Dense id for a DTD system-id (assigning a new one if unseen). With a
  /// shared registry (sharded mode) the assignment is process-global.
  uint32_t DtdIdFor(const std::string& dtd_url);

  /// Shares DTD-id assignment with other warehouse partitions. Call before
  /// the first Ingest/AttachStorage. The local table still records the ids
  /// this partition saw (it is what gets persisted).
  void set_dtd_registry(DtdRegistry* registry) { dtd_registry_ = registry; }

  /// Persisted (dtd url → id) table, for seeding a shared registry after
  /// recovery.
  const std::unordered_map<std::string, uint32_t>& dtd_ids() const {
    return dtd_ids_;
  }

  // -- Version history (requires EnableVersioning) ---------------------------

  /// Number of reconstructible versions of `url` (0 if unknown/non-XML).
  size_t VersionCount(const std::string& url) const;
  /// Reconstructs version `index` (0 = oldest retained) of `url`.
  Result<std::unique_ptr<xml::Node>> GetVersion(const std::string& url,
                                                size_t index) const;
  /// Timestamp of version `index`.
  Result<Timestamp> GetVersionTime(const std::string& url,
                                   size_t index) const;

  size_t document_count() const { return entries_.size(); }

 private:
  struct Entry {
    DocMeta meta;
    bool has_current = false;
    bool has_previous = false;
    xml::Document current;
    xml::Document previous;
    xmldiff::XidAllocator xids;
    std::unique_ptr<VersionChain> versions;
    uint32_t parse_failures = 0;  // consecutive malformed bodies absorbed
  };

  std::string EncodeEntry(const Entry& entry) const;
  Status DecodeEntry(const std::string& url, std::string_view record);
  void PersistEntry(const Entry& entry);
  void PersistCounters();

  const DomainClassifier* classifier_;
  DtdRegistry* dtd_registry_ = nullptr;
  bool versioning_ = false;
  size_t max_deltas_ = 16;
  uint32_t max_parse_failures_ = 3;
  std::optional<storage::PersistentMap> owned_store_;
  storage::PersistentMap* store_ = nullptr;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, uint32_t> dtd_ids_;
  uint64_t next_docid_ = 1;
};

}  // namespace xymon::warehouse

#endif  // XYMON_WAREHOUSE_WAREHOUSE_H_
