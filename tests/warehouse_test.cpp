#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/rng.h"
#include "src/warehouse/warehouse.h"
#include "src/xml/parser.h"

namespace xymon::warehouse {
namespace {

constexpr char kCatalogV1[] =
    "<!DOCTYPE catalog SYSTEM \"http://shop/cat.dtd\">"
    "<catalog><Product><name>cam</name></Product></catalog>";
constexpr char kCatalogV2[] =
    "<!DOCTYPE catalog SYSTEM \"http://shop/cat.dtd\">"
    "<catalog><Product><name>cam</name></Product>"
    "<Product><name>tv</name></Product></catalog>";

TEST(WarehouseTest, FirstFetchIsNew) {
  Warehouse wh;
  auto r = wh.Ingest({"http://a/x.xml", "<a><b/></a>"}, 100);
  EXPECT_EQ(r.meta.status, DocStatus::kNew);
  EXPECT_TRUE(r.meta.is_xml);
  EXPECT_EQ(r.meta.url, "http://a/x.xml");
  EXPECT_EQ(r.meta.filename, "x.xml");
  EXPECT_EQ(r.meta.last_accessed, 100);
  EXPECT_EQ(r.meta.last_updated, 100);
  ASSERT_NE(r.current, nullptr);
  EXPECT_EQ(r.current->root->name(), "a");
  // All elements of a fresh document are "new" for the XML alerter.
  EXPECT_EQ(r.diff.changes.size(), 2u);
}

TEST(WarehouseTest, RefetchSameContentIsUnchanged) {
  Warehouse wh;
  wh.Ingest({"http://a/", "<a/>"}, 100);
  auto r = wh.Ingest({"http://a/", "<a/>"}, 200);
  EXPECT_EQ(r.meta.status, DocStatus::kUnchanged);
  EXPECT_EQ(r.meta.last_accessed, 200);
  EXPECT_EQ(r.meta.last_updated, 100);
  EXPECT_TRUE(r.diff.changes.empty());
}

TEST(WarehouseTest, ChangedContentIsUpdatedWithDiff) {
  Warehouse wh;
  wh.Ingest({"http://shop/c.xml", kCatalogV1}, 100);
  auto r = wh.Ingest({"http://shop/c.xml", kCatalogV2}, 200);
  EXPECT_EQ(r.meta.status, DocStatus::kUpdated);
  EXPECT_EQ(r.meta.last_updated, 200);
  ASSERT_NE(r.previous, nullptr);
  ASSERT_NE(r.current, nullptr);
  // The inserted Product (and its name) are "new"; catalog is "updated".
  size_t new_products = 0, updated_catalogs = 0;
  for (const auto& c : r.diff.changes) {
    if (c.op == xmldiff::ChangeOp::kNew && c.element->name() == "Product") {
      ++new_products;
    }
    if (c.op == xmldiff::ChangeOp::kUpdated && c.element->name() == "catalog") {
      ++updated_catalogs;
    }
  }
  EXPECT_EQ(new_products, 1u);
  EXPECT_EQ(updated_catalogs, 1u);
}

TEST(WarehouseTest, XidsStableAcrossVersions) {
  Warehouse wh;
  auto r1 = wh.Ingest({"http://shop/c.xml", kCatalogV1}, 100);
  uint64_t product_xid = r1.current->root->FindChild("Product")->xid();
  ASSERT_NE(product_xid, 0u);
  auto r2 = wh.Ingest({"http://shop/c.xml", kCatalogV2}, 200);
  EXPECT_EQ(r2.current->root->FindChild("Product")->xid(), product_xid);
}

TEST(WarehouseTest, DocIdsAreStablePerUrl) {
  Warehouse wh;
  auto a1 = wh.Ingest({"http://a/", "<a/>"}, 1);
  auto b = wh.Ingest({"http://b/", "<b/>"}, 2);
  auto a2 = wh.Ingest({"http://a/", "<a2/>"}, 3);
  EXPECT_NE(a1.meta.docid, b.meta.docid);
  EXPECT_EQ(a1.meta.docid, a2.meta.docid);
}

TEST(WarehouseTest, DtdIdsDensePerDistinctDtd) {
  Warehouse wh;
  auto a = wh.Ingest({"http://1", kCatalogV1}, 1);
  auto b = wh.Ingest({"http://2", kCatalogV1}, 1);
  auto c = wh.Ingest(
      {"http://3", "<!DOCTYPE x SYSTEM \"http://other.dtd\"><x/>"}, 1);
  EXPECT_EQ(a.meta.dtdid, b.meta.dtdid);
  EXPECT_NE(a.meta.dtdid, c.meta.dtdid);
  EXPECT_EQ(a.meta.dtd_url, "http://shop/cat.dtd");
  EXPECT_EQ(a.meta.doctype_name, "catalog");
}

TEST(WarehouseTest, HtmlTrackedBySignatureOnly) {
  Warehouse wh;
  auto r1 = wh.Ingest({"http://h/", "<html><p>unclosed"}, 1);
  EXPECT_FALSE(r1.meta.is_xml);
  EXPECT_EQ(r1.current, nullptr);
  EXPECT_EQ(r1.meta.status, DocStatus::kNew);
  auto r2 = wh.Ingest({"http://h/", "<html><p>unclosed"}, 2);
  EXPECT_EQ(r2.meta.status, DocStatus::kUnchanged);
  auto r3 = wh.Ingest({"http://h/", "<html><p>different"}, 3);
  EXPECT_EQ(r3.meta.status, DocStatus::kUpdated);
}

TEST(WarehouseTest, HtmlPageBecomingXmlIsAllNew) {
  Warehouse wh;
  wh.Ingest({"http://m/", "plain text not xml"}, 1);
  auto r = wh.Ingest({"http://m/", "<a><b/></a>"}, 2);
  EXPECT_TRUE(r.meta.is_xml);
  EXPECT_EQ(r.meta.status, DocStatus::kUpdated);
  EXPECT_EQ(r.diff.changes.size(), 2u);  // Both elements new.
}

/// A well-formed catalog of `products` seeded <p> elements: 2 * products + 1
/// nodes.
std::string SeededCatalog(Rng* rng, size_t products) {
  std::string body = "<catalog>";
  for (size_t i = 0; i < products; ++i) {
    body += "<p>" + std::to_string(rng->Uniform(1000000)) + "</p>";
  }
  return body + "</catalog>";
}

TEST(WarehouseTest, OversizeBodyIsDegradedAndKeepsLastGoodVersion) {
  for (uint64_t seed : {1, 2}) {
    Rng rng(seed);
    Warehouse wh;
    const std::string url = "http://big.example.org/c.xml";
    ASSERT_EQ(wh.Ingest({url, kCatalogV1}, 1).meta.status, DocStatus::kNew);

    // One node over the node cap (the body is about 1.3 MB).
    auto r = wh.Ingest({url, SeededCatalog(&rng, kMaxDocumentNodes / 2)}, 2);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.meta.status, DocStatus::kUnchanged);
    EXPECT_TRUE(r.meta.is_xml);
    ASSERT_NE(r.current, nullptr);
    EXPECT_EQ(r.current->root->child_count(), 1u);  // still kCatalogV1
    EXPECT_TRUE(r.diff.changes.empty());

    // Over the byte cap with a handful of nodes.
    std::string huge = "<catalog><p>" +
                       std::string(kMaxDocumentBytes, 'a' + seed) +
                       "</p></catalog>";
    r = wh.Ingest({url, huge}, 3);
    EXPECT_TRUE(r.degraded);
    ASSERT_NE(r.current, nullptr);
    EXPECT_EQ(r.current->root->child_count(), 1u);

    // Within both caps the page is versioned as usual.
    r = wh.Ingest({url, SeededCatalog(&rng, kMaxDocumentNodes / 2 - 1)}, 4);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.meta.status, DocStatus::kUpdated);
    ASSERT_NE(r.current, nullptr);
    EXPECT_EQ(r.current->root->child_count(), kMaxDocumentNodes / 2 - 1);
  }
}

TEST(WarehouseTest, MarkDeletedRaisesDeletedChanges) {
  Warehouse wh;
  wh.Ingest({"http://d/", "<a><b/></a>"}, 1);
  auto r = wh.MarkDeleted("http://d/", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->meta.status, DocStatus::kDeleted);
  EXPECT_EQ(r->diff.changes.size(), 2u);
  for (const auto& c : r->diff.changes) {
    EXPECT_EQ(c.op, xmldiff::ChangeOp::kDeleted);
  }
  EXPECT_TRUE(wh.MarkDeleted("http://unknown/", 3).status().IsNotFound());
}

TEST(WarehouseTest, DomainClassification) {
  DomainClassifier classifier;
  classifier.AddRule({"commerce", "catalog", "", ""});
  classifier.AddRule({"culture", "", "museum", ""});
  classifier.AddRule({"xyleme", "", "", "inria.fr/Xy"});
  Warehouse wh(&classifier);

  EXPECT_EQ(wh.Ingest({"http://s/c.xml", kCatalogV1}, 1).meta.domain,
            "commerce");
  EXPECT_EQ(wh.Ingest({"http://m/", "<museum/>"}, 1).meta.domain, "culture");
  EXPECT_EQ(wh.Ingest({"http://inria.fr/Xy/p.xml", "<page/>"}, 1).meta.domain,
            "xyleme");
  EXPECT_EQ(wh.Ingest({"http://other/", "<z/>"}, 1).meta.domain, "");
}

TEST(WarehouseTest, DomainCollectionsForQueries) {
  DomainClassifier classifier;
  classifier.AddRule({"commerce", "catalog", "", ""});
  Warehouse wh(&classifier);
  wh.Ingest({"http://1", kCatalogV1}, 1);
  wh.Ingest({"http://2", kCatalogV2}, 1);
  wh.Ingest({"http://3", "<other/>"}, 1);
  wh.Ingest({"http://4", "html not xml <"}, 1);

  EXPECT_EQ(wh.DocumentsInDomain("commerce").size(), 2u);
  EXPECT_EQ(wh.DocumentsInDomain("").size(), 3u);  // All XML docs.
  EXPECT_EQ(wh.DocumentsInDomain("nope").size(), 0u);
}

TEST(WarehouseTest, DeletedDocsLeaveDomainCollections) {
  DomainClassifier classifier;
  classifier.AddRule({"commerce", "catalog", "", ""});
  Warehouse wh(&classifier);
  wh.Ingest({"http://1", kCatalogV1}, 1);
  ASSERT_TRUE(wh.MarkDeleted("http://1", 2).ok());
  EXPECT_EQ(wh.DocumentsInDomain("commerce").size(), 0u);
}

TEST(WarehouseTest, Getters) {
  Warehouse wh;
  EXPECT_EQ(wh.GetMeta("http://x"), nullptr);
  EXPECT_EQ(wh.GetDocument("http://x"), nullptr);
  wh.Ingest({"http://x", "<a/>"}, 1);
  ASSERT_NE(wh.GetMeta("http://x"), nullptr);
  ASSERT_NE(wh.GetDocument("http://x"), nullptr);
  EXPECT_EQ(wh.document_count(), 1u);
}


// ---------------------------------------------------------- VersionChain --

TEST(VersionChainTest, ReconstructsEveryRetainedVersion) {
  Warehouse wh;
  wh.EnableVersioning(8);
  const char* versions[] = {
      "<a><b>1</b></a>",
      "<a><b>2</b></a>",
      "<a><b>2</b><c/></a>",
      "<a><c/></a>",
  };
  Timestamp t = 100;
  for (const char* v : versions) {
    wh.Ingest({"http://v/", v}, t);
    t += 10;
  }
  ASSERT_EQ(wh.VersionCount("http://v/"), 4u);
  for (size_t i = 0; i < 4; ++i) {
    auto doc = wh.GetVersion("http://v/", i);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    auto expected = xml::Parse(versions[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE((*doc)->EqualsIgnoringXids(*expected->root)) << i;
    EXPECT_EQ(*wh.GetVersionTime("http://v/", i), 100 + 10 * (int)i);
  }
  EXPECT_TRUE(wh.GetVersion("http://v/", 4).status().IsNotFound());
}

TEST(VersionChainTest, OldVersionsFoldIntoSnapshot) {
  Warehouse wh;
  wh.EnableVersioning(/*max_deltas=*/3);
  for (int i = 0; i < 10; ++i) {
    wh.Ingest({"http://v/", "<a><n>" + std::to_string(i) + "</n></a>"}, i);
  }
  // Snapshot + 3 deltas = 4 reconstructible versions (6..9).
  ASSERT_EQ(wh.VersionCount("http://v/"), 4u);
  auto oldest = wh.GetVersion("http://v/", 0);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ((*oldest)->TextContent(), "6");
  auto newest = wh.GetVersion("http://v/", 3);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ((*newest)->TextContent(), "9");
}

TEST(VersionChainTest, UnchangedFetchAddsNoVersion) {
  Warehouse wh;
  wh.EnableVersioning();
  wh.Ingest({"http://v/", "<a/>"}, 1);
  wh.Ingest({"http://v/", "<a/>"}, 2);
  EXPECT_EQ(wh.VersionCount("http://v/"), 1u);
}

TEST(VersionChainTest, DisabledByDefault) {
  Warehouse wh;
  wh.Ingest({"http://v/", "<a/>"}, 1);
  EXPECT_EQ(wh.VersionCount("http://v/"), 0u);
  EXPECT_TRUE(wh.GetVersion("http://v/", 0).status().IsNotFound());
}

TEST(VersionChainTest, CurrentVersionMatchesLiveDocument) {
  Warehouse wh;
  wh.EnableVersioning();
  wh.Ingest({"http://v/", "<a><b>x</b></a>"}, 1);
  wh.Ingest({"http://v/", "<a><b>y</b><c>z</c></a>"}, 2);
  auto last = wh.GetVersion("http://v/", wh.VersionCount("http://v/") - 1);
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(
      (*last)->EqualsIgnoringXids(*wh.GetDocument("http://v/")->root));
}


// ------------------------------------------------------------- Persistence --

class WarehousePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("xymon_wh_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(WarehousePersistenceTest, DocumentsAndMetadataSurviveRestart) {
  uint64_t docid;
  uint32_t dtdid;
  uint64_t product_xid;
  {
    Warehouse wh;
    ASSERT_TRUE(wh.AttachStorage(path_).ok());
    auto r = wh.Ingest({"http://shop/c.xml", kCatalogV1}, 100);
    docid = r.meta.docid;
    dtdid = r.meta.dtdid;
    product_xid = r.current->root->FindChild("Product")->xid();
    wh.Ingest({"http://h/", "not xml <"}, 200);
  }
  Warehouse wh;
  ASSERT_TRUE(wh.AttachStorage(path_).ok());
  EXPECT_EQ(wh.document_count(), 2u);
  const DocMeta* meta = wh.GetMeta("http://shop/c.xml");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->docid, docid);
  EXPECT_EQ(meta->dtdid, dtdid);
  EXPECT_EQ(meta->last_updated, 100);
  EXPECT_EQ(meta->doctype_name, "catalog");
  const xml::Document* doc = wh.GetDocument("http://shop/c.xml");
  ASSERT_NE(doc, nullptr);
  // XIDs survive the restart — diffs keep element identity.
  EXPECT_EQ(doc->root->FindChild("Product")->xid(), product_xid);
  // HTML page kept as signature-only metadata.
  ASSERT_NE(wh.GetMeta("http://h/"), nullptr);
  EXPECT_FALSE(wh.GetMeta("http://h/")->is_xml);
  EXPECT_EQ(wh.GetDocument("http://h/"), nullptr);
}

TEST_F(WarehousePersistenceTest, ChangeDetectionContinuesAfterRestart) {
  {
    Warehouse wh;
    ASSERT_TRUE(wh.AttachStorage(path_).ok());
    wh.Ingest({"http://shop/c.xml", kCatalogV1}, 100);
  }
  Warehouse wh;
  ASSERT_TRUE(wh.AttachStorage(path_).ok());
  // Same content: unchanged (signature recovered).
  EXPECT_EQ(wh.Ingest({"http://shop/c.xml", kCatalogV1}, 200).meta.status,
            DocStatus::kUnchanged);
  // Changed content: diffs against the *recovered* version, preserving XIDs.
  auto r = wh.Ingest({"http://shop/c.xml", kCatalogV2}, 300);
  EXPECT_EQ(r.meta.status, DocStatus::kUpdated);
  size_t new_products = 0;
  for (const auto& c : r.diff.changes) {
    if (c.op == xmldiff::ChangeOp::kNew && c.element->name() == "Product") {
      ++new_products;
    }
  }
  EXPECT_EQ(new_products, 1u);
}

TEST_F(WarehousePersistenceTest, CountersDoNotRegress) {
  {
    Warehouse wh;
    ASSERT_TRUE(wh.AttachStorage(path_).ok());
    wh.Ingest({"http://a/", "<a/>"}, 1);
    wh.Ingest({"http://b/", kCatalogV1}, 1);
  }
  Warehouse wh;
  ASSERT_TRUE(wh.AttachStorage(path_).ok());
  auto c = wh.Ingest({"http://c/", "<c/>"}, 2);
  // Fresh DOCIDs continue past the recovered ones.
  EXPECT_GT(c.meta.docid, wh.GetMeta("http://b/")->docid);
  // A known DTD keeps its dense id.
  auto b_again = wh.Ingest({"http://b2/", kCatalogV1}, 2);
  EXPECT_EQ(b_again.meta.dtdid, wh.GetMeta("http://b/")->dtdid);
}

TEST_F(WarehousePersistenceTest, DeletionPersists) {
  {
    Warehouse wh;
    ASSERT_TRUE(wh.AttachStorage(path_).ok());
    wh.Ingest({"http://d/", "<a/>"}, 1);
    ASSERT_TRUE(wh.MarkDeleted("http://d/", 2).ok());
  }
  Warehouse wh;
  ASSERT_TRUE(wh.AttachStorage(path_).ok());
  ASSERT_NE(wh.GetMeta("http://d/"), nullptr);
  EXPECT_EQ(wh.GetMeta("http://d/")->status, DocStatus::kDeleted);
  EXPECT_TRUE(wh.DocumentsInDomain("").empty());
}

TEST(DocStatusTest, Names) {
  EXPECT_STREQ(DocStatusName(DocStatus::kNew), "new");
  EXPECT_STREQ(DocStatusName(DocStatus::kUpdated), "updated");
  EXPECT_STREQ(DocStatusName(DocStatus::kUnchanged), "unchanged");
  EXPECT_STREQ(DocStatusName(DocStatus::kDeleted), "deleted");
}

}  // namespace
}  // namespace xymon::warehouse
