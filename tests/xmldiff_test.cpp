#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "src/common/rng.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/warehouse/warehouse.h"
#include "src/xmldiff/diff.h"
#include "time_scale.h"

namespace xymon::xmldiff {
namespace {

using xml::Node;

std::unique_ptr<Node> MustParse(std::string_view text) {
  auto doc = xml::ParseFragment(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

struct Versions {
  std::unique_ptr<Node> old_root;
  std::unique_ptr<Node> new_root;
  XidAllocator alloc;
  DiffResult result;
};

Versions DiffTexts(std::string_view old_text, std::string_view new_text) {
  Versions v;
  v.old_root = MustParse(old_text);
  v.alloc.AssignAll(v.old_root.get());
  v.new_root = MustParse(new_text);
  v.result = Diff(*v.old_root, v.new_root.get(), &v.alloc);
  return v;
}

size_t CountChanges(const DiffResult& result, ChangeOp op,
                    std::string_view tag) {
  size_t n = 0;
  for (const ElementChange& c : result.changes) {
    if (c.op == op && c.element->name() == tag) ++n;
  }
  return n;
}

// ------------------------------------------------------------------ XIDs --

TEST(XidTest, AssignAllGivesUniqueIds) {
  auto root = MustParse("<a><b/><c><d/></c></a>");
  XidAllocator alloc;
  alloc.AssignAll(root.get());
  XidIndex index(root.get());
  EXPECT_EQ(index.size(), 4u);
  EXPECT_NE(root->xid(), 0u);
}

TEST(XidTest, AssignAllPreservesExistingIds) {
  auto root = MustParse("<a><b/></a>");
  root->set_xid(99);
  XidAllocator alloc(100);
  alloc.AssignAll(root.get());
  EXPECT_EQ(root->xid(), 99u);
  EXPECT_EQ(root->child(0)->xid(), 100u);
}

TEST(XidTest, IndexFindsNodes) {
  auto root = MustParse("<a><b/></a>");
  XidAllocator alloc;
  alloc.AssignAll(root.get());
  XidIndex index(root.get());
  EXPECT_EQ(index.Find(root->xid()), root.get());
  EXPECT_EQ(index.Find(12345), nullptr);
}

// ------------------------------------------------------------------ Diff --

TEST(DiffTest, IdenticalDocumentsEmptyDelta) {
  auto v = DiffTexts("<a><b>x</b></a>", "<a><b>x</b></a>");
  EXPECT_TRUE(v.result.delta.empty());
  EXPECT_TRUE(v.result.changes.empty());
}

TEST(DiffTest, XidsPropagateToUnchangedContent) {
  auto v = DiffTexts("<a><b>x</b><c/></a>", "<a><b>x</b><c/></a>");
  EXPECT_EQ(v.new_root->xid(), v.old_root->xid());
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(0)->xid());
  EXPECT_EQ(v.new_root->child(1)->xid(), v.old_root->child(1)->xid());
}

TEST(DiffTest, InsertedElementDetected) {
  auto v = DiffTexts("<cat><p>1</p></cat>", "<cat><p>1</p><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 0u);
  ASSERT_EQ(v.result.delta.ops.size(), 1u);
  EXPECT_EQ(v.result.delta.ops[0].type, DeltaOpType::kInsert);
  EXPECT_EQ(v.result.delta.ops[0].position, 1u);
  EXPECT_EQ(v.result.delta.ops[0].parent_xid, v.old_root->xid());
}

TEST(DiffTest, InsertedSubtreeMarksAllElementsNew) {
  auto v = DiffTexts("<a/>", "<a><entry><Product><name>n</name></Product></entry></a>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "entry"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "Product"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "name"), 1u);
}

TEST(DiffTest, DeletedElementDetected) {
  auto v = DiffTexts("<cat><p>1</p><p>2</p></cat>", "<cat><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 1u);
  // The surviving <p> keeps its XID.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(1)->xid());
}

TEST(DiffTest, TextUpdateDetected) {
  auto v = DiffTexts("<a><price>10</price></a>", "<a><price>20</price></a>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "price"), 1u);
  bool saw_text_update = false;
  for (const DeltaOp& op : v.result.delta.ops) {
    if (op.type == DeltaOpType::kUpdateText) {
      saw_text_update = true;
      EXPECT_EQ(op.new_text, "20");
    }
  }
  EXPECT_TRUE(saw_text_update);
  // Element identity survives the update.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(0)->xid());
}

TEST(DiffTest, AttributeUpdateDetected) {
  auto v = DiffTexts(R"(<a><p id="1"/></a>)", R"(<a><p id="2"/></a>)");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "p"), 1u);
  ASSERT_EQ(v.result.delta.ops.size(), 1u);
  EXPECT_EQ(v.result.delta.ops[0].type, DeltaOpType::kUpdateAttrs);
}

TEST(DiffTest, ParentOfChangedChildIsUpdated) {
  auto v = DiffTexts("<cat><p>1</p></cat>", "<cat><p>1</p><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "cat"), 1u);
}

TEST(DiffTest, RootReplacedEntirely) {
  auto v = DiffTexts("<old><x/></old>", "<brand><y/></brand>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "old"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "brand"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "y"), 1u);
}

TEST(DiffTest, SlidingWindowProducesInsertAndDelete) {
  // Catalog-style change: first entry leaves, new entry arrives.
  auto v = DiffTexts(
      "<c><p id=\"1\">a</p><p id=\"2\">b</p><p id=\"3\">c</p></c>",
      "<c><p id=\"2\">b</p><p id=\"3\">c</p><p id=\"4\">d</p></c>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "p"), 0u);
}

TEST(DiffTest, DeltaToXmlHasPaperShape) {
  auto v = DiffTexts("<a><b>x</b></a>", "<a><b>y</b><c/></a>");
  auto delta_xml = v.result.delta.ToXml();
  EXPECT_EQ(delta_xml->name(), "delta");
  EXPECT_NE(delta_xml->FindChild("updated"), nullptr);
  EXPECT_NE(delta_xml->FindChild("inserted"), nullptr);
  const Node* ins = delta_xml->FindChild("inserted");
  EXPECT_NE(ins->GetAttribute("parent"), nullptr);
  EXPECT_NE(ins->GetAttribute("position"), nullptr);
}

// ----------------------------------------------------------------- Apply --

TEST(ApplyTest, ReconstructsNewVersion) {
  auto v = DiffTexts("<a><b>x</b><c/><d>z</d></a>",
                     "<a><b>y</b><d>z</d><e>new</e></a>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(ApplyTest, RootReplacement) {
  auto v = DiffTexts("<old/>", "<brand><y/></brand>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root));
}

TEST(ApplyTest, UnknownXidIsCorruption) {
  auto old_root = MustParse("<a/>");
  XidAllocator alloc;
  alloc.AssignAll(old_root.get());
  Delta delta;
  DeltaOp op;
  op.type = DeltaOpType::kDelete;
  op.xid = 424242;
  delta.ops.push_back(std::move(op));
  EXPECT_TRUE(Apply(*old_root, delta).status().IsCorruption());
}

TEST(ApplyTest, DetachingOneNodeTwiceIsCorruption) {
  auto old_root = MustParse("<a><b/><c/></a>");
  XidAllocator alloc;
  alloc.AssignAll(old_root.get());
  const uint64_t b = old_root->child(0)->xid();
  Delta delta;
  DeltaOp del;
  del.type = DeltaOpType::kDelete;
  del.xid = b;
  delta.ops.push_back(std::move(del));
  DeltaOp move;
  move.type = DeltaOpType::kMove;
  move.xid = b;
  move.parent_xid = old_root->xid();
  move.position = 1;
  delta.ops.push_back(std::move(move));
  EXPECT_TRUE(Apply(*old_root, delta).status().IsCorruption());
}

TEST(DiffTest, SiblingReorderIsAMoveNotInsertDelete) {
  auto v = DiffTexts(
      "<c><p id=\"1\"><t>alpha</t></p><p id=\"2\"><t>beta</t></p>"
      "<p id=\"3\"><t>gamma</t></p></c>",
      "<c><p id=\"3\"><t>gamma</t></p><p id=\"1\"><t>alpha</t></p>"
      "<p id=\"2\"><t>beta</t></p></c>");
  // The reordered element is neither new nor deleted (XyDiff move, [17]).
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 0u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 0u);
  // Exactly one move op; the parent counts as updated.
  size_t moves = 0;
  for (const DeltaOp& op : v.result.delta.ops) {
    if (op.type == DeltaOpType::kMove) ++moves;
  }
  EXPECT_EQ(moves, 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "c"), 1u);
  // Identity survives the move.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(2)->xid());
}

TEST(ApplyTest, MoveReconstructs) {
  auto v = DiffTexts(
      "<c><a>1</a><b>2</b><d>3</d></c>",
      "<c><d>3</d><b>2</b><a>1</a></c>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(ApplyTest, MoveCombinedWithEditsReconstructs) {
  auto v = DiffTexts(
      "<c><a>1</a><b>2</b><d>3</d><e>4</e></c>",
      "<c><e>4</e><b>2x</b><f>new</f><a>1</a></c>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(DiffTest, MovedElementDoesNotAlertAsNew) {
  // End-to-end guard: a catalog reorder must not fire `new Product`.
  warehouse::Warehouse wh;
  wh.Ingest({"http://s/",
             "<c><Product id=\"1\"><name>tv</name></Product>"
             "<Product id=\"2\"><name>cam</name></Product></c>"},
            1);
  auto r = wh.Ingest({"http://s/",
                      "<c><Product id=\"2\"><name>cam</name></Product>"
                      "<Product id=\"1\"><name>tv</name></Product></c>"},
                     2);
  EXPECT_EQ(r.meta.status, warehouse::DocStatus::kUpdated);
  for (const auto& change : r.diff.changes) {
    EXPECT_NE(change.op, ChangeOp::kNew) << change.element->name();
    EXPECT_NE(change.op, ChangeOp::kDeleted) << change.element->name();
  }
}

// Property: Apply(old, Diff(old, new)) == new over random tree edits.
class DiffApplyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<Node> RandomTree(Rng* rng, int depth) {
  static const char* kTags[] = {"a", "b", "c", "item", "name"};
  auto node = Node::Element(kTags[rng->Uniform(5)]);
  if (rng->Bernoulli(0.3)) {
    node->SetAttribute("k", std::to_string(rng->Uniform(10)));
  }
  size_t children = depth > 0 ? rng->Uniform(4) : 0;
  for (size_t i = 0; i < children; ++i) {
    if (rng->Bernoulli(0.4)) {
      node->AddChild(Node::Text("t" + std::to_string(rng->Uniform(20))));
    } else {
      node->AddChild(RandomTree(rng, depth - 1));
    }
  }
  return node;
}

/// Applies 1-4 random edits (insert/delete/retext/reattr) to a clone.
std::unique_ptr<Node> Mutate(const Node& original, Rng* rng) {
  auto tree = original.Clone();
  std::vector<Node*> elements;
  std::vector<Node*> texts;
  std::function<void(Node*)> collect = [&](Node* n) {
    if (n->is_element()) elements.push_back(n);
    if (n->is_text()) texts.push_back(n);
    for (const auto& c : n->children()) collect(c.get());
  };
  collect(tree.get());

  size_t edits = 1 + rng->Uniform(4);
  for (size_t e = 0; e < edits; ++e) {
    switch (rng->Uniform(4)) {
      case 0: {  // Insert a small subtree under a random element.
        Node* parent = elements[rng->Uniform(elements.size())];
        parent->InsertChild(rng->Uniform(parent->child_count() + 1),
                            RandomTree(rng, 1));
        break;
      }
      case 1: {  // Delete a random non-root element.
        if (elements.size() > 1) {
          Node* victim = elements[1 + rng->Uniform(elements.size() - 1)];
          Node* parent = victim->parent();
          if (parent != nullptr) {
            parent->RemoveChild(parent->IndexOfChild(victim));
            // Recollect (pointers into the removed subtree are stale).
            elements.clear();
            texts.clear();
            collect(tree.get());
          }
        }
        break;
      }
      case 2: {  // Re-text a random text node.
        if (!texts.empty()) {
          texts[rng->Uniform(texts.size())]->set_text(
              "mut" + std::to_string(rng->Uniform(100)));
        }
        break;
      }
      case 3: {  // Change an attribute.
        Node* el = elements[rng->Uniform(elements.size())];
        el->SetAttribute("k", "new" + std::to_string(rng->Uniform(10)));
        break;
      }
    }
  }
  return tree;
}

TEST_P(DiffApplyPropertyTest, ApplyDiffReconstructs) {
  Rng rng(GetParam() * 7919 + 13);
  auto old_root = RandomTree(&rng, 4);
  XidAllocator alloc;
  alloc.AssignAll(old_root.get());

  auto new_root = Mutate(*old_root, &rng);
  // Fresh copy for diffing (Diff mutates xids of its new_root argument).
  auto expected = new_root->Clone();
  DiffResult result = Diff(*old_root, new_root.get(), &alloc);

  auto applied = Apply(*old_root, result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*expected))
      << "old:      " << xml::Serialize(*old_root)
      << "\nexpected: " << xml::Serialize(*expected)
      << "\ngot:      " << xml::Serialize(**applied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffApplyPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

// --------------------------------------------------------- Hostile shapes --
//
// Child lists a hostile (or merely large) page can carry. Each diff must
// round-trip through Apply and cost near-linear time: Diff and Apply each
// under 10 ms at 8k siblings (a full-table LCS matcher takes 0.3-1.4 s
// there), and from 8k to 30k siblings (3.75x the work) each may grow
// at most twice as fast as a linear yardstick on the same trees: a Clone of
// the old tree plus an XidIndex over it, the sequential and the hashed
// access both operations make. Past the cache sizes the yardstick itself
// grows 5-7x rather than 3.75x; a quadratic matcher grows 14x or more.

constexpr size_t kSmall = 8000;
constexpr size_t kLarge = 30000;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// Sanitizer instrumentation slows every memory access several times over;
// the absolute bound scales with it (the growth bound is a ratio).
constexpr uint32_t kMsAt8k = 10 * 5;
#else
constexpr uint32_t kMsAt8k = 10;
#endif
constexpr double kGrowthOverLinear = 2.0;
constexpr uint32_t kSlackMs = 1;

struct HostilePair {
  std::unique_ptr<Node> old_root;
  std::unique_ptr<Node> new_root;
};

/// prefix + decimal v. (Spelled out: `"v" + std::to_string(v)` trips a
/// false -Wrestrict in GCC 12's inlined std::string insert.)
std::string Tagged(std::string_view prefix, uint64_t v) {
  std::string s(prefix);
  s += std::to_string(v);
  return s;
}

std::unique_ptr<Node> Leaf(std::string tag, std::string text) {
  auto el = Node::Element(std::move(tag));
  el->AddChild(Node::Text(std::move(text)));
  return el;
}

/// Flat list, one tag, every text changed: all updates, no insert/delete.
HostilePair FlatTextChanged(size_t n, Rng* rng) {
  HostilePair p{Node::Element("r"), Node::Element("r")};
  for (size_t k = 0; k < n; ++k) {
    uint64_t v = rng->Uniform(1000000);
    p.old_root->AddChild(Leaf("i", Tagged("v", v)));
    p.new_root->AddChild(Leaf("i", Tagged("w", v)));
  }
  return p;
}

/// Every child's tag changed: all deletes and inserts.
HostilePair EveryTagChanged(size_t n, Rng* rng) {
  HostilePair p{Node::Element("r"), Node::Element("r")};
  for (size_t k = 0; k < n; ++k) {
    std::string text = std::to_string(rng->Uniform(1000000));
    p.old_root->AddChild(Leaf(Tagged("a", k % 7), text));
    p.new_root->AddChild(Leaf(Tagged("b", k % 7), text));
  }
  return p;
}

/// Distinct children in reverse order: all but one become moves.
HostilePair Reversed(size_t n, Rng* rng) {
  HostilePair p{Node::Element("r"), Node::Element("r")};
  uint64_t salt = rng->Uniform(1000);
  for (size_t k = 0; k < n; ++k) {
    p.old_root->AddChild(
        Leaf(Tagged("t", k), std::to_string(salt + k)));
  }
  for (size_t k = n; k-- > 0;) {
    p.new_root->AddChild(
        Leaf(Tagged("t", k), std::to_string(salt + k)));
  }
  return p;
}

/// Wide list drawn from 64 subtrees (every child has duplicates), shuffled,
/// with a few names edited, children dropped and children added.
HostilePair WideReorderedDuplicates(size_t n, Rng* rng) {
  auto item = [](uint64_t t, uint64_t name) {
    auto el = Node::Element("item");
    el->SetAttribute("kind", std::to_string(t % 5));
    el->AddChild(Leaf("name", Tagged("n", name)));
    return el;
  };
  std::vector<uint64_t> kinds(n);
  for (uint64_t& t : kinds) t = rng->Uniform(64);
  HostilePair p{Node::Element("r"), Node::Element("r")};
  for (uint64_t t : kinds) p.old_root->AddChild(item(t, t * 3));
  for (size_t k = n; k-- > 1;) {
    std::swap(kinds[k], kinds[rng->Uniform(k + 1)]);
  }
  for (uint64_t t : kinds) {
    if (rng->Bernoulli(0.02)) continue;
    p.new_root->AddChild(item(t, rng->Bernoulli(0.05) ? t * 3 + 1 : t * 3));
    if (rng->Bernoulli(0.02)) p.new_root->AddChild(item(64 + t, 1));
  }
  return p;
}

/// Runs of 256 same-tag children, every text changed, each run between two
/// unchanged children unique in both lists: the anchors cut the list into
/// many gaps that are each just over the LCS budget.
HostilePair AnchoredRuns(size_t n, Rng* rng) {
  HostilePair p{Node::Element("r"), Node::Element("r")};
  for (size_t k = 0; k < n; ++k) {
    std::string v = std::to_string(rng->Uniform(1000000));
    if (k % 257 == 0) {
      p.old_root->AddChild(Leaf("a", std::to_string(k)));
      p.new_root->AddChild(Leaf("a", std::to_string(k)));
    } else {
      p.old_root->AddChild(Leaf("i", "v" + v));
      p.new_root->AddChild(Leaf("i", "w" + v));
    }
  }
  return p;
}

/// A 256-deep chain whose bottom element holds the wide list: every text
/// of the list changed, a few children dropped and added.
HostilePair Deep(size_t n, Rng* rng) {
  HostilePair p{Node::Element("r"), Node::Element("r")};
  Node* o = p.old_root.get();
  Node* m = p.new_root.get();
  for (int depth = 0; depth < 256; ++depth) {
    o = o->AddChild(Node::Element("d"));
    m = m->AddChild(Node::Element("d"));
  }
  for (size_t k = 0; k < n; ++k) {
    std::string v = std::to_string(rng->Uniform(1000000));
    o->AddChild(Leaf("i", "v" + v));
    if (rng->Bernoulli(0.01)) continue;
    m->AddChild(Leaf("i", "w" + v));
    if (rng->Bernoulli(0.01)) m->AddChild(Leaf("j", v));
  }
  return p;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct HostileRun {
  double diff_ms = 1e9;   // best of kReps
  double apply_ms = 1e9;  // best of kReps
  double linear_ms = 1e9;  // best of kReps: the yardstick
};

/// Diffs and applies one seeded shape of n siblings; checks the round trip
/// Apply(old, Diff(old, new)) == new and returns the best-of-5 timings.
HostileRun RunHostile(HostilePair (*make)(size_t, Rng*), size_t n,
                      uint64_t seed) {
  constexpr int kReps = 5;
  Rng rng(seed);
  HostilePair pair = make(n, &rng);
  XidAllocator alloc;
  alloc.AssignAll(pair.old_root.get());
  HostileRun run;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    {
      auto copy = pair.old_root->Clone();
      XidIndex index(copy.get());
      EXPECT_GT(index.size(), n);
    }
    run.linear_ms = std::min(run.linear_ms, MillisSince(start));

    auto new_root = pair.new_root->Clone();
    start = std::chrono::steady_clock::now();
    DiffResult result = Diff(*pair.old_root, new_root.get(), &alloc);
    run.diff_ms = std::min(run.diff_ms, MillisSince(start));

    start = std::chrono::steady_clock::now();
    auto applied = Apply(*pair.old_root, result.delta);
    run.apply_ms = std::min(run.apply_ms, MillisSince(start));
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
    if (!applied.ok()) return run;
    EXPECT_TRUE((*applied)->EqualsIgnoringXids(*pair.new_root))
        << "round trip failed at " << n << " siblings";
  }
  return run;
}

struct HostileShape {
  const char* name;
  HostilePair (*make)(size_t, Rng*);
};

void PrintTo(const HostileShape& shape, std::ostream* os) { *os << shape.name; }

class HostileShapeTest : public ::testing::TestWithParam<HostileShape> {};

TEST_P(HostileShapeTest, DiffIsNearLinearAndRoundTrips) {
  const char* name = GetParam().name;
  HostileRun small = RunHostile(GetParam().make, kSmall, 17);
  ASSERT_LT(small.diff_ms, ScaledMs(kMsAt8k))
      << name << ": diff of " << kSmall << " siblings";
  ASSERT_LT(small.apply_ms, ScaledMs(kMsAt8k))
      << name << ": apply of " << kSmall << " siblings";
  HostileRun large = RunHostile(GetParam().make, kLarge, 17);
  const double linear_growth = large.linear_ms / small.linear_ms;
  const double bound = kGrowthOverLinear * linear_growth;
  EXPECT_LE(large.diff_ms, bound * small.diff_ms + ScaledMs(kSlackMs))
      << name << ": diff " << small.diff_ms << " ms at " << kSmall << ", "
      << large.diff_ms << " ms at " << kLarge << "; the yardstick grew "
      << linear_growth << "x";
  EXPECT_LE(large.apply_ms, bound * small.apply_ms + ScaledMs(kSlackMs))
      << name << ": apply " << small.apply_ms << " ms at " << kSmall << ", "
      << large.apply_ms << " ms at " << kLarge << "; the yardstick grew "
      << linear_growth << "x";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HostileShapeTest,
    ::testing::Values(HostileShape{"FlatTextChanged", FlatTextChanged},
                      HostileShape{"EveryTagChanged", EveryTagChanged},
                      HostileShape{"Reversed", Reversed},
                      HostileShape{"WideReorderedDuplicates",
                                   WideReorderedDuplicates},
                      HostileShape{"AnchoredRuns", AnchoredRuns},
                      HostileShape{"Deep", Deep}),
    [](const ::testing::TestParamInfo<HostileShape>& info) {
      return std::string(info.param.name);
    });

TEST(HostileShapeTest, SameTagTextChangeStaysAnUpdateAtAnySize) {
  // One over-budget gap, then many over-budget gaps between anchors.
  const size_t anchors = (kLarge + 256) / 257;
  const std::pair<HostilePair (*)(size_t, Rng*), size_t> cases[] = {
      {FlatTextChanged, kLarge}, {AnchoredRuns, kLarge - anchors}};
  for (auto [make, edited] : cases) {
    Rng rng(3);
    HostilePair pair = make(kLarge, &rng);
    XidAllocator alloc;
    alloc.AssignAll(pair.old_root.get());
    DiffResult result = Diff(*pair.old_root, pair.new_root.get(), &alloc);
    EXPECT_EQ(result.delta.ops.size(), edited);
    for (const DeltaOp& op : result.delta.ops) {
      ASSERT_EQ(op.type, DeltaOpType::kUpdateText);
    }
    EXPECT_EQ(CountChanges(result, ChangeOp::kUpdated, "i"), edited);
    EXPECT_EQ(CountChanges(result, ChangeOp::kNew, "i"), 0u);
  }
}

TEST(HostileShapeTest, ReversedListIsMovesNotInsertDelete) {
  Rng rng(5);
  HostilePair pair = Reversed(kSmall, &rng);
  XidAllocator alloc;
  alloc.AssignAll(pair.old_root.get());
  DiffResult result = Diff(*pair.old_root, pair.new_root.get(), &alloc);
  size_t moves = 0;
  for (const DeltaOp& op : result.delta.ops) {
    EXPECT_EQ(op.type, DeltaOpType::kMove);
    if (op.type == DeltaOpType::kMove) ++moves;
  }
  EXPECT_EQ(moves, kSmall - 1);
  EXPECT_EQ(pair.new_root->child(0)->xid(),
            pair.old_root->child(kSmall - 1)->xid());
}

}  // namespace
}  // namespace xymon::xmldiff
