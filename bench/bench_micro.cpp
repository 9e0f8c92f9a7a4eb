// Micro-benchmarks (google-benchmark) for the hot operations underneath the
// figure-level harnesses: AES match/insert, XML parse, versioned diff and
// URL-prefix lookup. Useful for regression tracking; the paper-facing
// numbers come from the bench_fig* / bench_t* binaries.

#include <benchmark/benchmark.h>

#include "src/alerters/prefix_matcher.h"
#include "src/alerters/trie_prefix_matcher.h"
#include "src/mqp/aes_matcher.h"
#include "src/mqp/workload.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/xmldiff/diff.h"

namespace xymon {
namespace {

void BM_AesMatch(benchmark::State& state) {
  mqp::WorkloadParams params;
  params.card_a = 100'000;
  params.card_c = static_cast<uint32_t>(state.range(0));
  params.d = 4;
  params.s = 30;
  params.seed = 1;
  mqp::WorkloadGenerator gen(params);
  mqp::AesMatcher matcher;
  mqp::ComplexEventId id = 0;
  for (const auto& events : gen.GenerateComplexEvents()) {
    (void)matcher.Insert(id++, events);
  }
  auto docs = mqp::WorkloadGenerator(params).GenerateDocuments(1024);
  std::vector<mqp::ComplexEventId> sink;
  size_t i = 0;
  for (auto _ : state) {
    sink.clear();
    matcher.Match(docs[i++ & 1023], &sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesMatch)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_AesInsert(benchmark::State& state) {
  mqp::WorkloadParams params;
  params.card_a = 100'000;
  params.card_c = 100'000;
  params.d = 4;
  params.seed = 2;
  auto events = mqp::WorkloadGenerator(params).GenerateComplexEvents();
  mqp::AesMatcher matcher;
  mqp::ComplexEventId id = 0;
  size_t i = 0;
  for (auto _ : state) {
    (void)matcher.Insert(id++, events[i++ % events.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesInsert);

void BM_XmlParse(benchmark::State& state) {
  std::string doc = "<catalog>";
  for (int i = 0; i < state.range(0); ++i) {
    doc += "<Product id=\"" + std::to_string(i) +
           "\"><name>item name</name><price>99</price></Product>";
  }
  doc += "</catalog>";
  for (auto _ : state) {
    auto parsed = xml::Parse(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * doc.size());
}
BENCHMARK(BM_XmlParse)->Arg(10)->Arg(100)->Arg(1000);

void BM_Diff(benchmark::State& state) {
  std::string v1 = "<c>";
  std::string v2 = "<c>";
  for (int i = 0; i < state.range(0); ++i) {
    v1 += "<p id=\"" + std::to_string(i) + "\"><t>x" + std::to_string(i) +
          "</t></p>";
    // One insert, one delete, one text change.
    if (i != 0) {
      v2 += "<p id=\"" + std::to_string(i) + "\"><t>x" +
            std::to_string(i == 1 ? 9999 : i) + "</t></p>";
    }
  }
  v2 += "<p id=\"new\"><t>fresh</t></p></c>";
  v1 += "</c>";
  auto old_root = std::move(xml::ParseFragment(v1)).value();
  xmldiff::XidAllocator alloc;
  alloc.AssignAll(old_root.get());
  for (auto _ : state) {
    auto new_root = std::move(xml::ParseFragment(v2)).value();
    xmldiff::XidAllocator scratch(alloc.next());
    auto result = xmldiff::Diff(*old_root, new_root.get(), &scratch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Diff)->Arg(10)->Arg(100)->Arg(500);

template <typename MatcherT>
void BM_PrefixMatch(benchmark::State& state) {
  MatcherT matcher;
  for (int i = 0; i < 100'000; ++i) {
    matcher.Add("http://site" + std::to_string(i % 5000) + ".org/d" +
                    std::to_string(i) + "/",
                static_cast<mqp::AtomicEvent>(i));
  }
  std::string url = "http://site42.org/d42/page/index.xml";
  std::vector<mqp::AtomicEvent> sink;
  for (auto _ : state) {
    sink.clear();
    matcher.Match(url, &sink);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_PrefixMatch<alerters::HashPrefixMatcher>);
BENCHMARK(BM_PrefixMatch<alerters::TriePrefixMatcher>);

}  // namespace
}  // namespace xymon

BENCHMARK_MAIN();
