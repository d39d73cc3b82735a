// Microbenchmarks for the NE component: G* search cost versus the number
// of entity labels and the KG size, against the TreeEmb (GST) baseline and
// the exhaustive reference; the distance-sketch fast path and its build.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "embed/lcag_search.h"
#include "embed/lcag_sketch.h"
#include "embed/tree_embedder.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"

using namespace newslink;

namespace {

struct World {
  kg::SyntheticKg kg;
  kg::LabelIndex index;

  explicit World(int scale) : kg(Make(scale)), index(kg.graph) {}

  static kg::SyntheticKg Make(int scale) {
    kg::SyntheticKgConfig config;
    config.seed = 13;
    config.num_countries = 2 * scale;
    config.provinces_per_country = 6;
    config.districts_per_province = 5;
    config.cities_per_district = 4;
    return kg::SyntheticKgGenerator(config).Generate();
  }
};

const World& SharedWorld(int scale) {
  static std::map<int, std::unique_ptr<World>>* const worlds =
      new std::map<int, std::unique_ptr<World>>();
  auto it = worlds->find(scale);
  if (it == worlds->end()) {
    it = worlds->emplace(scale, std::make_unique<World>(scale)).first;
  }
  return *it->second;
}

/// Random co-located label groups (entities near a shared anchor, like real
/// news segments).
std::vector<std::vector<std::string>> MakeLabelGroups(const World& world,
                                                      size_t num_labels,
                                                      size_t count) {
  Rng rng(17);
  std::vector<std::vector<std::string>> groups;
  const auto& anchors = world.kg.story_anchors;
  while (groups.size() < count) {
    const kg::NodeId anchor = anchors[rng.Uniform(anchors.size())];
    // Collect a radius-2 neighbourhood.
    std::vector<kg::NodeId> nearby = {anchor};
    for (const kg::Arc& a : world.kg.graph.OutArcs(anchor)) {
      nearby.push_back(a.dst);
      for (const kg::Arc& b : world.kg.graph.OutArcs(a.dst)) {
        nearby.push_back(b.dst);
      }
    }
    if (nearby.size() < num_labels) continue;
    std::vector<std::string> labels;
    for (size_t idx :
         rng.SampleWithoutReplacement(nearby.size(), num_labels)) {
      labels.push_back(kg::NormalizeLabel(world.kg.graph.label(nearby[idx])));
    }
    groups.push_back(std::move(labels));
  }
  return groups;
}

void BM_LcagSearch_Labels(benchmark::State& state) {
  const World& world = SharedWorld(1);
  const auto groups =
      MakeLabelGroups(world, static_cast<size_t>(state.range(0)), 64);
  embed::LcagSearch search(&world.kg.graph, &world.index);
  size_t i = 0;
  size_t expansions = 0;
  for (auto _ : state) {
    const embed::LcagResult result = search.Find(groups[i++ % groups.size()]);
    expansions += result.expansions;
    benchmark::DoNotOptimize(result.found);
  }
  state.counters["expansions/op"] =
      static_cast<double>(expansions) / state.iterations();
}
BENCHMARK(BM_LcagSearch_Labels)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_TreeEmbed_Labels(benchmark::State& state) {
  const World& world = SharedWorld(1);
  const auto groups =
      MakeLabelGroups(world, static_cast<size_t>(state.range(0)), 64);
  embed::TreeEmbedder tree(&world.kg.graph, &world.index);
  size_t i = 0;
  size_t expansions = 0;
  for (auto _ : state) {
    const embed::TreeEmbedResult result =
        tree.Find(groups[i++ % groups.size()]);
    expansions += result.expansions;
    benchmark::DoNotOptimize(result.found);
  }
  state.counters["expansions/op"] =
      static_cast<double>(expansions) / state.iterations();
}
BENCHMARK(BM_TreeEmbed_Labels)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_LcagSearch_KgScale(benchmark::State& state) {
  const World& world = SharedWorld(static_cast<int>(state.range(0)));
  const auto groups = MakeLabelGroups(world, 3, 64);
  embed::LcagSearch search(&world.kg.graph, &world.index);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Find(groups[i++ % groups.size()]).found);
  }
  state.counters["kg_nodes"] = static_cast<double>(world.kg.graph.num_nodes());
}
BENCHMARK(BM_LcagSearch_KgScale)->Arg(1)->Arg(2)->Arg(4);

/// The default-radius sketch of a world, built once per scale.
const embed::LcagSketchIndex& SharedSketch(int scale) {
  static std::map<int, std::unique_ptr<embed::LcagSketchIndex>>* const
      sketches = new std::map<int, std::unique_ptr<embed::LcagSketchIndex>>();
  auto it = sketches->find(scale);
  if (it == sketches->end()) {
    embed::LcagSketchOptions options;
    options.enabled = true;
    it = sketches
             ->emplace(scale, std::make_unique<embed::LcagSketchIndex>(
                                  embed::LcagSketchIndex::Build(
                                      SharedWorld(scale).kg.graph, options)))
             .first;
  }
  return *it->second;
}

/// The NE fast path: Find with the sketch installed and no cache, so each
/// op is a sketch merge plus the candidate scan (or, on a miss, the full
/// search). `sketch_hits/op` is the share the sketch answered.
void BM_SketchLcag(benchmark::State& state) {
  const World& world = SharedWorld(1);
  const embed::LcagSketchIndex& sketch = SharedSketch(1);
  const auto groups =
      MakeLabelGroups(world, static_cast<size_t>(state.range(0)), 64);
  embed::LcagSearch search(&world.kg.graph, &world.index);
  size_t i = 0;
  size_t hits = 0;
  for (auto _ : state) {
    const embed::LcagResult result =
        search.Find(groups[i++ % groups.size()], {}, {.sketch = &sketch});
    hits += result.sketch_hit ? 1 : 0;
    benchmark::DoNotOptimize(result.found);
  }
  state.counters["sketch_hits/op"] =
      static_cast<double>(hits) / state.iterations();
}
BENCHMARK(BM_SketchLcag)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

/// One single-threaded sketch build (a truncated Dijkstra per KG node).
void BM_BuildSketch(benchmark::State& state) {
  const World& world = SharedWorld(static_cast<int>(state.range(0)));
  embed::LcagSketchOptions options;
  options.enabled = true;
  size_t entries = 0;
  for (auto _ : state) {
    const embed::LcagSketchIndex sketch =
        embed::LcagSketchIndex::Build(world.kg.graph, options);
    entries = sketch.total_entries();
    benchmark::DoNotOptimize(entries);
  }
  state.counters["kg_nodes"] = static_cast<double>(world.kg.graph.num_nodes());
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_BuildSketch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_LcagExhaustive(benchmark::State& state) {
  const World& world = SharedWorld(1);
  const auto groups = MakeLabelGroups(world, 3, 16);
  embed::LcagSearch search(&world.kg.graph, &world.index);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search.FindExhaustive(groups[i++ % groups.size()]).found);
  }
}
BENCHMARK(BM_LcagExhaustive);

}  // namespace
