// The dense NE search state (embed/search_scratch.h) and the
// MultiLabelDijkstra built on it.
//
// A std::map Dijkstra written out here is the reference: one ordered
// frontier per label, and each pop scans the label tops for the smallest
// (distance, node), the first label winning a full tie — Equation 2 as the
// paper states it. On random graphs with tied weights, MultiLabelDijkstra's
// single heap must pop the same pairs, and its distances, settled flags,
// settled counts and ordered predecessor lists must equal the reference's
// at every cut point.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embed/lcag_search.h"
#include "embed/search_scratch.h"
#include "kg/knowledge_graph.h"

namespace newslink {
namespace embed {
namespace {

class ReferenceDijkstra {
 public:
  ReferenceDijkstra(const kg::KnowledgeGraph* graph,
                    const std::vector<std::vector<kg::NodeId>>& sources)
      : graph_(graph), labels_(sources.size()) {
    for (size_t i = 0; i < sources.size(); ++i) {
      for (kg::NodeId v : sources[i]) {
        if (labels_[i].distance.count(v) > 0) continue;
        labels_[i].distance[v] = 0.0;
        labels_[i].frontier.insert({0.0, v});
      }
    }
  }

  bool PopNext(MultiLabelDijkstra::PopEvent* event) {
    size_t best = labels_.size();
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i].frontier.empty()) continue;
      if (best == labels_.size() ||
          *labels_[i].frontier.begin() < *labels_[best].frontier.begin()) {
        best = i;
      }
    }
    if (best == labels_.size()) return false;
    Label& label = labels_[best];
    const auto [d, v] = *label.frontier.begin();
    label.frontier.erase(label.frontier.begin());
    label.settled.insert(v);
    for (const kg::Arc& arc : graph_->OutArcs(v)) {
      if (label.settled.count(arc.dst) > 0) continue;
      const double nd = d + arc.weight;
      const PredLink link{v, arc.predicate, arc.weight, arc.forward};
      auto it = label.distance.find(arc.dst);
      if (it == label.distance.end() || nd < it->second) {
        if (it != label.distance.end()) {
          label.frontier.erase({it->second, arc.dst});
        }
        label.distance[arc.dst] = nd;
        label.preds[arc.dst] = {link};
        label.frontier.insert({nd, arc.dst});
      } else if (nd == it->second) {
        label.preds[arc.dst].push_back(link);
      }
    }
    ++settled_count_[v];
    *event = {best, v, d};
    return true;
  }

  double PeekMinDistance() const {
    double best = kInfDistance;
    for (const Label& label : labels_) {
      if (!label.frontier.empty()) {
        best = std::min(best, label.frontier.begin()->first);
      }
    }
    return best;
  }

  double Distance(size_t i, kg::NodeId v) const {
    auto it = labels_[i].distance.find(v);
    return it == labels_[i].distance.end() ? kInfDistance : it->second;
  }
  bool Settled(size_t i, kg::NodeId v) const {
    return labels_[i].settled.count(v) > 0;
  }
  int SettledCount(kg::NodeId v) const {
    auto it = settled_count_.find(v);
    return it == settled_count_.end() ? 0 : it->second;
  }
  std::vector<PredLink> Predecessors(size_t i, kg::NodeId v) const {
    auto it = labels_[i].preds.find(v);
    return it == labels_[i].preds.end() ? std::vector<PredLink>{}
                                        : it->second;
  }

 private:
  struct Label {
    std::map<kg::NodeId, double> distance;
    std::set<kg::NodeId> settled;
    std::map<kg::NodeId, std::vector<PredLink>> preds;
    std::set<std::pair<double, kg::NodeId>> frontier;
  };

  const kg::KnowledgeGraph* graph_;
  std::vector<Label> labels_;
  std::map<kg::NodeId, int> settled_count_;
};

/// A spanning tree plus random extra edges, weights in {1, 2}: many tied
/// shortest paths, so predecessor lists hold several links.
kg::KnowledgeGraph RandomTiedGraph(Rng* rng, int num_nodes) {
  kg::KgBuilder b;
  for (int i = 0; i < num_nodes; ++i) {
    b.AddNode("n" + std::to_string(i), kg::EntityType::kGpe);
  }
  const auto weight = [rng] {
    return 1.0f + static_cast<float>(rng->Uniform(2));
  };
  for (int i = 1; i < num_nodes; ++i) {
    EXPECT_TRUE(b.AddEdge(i, static_cast<kg::NodeId>(rng->Uniform(i)), "p",
                          weight())
                    .ok());
  }
  for (int i = 0; i < 2 * num_nodes; ++i) {
    const auto u = static_cast<kg::NodeId>(rng->Uniform(num_nodes));
    const auto v = static_cast<kg::NodeId>(rng->Uniform(num_nodes));
    if (u != v) {
      EXPECT_TRUE(b.AddEdge(u, v, i % 2 ? "p" : "q", weight()).ok());
    }
  }
  return b.Build();
}

/// Source sets of `num_labels` labels, some with several (and repeated)
/// nodes.
std::vector<std::vector<kg::NodeId>> RandomSources(Rng* rng, size_t num_nodes,
                                                   size_t num_labels) {
  std::vector<std::vector<kg::NodeId>> sources(num_labels);
  for (std::vector<kg::NodeId>& s : sources) {
    const size_t count = 1 + rng->Uniform(3);
    for (size_t j = 0; j < count; ++j) {
      s.push_back(static_cast<kg::NodeId>(rng->Uniform(num_nodes)));
    }
  }
  return sources;
}

void ExpectSameState(const kg::KnowledgeGraph& g, size_t num_labels,
                     const MultiLabelDijkstra& got,
                     const ReferenceDijkstra& want,
                     const std::string& context) {
  for (kg::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(got.SettledCount(v), want.SettledCount(v))
        << context << " node " << v;
    for (size_t i = 0; i < num_labels; ++i) {
      const std::string where = context + " label " + std::to_string(i) +
                                " node " + std::to_string(v);
      ASSERT_EQ(got.Distance(i, v), want.Distance(i, v)) << where;
      ASSERT_EQ(got.Settled(i, v), want.Settled(i, v)) << where;
      std::vector<PredLink> links;
      for (const PredLink& p : got.Predecessors(i, v)) links.push_back(p);
      const std::vector<PredLink> expected = want.Predecessors(i, v);
      ASSERT_EQ(links.size(), expected.size()) << where;
      for (size_t k = 0; k < links.size(); ++k) {
        EXPECT_EQ(links[k].from, expected[k].from) << where << " link " << k;
        EXPECT_EQ(links[k].predicate, expected[k].predicate) << where;
        EXPECT_EQ(links[k].weight, expected[k].weight) << where;
        EXPECT_EQ(links[k].forward, expected[k].forward) << where;
      }
    }
  }
}

/// Pops both searches `cut` times (or to exhaustion), comparing every pop
/// and the peeked frontier minimum, then the whole state.
void RunAgainstReference(const kg::KnowledgeGraph& g,
                         const std::vector<std::vector<kg::NodeId>>& sources,
                         size_t cut, const std::string& context) {
  MultiLabelDijkstra got(&g, sources);
  ReferenceDijkstra want(&g, sources);
  MultiLabelDijkstra::PopEvent a;
  MultiLabelDijkstra::PopEvent b;
  for (size_t pops = 0; pops < cut; ++pops) {
    ASSERT_EQ(got.PeekMinDistance(), want.PeekMinDistance()) << context;
    const bool more = got.PopNext(&a);
    ASSERT_EQ(more, want.PopNext(&b)) << context << " pop " << pops;
    if (!more) break;
    ASSERT_EQ(a.label_index, b.label_index) << context << " pop " << pops;
    ASSERT_EQ(a.node, b.node) << context << " pop " << pops;
    ASSERT_EQ(a.distance, b.distance) << context << " pop " << pops;
  }
  ExpectSameState(g, sources.size(), got, want, context);
}

TEST(MultiLabelDijkstraReferenceTest, MatchesMapDijkstraOnTiedRandomGraphs) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed + 101);
    const int num_nodes = 12 + static_cast<int>(rng.Uniform(40));
    const kg::KnowledgeGraph g = RandomTiedGraph(&rng, num_nodes);
    const size_t num_labels = 1 + rng.Uniform(5);
    const auto sources = RandomSources(&rng, g.num_nodes(), num_labels);
    const std::string context = "seed " + std::to_string(seed);
    // Cut mid-search (the state C1/C2 termination leaves behind) and run
    // to exhaustion.
    RunAgainstReference(g, sources, 1 + rng.Uniform(3 * num_nodes),
                        context + " cut");
    RunAgainstReference(g, sources, std::numeric_limits<size_t>::max(),
                        context + " full");
  }
}

TEST(SearchScratchTest, BeginForgetsEveryTouchedSlot) {
  SearchScratch scratch;
  scratch.Begin(8, 2);
  SearchScratch::Slot& slot = scratch.Touch(1, 5);
  slot.distance = 3.0;
  scratch.AppendPred(&slot, PredLink{2, 0, 1.0f, true});
  scratch.CountSettled(5);
  EXPECT_EQ(scratch.Distance(1, 5), 3.0);
  EXPECT_EQ(scratch.Distance(0, 5), kInfDistance);  // touched, not reached
  EXPECT_EQ(scratch.SettledCount(5), 1);
  EXPECT_EQ(scratch.touched(), std::vector<kg::NodeId>{5});

  scratch.Begin(8, 3);
  EXPECT_EQ(scratch.Find(1, 5), nullptr);
  EXPECT_EQ(scratch.Distance(1, 5), kInfDistance);
  EXPECT_EQ(scratch.SettledCount(5), 0);
  EXPECT_TRUE(scratch.touched().empty());
  EXPECT_TRUE(scratch.Preds(&scratch.Touch(2, 5)).empty());
}

TEST(SearchScratchTest, GenerationWrapAroundClearsOldStamps) {
  SearchScratch scratch;
  scratch.Begin(8, 1);  // generation 1
  ASSERT_EQ(scratch.generation(), 1u);
  scratch.Touch(0, 5).distance = 1.0;

  scratch.set_generation_for_testing(std::numeric_limits<uint32_t>::max() - 1);
  scratch.Begin(8, 1);
  EXPECT_EQ(scratch.Find(0, 5), nullptr);
  scratch.Touch(0, 3).distance = 2.0;

  // The next Begin wraps to 0 and restarts at 1: node 5 still carries the
  // stamp 1 from the first search and must not read as touched.
  scratch.Begin(8, 1);
  EXPECT_EQ(scratch.generation(), 1u);
  EXPECT_EQ(scratch.Find(0, 5), nullptr);
  EXPECT_EQ(scratch.Find(0, 3), nullptr);
  EXPECT_EQ(scratch.SettledCount(5), 0);
}

TEST(SearchScratchTest, SearchAcrossTheWrapMatchesReference) {
  Rng rng(7);
  const kg::KnowledgeGraph g = RandomTiedGraph(&rng, 30);
  const auto sources = RandomSources(&rng, g.num_nodes(), 3);
  {
    // Leave this thread's idle scratch one search short of the wrap; the
    // searches below borrow it back.
    ScratchLease lease;
    lease->Begin(g.num_nodes(), 3);
    lease->Touch(0, 4);
    lease->set_generation_for_testing(std::numeric_limits<uint32_t>::max() -
                                      1);
  }
  for (int i = 0; i < 3; ++i) {
    RunAgainstReference(g, sources, std::numeric_limits<size_t>::max(),
                        "search " + std::to_string(i));
  }
}

TEST(SearchScratchTest, ReusedAcrossGraphsOfDifferentSizes) {
  Rng rng(11);
  const kg::KnowledgeGraph big = RandomTiedGraph(&rng, 60);
  const kg::KnowledgeGraph small = RandomTiedGraph(&rng, 9);
  const auto big_sources = RandomSources(&rng, big.num_nodes(), 4);
  const auto small_sources = RandomSources(&rng, small.num_nodes(), 2);
  // One thread, one scratch: big, small, big again, small again. Slots
  // past the small graph's end keep stale stamps and must stay invisible.
  for (int round = 0; round < 2; ++round) {
    const std::string r = " round " + std::to_string(round);
    RunAgainstReference(big, big_sources, std::numeric_limits<size_t>::max(),
                        "big" + r);
    RunAgainstReference(small, small_sources,
                        std::numeric_limits<size_t>::max(), "small" + r);
  }
}

TEST(SearchScratchTest, TwoLiveLeasesOnOneThreadStayApart) {
  Rng rng(13);
  const kg::KnowledgeGraph g = RandomTiedGraph(&rng, 40);
  const auto first_sources = RandomSources(&rng, g.num_nodes(), 3);
  const auto second_sources = RandomSources(&rng, g.num_nodes(), 2);

  const SearchScratch* first_scratch = nullptr;
  const SearchScratch* second_scratch = nullptr;
  {
    ScratchLease first;
    ScratchLease second;
    EXPECT_NE(&*first, &*second);
    first_scratch = &*first;
    second_scratch = &*second;
  }
  {
    // Warm: both come back from the idle list, nothing new is allocated.
    ScratchLease a;
    ScratchLease b;
    EXPECT_TRUE(&*a == first_scratch || &*a == second_scratch);
    EXPECT_TRUE(&*b == first_scratch || &*b == second_scratch);
  }

  // Two interleaved searches on one thread, each against its reference.
  MultiLabelDijkstra one(&g, first_sources);
  MultiLabelDijkstra two(&g, second_sources);
  ReferenceDijkstra ref_one(&g, first_sources);
  ReferenceDijkstra ref_two(&g, second_sources);
  MultiLabelDijkstra::PopEvent got;
  MultiLabelDijkstra::PopEvent want;
  bool more_one = true;
  bool more_two = true;
  while (more_one || more_two) {
    if (more_one) {
      more_one = one.PopNext(&got);
      ASSERT_EQ(more_one, ref_one.PopNext(&want));
      if (more_one) {
        ASSERT_EQ(got.node, want.node);
      }
    }
    if (more_two) {
      more_two = two.PopNext(&got);
      ASSERT_EQ(more_two, ref_two.PopNext(&want));
      if (more_two) {
        ASSERT_EQ(got.node, want.node);
      }
    }
  }
  ExpectSameState(g, first_sources.size(), one, ref_one, "first");
  ExpectSameState(g, second_sources.size(), two, ref_two, "second");
}

}  // namespace
}  // namespace embed
}  // namespace newslink
