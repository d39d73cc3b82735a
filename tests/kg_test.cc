// Tests for src/kg: graph construction, CSR adjacency, bi-direction,
// label index, TSV round-trip, entity types.

#include <set>

#include <gtest/gtest.h>

#include "kg/kg_io.h"
#include "kg/knowledge_graph.h"
#include "kg/label_index.h"
#include "kg/types.h"
#include "test_temp.h"

namespace newslink {
namespace kg {
namespace {

KnowledgeGraph TriangleGraph() {
  KgBuilder b;
  const NodeId a = b.AddNode("Alpha", EntityType::kGpe, "Alpha place");
  const NodeId c = b.AddNode("Beta", EntityType::kPerson, "Beta person");
  const NodeId d = b.AddNode("Gamma", EntityType::kEvent, "Gamma event");
  EXPECT_TRUE(b.AddEdge(a, c, "knows").ok());
  EXPECT_TRUE(b.AddEdge(c, d, "attended").ok());
  EXPECT_TRUE(b.AddEdge(d, a, "occurred_in").ok());
  return b.Build();
}

// ---------------------------------------------------------------------------
// EntityType
// ---------------------------------------------------------------------------

TEST(EntityTypeTest, NameRoundTrip) {
  for (EntityType t :
       {EntityType::kPerson, EntityType::kNorp, EntityType::kFacility,
        EntityType::kOrganization, EntityType::kGpe, EntityType::kLocation,
        EntityType::kProduct, EntityType::kEvent, EntityType::kWorkOfArt,
        EntityType::kLaw, EntityType::kLanguage}) {
    EXPECT_EQ(ParseEntityType(EntityTypeName(t)), t);
  }
}

TEST(EntityTypeTest, UnknownParsesToOther) {
  EXPECT_EQ(ParseEntityType("SOMETHING_ELSE"), EntityType::kOther);
  EXPECT_EQ(ParseEntityType(""), EntityType::kOther);
}

// ---------------------------------------------------------------------------
// KgBuilder / KnowledgeGraph
// ---------------------------------------------------------------------------

TEST(KgBuilderTest, NodesGetSequentialIds) {
  KgBuilder b;
  EXPECT_EQ(b.AddNode("a", EntityType::kGpe), 0u);
  EXPECT_EQ(b.AddNode("b", EntityType::kGpe), 1u);
  EXPECT_EQ(b.AddNode("c", EntityType::kGpe), 2u);
}

TEST(KgBuilderTest, PredicatesAreInterned) {
  KgBuilder b;
  const PredicateId p1 = b.AddPredicate("located_in");
  const PredicateId p2 = b.AddPredicate("located_in");
  const PredicateId p3 = b.AddPredicate("part_of");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
}

TEST(KgBuilderTest, RejectsInvalidEdges) {
  KgBuilder b;
  const NodeId a = b.AddNode("a", EntityType::kGpe);
  const NodeId c = b.AddNode("b", EntityType::kGpe);
  EXPECT_TRUE(b.AddEdge(a, 99, "p").ok() == false);
  EXPECT_TRUE(b.AddEdge(a, a, "p").IsInvalidArgument());  // self loop
  EXPECT_TRUE(b.AddEdge(a, c, "p", 0.0f).IsInvalidArgument());
  EXPECT_TRUE(b.AddEdge(a, c, "p", -1.0f).IsInvalidArgument());
  const PredicateId bogus = 42;
  EXPECT_TRUE(b.AddEdge(a, c, bogus).IsInvalidArgument());
}

TEST(KnowledgeGraphTest, BasicCounts) {
  KnowledgeGraph g = TriangleGraph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_predicates(), 3u);
}

TEST(KnowledgeGraphTest, BiDirectedArcs) {
  KnowledgeGraph g = TriangleGraph();
  // Every node of the triangle has exactly 2 arcs: one forward, one reverse.
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.Degree(v), 2u);
    int forward = 0, reverse = 0;
    for (const Arc& arc : g.OutArcs(v)) {
      (arc.forward ? forward : reverse) += 1;
    }
    EXPECT_EQ(forward, 1);
    EXPECT_EQ(reverse, 1);
  }
}

TEST(KnowledgeGraphTest, ArcsMirrorEdges) {
  KnowledgeGraph g = TriangleGraph();
  // For each original edge src->dst there is a forward arc at src and a
  // reverse arc at dst, with matching predicate.
  for (const EdgeRecord& e : g.edges()) {
    bool found_forward = false;
    for (const Arc& arc : g.OutArcs(e.src)) {
      if (arc.dst == e.dst && arc.forward && arc.predicate == e.predicate) {
        found_forward = true;
      }
    }
    bool found_reverse = false;
    for (const Arc& arc : g.OutArcs(e.dst)) {
      if (arc.dst == e.src && !arc.forward && arc.predicate == e.predicate) {
        found_reverse = true;
      }
    }
    EXPECT_TRUE(found_forward);
    EXPECT_TRUE(found_reverse);
  }
}

TEST(KnowledgeGraphTest, NodeAttributes) {
  KnowledgeGraph g = TriangleGraph();
  EXPECT_EQ(g.label(0), "Alpha");
  EXPECT_EQ(g.type(1), EntityType::kPerson);
  EXPECT_EQ(g.description(2), "Gamma event");
}

TEST(KnowledgeGraphTest, FindPredicate) {
  KnowledgeGraph g = TriangleGraph();
  Result<PredicateId> found = g.FindPredicate("knows");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(g.predicate_name(*found), "knows");
  EXPECT_TRUE(g.FindPredicate("nope").status().IsNotFound());
}

TEST(KnowledgeGraphTest, ArcToStringOrientation) {
  KnowledgeGraph g = TriangleGraph();
  for (const Arc& arc : g.OutArcs(0)) {
    const std::string s = g.ArcToString(0, arc);
    if (arc.forward) {
      EXPECT_NE(s.find("-->"), std::string::npos) << s;
    } else {
      EXPECT_NE(s.find("<--"), std::string::npos) << s;
    }
  }
}

TEST(KnowledgeGraphTest, EmptyGraph) {
  KgBuilder b;
  KnowledgeGraph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(KnowledgeGraphTest, IsolatedNodeHasNoArcs) {
  KgBuilder b;
  b.AddNode("lonely", EntityType::kGpe);
  KnowledgeGraph g = b.Build();
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_TRUE(g.OutArcs(0).empty());
}

TEST(KnowledgeGraphTest, ParallelEdgesWithDistinctPredicatesKept) {
  KgBuilder b;
  const NodeId a = b.AddNode("a", EntityType::kPerson);
  const NodeId e = b.AddNode("e", EntityType::kEvent);
  EXPECT_TRUE(b.AddEdge(a, e, "candidate_in").ok());
  EXPECT_TRUE(b.AddEdge(a, e, "winner_of").ok());
  KnowledgeGraph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(a), 2u);
  EXPECT_EQ(g.Degree(e), 2u);
}

// ---------------------------------------------------------------------------
// LabelIndex
// ---------------------------------------------------------------------------

TEST(LabelIndexTest, NormalizeLabel) {
  EXPECT_EQ(NormalizeLabel("  Swat   Valley "), "swat valley");
  EXPECT_EQ(NormalizeLabel("UPPER DIR"), "upper dir");
  EXPECT_EQ(NormalizeLabel(""), "");
  EXPECT_EQ(NormalizeLabel("   "), "");
}

TEST(LabelIndexTest, LookupIsCaseAndSpaceInsensitive) {
  KnowledgeGraph g = TriangleGraph();
  LabelIndex index(g);
  EXPECT_EQ(index.Lookup("alpha").size(), 1u);
  EXPECT_EQ(index.Lookup("ALPHA")[0], 0u);
  EXPECT_TRUE(index.Lookup("delta").empty());
}

TEST(LabelIndexTest, MultipleNodesShareLabel) {
  KgBuilder b;
  b.AddNode("Springfield", EntityType::kGpe);
  b.AddNode("Springfield", EntityType::kGpe);
  KnowledgeGraph g = b.Build();
  LabelIndex index(g);
  // S(l) holds both nodes (paper Def. 2 allows |S(l)| > 1).
  EXPECT_EQ(index.Lookup("springfield").size(), 2u);
}

TEST(LabelIndexTest, AliasesResolve) {
  KnowledgeGraph g = TriangleGraph();
  LabelIndex index(g);
  index.AddAlias("The Alpha Republic", 0);
  EXPECT_EQ(index.Lookup("the alpha republic").size(), 1u);
  EXPECT_EQ(index.Lookup("the alpha republic")[0], 0u);
}

TEST(LabelIndexTest, DuplicateAliasNotDoubled) {
  KnowledgeGraph g = TriangleGraph();
  LabelIndex index(g);
  index.AddAlias("Alpha", 0);  // already indexed
  EXPECT_EQ(index.Lookup("alpha").size(), 1u);
}

TEST(LabelIndexTest, ForEachLabelVisitsAll) {
  KnowledgeGraph g = TriangleGraph();
  LabelIndex index(g);
  std::set<std::string> seen;
  index.ForEachLabel(
      [&seen](const std::string& label, const std::vector<NodeId>&) {
        seen.insert(label);
      });
  EXPECT_EQ(seen, (std::set<std::string>{"alpha", "beta", "gamma"}));
}

// ---------------------------------------------------------------------------
// TSV I/O
// ---------------------------------------------------------------------------

TEST(KgIoTest, RoundTripPreservesGraph) {
  KnowledgeGraph g = TriangleGraph();
  const ScopedTempDir temp;
  const std::string prefix = temp.File("nl_kg_test");
  ASSERT_TRUE(SaveTsv(g, prefix).ok());

  Result<KnowledgeGraph> loaded = LoadTsv(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KnowledgeGraph& g2 = *loaded;
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g2.label(v), g.label(v));
    EXPECT_EQ(g2.type(v), g.type(v));
    EXPECT_EQ(g2.description(v), g.description(v));
  }
  for (size_t i = 0; i < g.edges().size(); ++i) {
    EXPECT_EQ(g2.edges()[i].src, g.edges()[i].src);
    EXPECT_EQ(g2.edges()[i].dst, g.edges()[i].dst);
    EXPECT_EQ(g2.predicate_name(g2.edges()[i].predicate),
              g.predicate_name(g.edges()[i].predicate));
  }
}

TEST(KgIoTest, EscapesSpecialCharacters) {
  KgBuilder b;
  b.AddNode("tab\there", EntityType::kGpe, "line\nbreak and \\ backslash");
  b.AddNode("plain", EntityType::kGpe);
  EXPECT_TRUE(b.AddEdge(0, 1, "p").ok());
  KnowledgeGraph g = b.Build();
  const ScopedTempDir temp;
  const std::string prefix = temp.File("nl_kg_escape");
  ASSERT_TRUE(SaveTsv(g, prefix).ok());
  Result<KnowledgeGraph> loaded = LoadTsv(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->label(0), "tab\there");
  EXPECT_EQ(loaded->description(0), "line\nbreak and \\ backslash");
}

TEST(KgIoTest, MissingFileIsIOError) {
  Result<KnowledgeGraph> loaded = LoadTsv("/nonexistent/path/prefix");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

}  // namespace
}  // namespace kg
}  // namespace newslink
