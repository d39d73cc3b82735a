// Dense, reusable state for the NE searches: MultiLabelDijkstra (Algs. 1-3),
// the sketch merge of TrySketchLcag and the sketch ball build.
//
// Every search keys its state by KG node. Instead of a hash map per search,
// SearchScratch keeps one slot per KG node, stamped with the generation of
// the search that last touched it: Begin() bumps the generation, so a reset
// costs nothing and a stale slot reads as untouched. A node's first touch
// appends one Slot per label to an arena; predecessor links and the frontier
// heap live in arenas too. Begin() clears the arenas but keeps their
// capacity, so a warm search allocates nothing.
//
// Each thread keeps its scratches in a free list, and a ScratchLease borrows
// one for the lifetime of a search (two live searches on one thread borrow
// two). Per thread the memory is bounded by the high-water mark of the
// searches it ran: 12 bytes per KG node, plus 24 bytes per (label, touched
// node), 20 per predecessor link and 16 per frontier entry.

#ifndef NEWSLINK_EMBED_SEARCH_SCRATCH_H_
#define NEWSLINK_EMBED_SEARCH_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "kg/types.h"

namespace newslink {
namespace embed {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// \brief A predecessor link in a label's shortest-path DAG.
struct PredLink {
  kg::NodeId from;
  kg::PredicateId predicate;
  float weight;
  bool forward;
};

/// \brief One frontier entry: a tentative distance of (label, node).
struct FrontierEntry {
  double distance;
  kg::NodeId node;
  uint32_t label;
};

/// \brief Generation-stamped per-node search state (see the file comment).
class SearchScratch {
 public:
  static constexpr uint32_t kNoLink = std::numeric_limits<uint32_t>::max();

  /// The state of one (label, node) pair.
  struct Slot {
    double distance = kInfDistance;
    uint32_t pred_head = kNoLink;  // first predecessor link, append order
    uint32_t pred_tail = kNoLink;
    bool settled = false;
  };

  /// A label's predecessor links of one node, in the order they were
  /// appended.
  class PredRange {
   public:
    class Iterator {
     public:
      Iterator(const SearchScratch* scratch, uint32_t link)
          : scratch_(scratch), link_(link) {}
      const PredLink& operator*() const { return scratch_->links_[link_].link; }
      Iterator& operator++() {
        link_ = scratch_->links_[link_].next;
        return *this;
      }
      bool operator==(const Iterator& o) const { return link_ == o.link_; }

     private:
      const SearchScratch* scratch_;
      uint32_t link_;
    };

    PredRange(const SearchScratch* scratch, uint32_t head)
        : scratch_(scratch), head_(head) {}
    Iterator begin() const { return Iterator(scratch_, head_); }
    Iterator end() const { return Iterator(scratch_, kNoLink); }
    bool empty() const { return head_ == kNoLink; }

   private:
    const SearchScratch* scratch_;
    uint32_t head_;
  };

  /// Start a new search over node ids [0, num_nodes) with `num_labels`
  /// labels. Every slot reads as untouched afterwards; the arenas and the
  /// frontier are empty.
  void Begin(size_t num_nodes, size_t num_labels);

  size_t num_labels() const { return num_labels_; }

  /// The slot of (label, v), or null when this search has not touched v.
  const Slot* Find(size_t label, kg::NodeId v) const {
    NL_DCHECK(v < nodes_.size() && label < num_labels_);
    const NodeSlot& n = nodes_[v];
    return n.stamp == generation_ ? &slots_[n.first + label] : nullptr;
  }
  Slot* Find(size_t label, kg::NodeId v) {
    return const_cast<Slot*>(std::as_const(*this).Find(label, v));
  }

  /// The slot of (label, v); the first touch of v gives every label of v a
  /// fresh slot (infinite distance, unsettled, no links). The reference is
  /// valid until the next Touch() of an untouched node.
  Slot& Touch(size_t label, kg::NodeId v) {
    NL_DCHECK(v < nodes_.size() && label < num_labels_);
    NodeSlot& n = nodes_[v];
    if (n.stamp != generation_) {
      n.stamp = generation_;
      n.first = static_cast<uint32_t>(slots_.size());
      n.settled = 0;
      slots_.resize(slots_.size() + num_labels_);
      touched_.push_back(v);
    }
    return slots_[n.first + label];
  }

  /// D(label, v); kInfDistance when untouched.
  double Distance(size_t label, kg::NodeId v) const {
    const Slot* slot = Find(label, v);
    return slot == nullptr ? kInfDistance : slot->distance;
  }

  /// How many labels have settled v (a per-node count the caller bumps).
  int SettledCount(kg::NodeId v) const {
    const NodeSlot& n = nodes_[v];
    return n.stamp == generation_ ? static_cast<int>(n.settled) : 0;
  }
  void CountSettled(kg::NodeId v) {
    NL_DCHECK(nodes_[v].stamp == generation_);
    ++nodes_[v].settled;
  }

  /// Replace `slot`'s predecessor links with `link` alone.
  void ResetPreds(Slot* slot, const PredLink& link) {
    slot->pred_head = slot->pred_tail = NewLink(link);
  }
  /// Append `link` to `slot`'s predecessor links.
  void AppendPred(Slot* slot, const PredLink& link) {
    const uint32_t id = NewLink(link);
    if (slot->pred_tail == kNoLink) {
      slot->pred_head = id;
    } else {
      links_[slot->pred_tail].next = id;
    }
    slot->pred_tail = id;
  }
  PredRange Preds(const Slot* slot) const {
    return PredRange(this, slot == nullptr ? kNoLink : slot->pred_head);
  }

  /// The nodes this search has touched, in first-touch order.
  const std::vector<kg::NodeId>& touched() const { return touched_; }

  /// The frontier: a min-heap ordered by (distance, node, label), empty
  /// after Begin(). Stale entries stay until the caller pops them.
  bool FrontierEmpty() const { return frontier_.empty(); }
  const FrontierEntry& FrontierTop() const { return frontier_.front(); }
  void PushFrontier(const FrontierEntry& entry) {
    frontier_.push_back(entry);
    std::push_heap(frontier_.begin(), frontier_.end(), After);
  }
  FrontierEntry PopFrontier() {
    std::pop_heap(frontier_.begin(), frontier_.end(), After);
    const FrontierEntry top = frontier_.back();
    frontier_.pop_back();
    return top;
  }

  uint32_t generation() const { return generation_; }
  /// Test hook: jump the stamp close to its wrap-around.
  void set_generation_for_testing(uint32_t generation) {
    generation_ = generation;
  }

 private:
  struct NodeSlot {
    uint32_t stamp = 0;    // generation of the search that touched the node
    uint32_t first = 0;    // index of its label-0 slot in slots_
    uint32_t settled = 0;  // labels that settled it
  };
  struct Link {
    PredLink link;
    uint32_t next;
  };

  /// Heap order: true when `a` pops after `b`.
  static bool After(const FrontierEntry& a, const FrontierEntry& b) {
    if (a.distance != b.distance) return a.distance > b.distance;
    if (a.node != b.node) return a.node > b.node;
    return a.label > b.label;
  }

  uint32_t NewLink(const PredLink& link) {
    links_.push_back(Link{link, kNoLink});
    return static_cast<uint32_t>(links_.size() - 1);
  }

  uint32_t generation_ = 0;
  size_t num_labels_ = 0;
  std::vector<NodeSlot> nodes_;
  std::vector<Slot> slots_;
  std::vector<Link> links_;
  std::vector<kg::NodeId> touched_;
  std::vector<FrontierEntry> frontier_;
};

/// \brief Borrows one of this thread's SearchScratch objects for the
/// lifetime of a search, and gives it back on destruction.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SearchScratch& operator*() const { return *scratch_; }
  SearchScratch* operator->() const { return scratch_.get(); }

 private:
  std::unique_ptr<SearchScratch> scratch_;
};

}  // namespace embed
}  // namespace newslink

#endif  // NEWSLINK_EMBED_SEARCH_SCRATCH_H_
