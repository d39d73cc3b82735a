// Top-k selection utilities (paper Sec. VI cites threshold-style top-k
// ranking [49]; at our corpus scales a bounded min-heap over the scored
// accumulator set is the appropriate engine).

#ifndef NEWSLINK_IR_TOP_K_H_
#define NEWSLINK_IR_TOP_K_H_

#include <limits>
#include <vector>

#include "ir/scorer.h"

namespace newslink {
namespace ir {

/// \brief Bounded min-heap keeping the k best (score, doc) pairs.
///
/// Ties break towards smaller doc ids so results are deterministic.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  void Push(ScoredDoc item);

  /// Smallest score currently needed to enter the heap: -inf while unfull,
  /// +inf when k == 0 (nothing can ever enter). Inline: the pruning loops
  /// read it once per candidate.
  double Threshold() const {
    // k == 0 means nothing can ever enter the heap, so the entry bar is
    // +inf. (Without this guard, `items_.size() < k_` is false for an
    // empty heap and items_.front() reads an empty vector.)
    if (k_ == 0) return std::numeric_limits<double>::infinity();
    if (items_.size() < k_) return -std::numeric_limits<double>::infinity();
    return items_.front().score;
  }

  /// Extract results ordered best-first. The heap is consumed.
  std::vector<ScoredDoc> Take();

  size_t size() const { return items_.size(); }

 private:
  static bool Worse(const ScoredDoc& a, const ScoredDoc& b);

  size_t k_;
  std::vector<ScoredDoc> items_;  // min-heap on score
};

/// Select the k highest-scoring documents from an unordered score list.
std::vector<ScoredDoc> SelectTopK(const std::vector<ScoredDoc>& scores,
                                  size_t k);

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_TOP_K_H_
