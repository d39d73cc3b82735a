#include "ir/top_k.h"

#include <algorithm>

namespace newslink {
namespace ir {

bool TopKHeap::Worse(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.doc > b.doc;  // larger id is worse on ties
}

void TopKHeap::Push(ScoredDoc item) {
  if (k_ == 0) return;
  if (items_.size() < k_) {
    items_.push_back(item);
    std::push_heap(items_.begin(), items_.end(),
                   [](const ScoredDoc& a, const ScoredDoc& b) {
                     return !Worse(a, b);  // min-heap: best sinks
                   });
    return;
  }
  if (!Worse(items_.front(), item)) return;  // not better than current worst
  std::pop_heap(items_.begin(), items_.end(),
                [](const ScoredDoc& a, const ScoredDoc& b) {
                  return !Worse(a, b);
                });
  items_.back() = item;
  std::push_heap(items_.begin(), items_.end(),
                 [](const ScoredDoc& a, const ScoredDoc& b) {
                   return !Worse(a, b);
                 });
}

std::vector<ScoredDoc> TopKHeap::Take() {
  std::sort(items_.begin(), items_.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              return Worse(b, a);  // best first
            });
  return std::move(items_);
}

std::vector<ScoredDoc> SelectTopK(const std::vector<ScoredDoc>& scores,
                                  size_t k) {
  TopKHeap heap(k);
  for (const ScoredDoc& s : scores) heap.Push(s);
  return heap.Take();
}

}  // namespace ir
}  // namespace newslink
