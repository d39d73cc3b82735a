#include "embed/search_scratch.h"

namespace newslink {
namespace embed {

void SearchScratch::Begin(size_t num_nodes, size_t num_labels) {
  if (++generation_ == 0) {
    // The stamp wrapped: a slot stamped 2^32 searches ago would read as
    // touched, so clear every stamp once and restart at 1.
    for (NodeSlot& n : nodes_) n.stamp = 0;
    generation_ = 1;
  }
  if (nodes_.size() < num_nodes) nodes_.resize(num_nodes);
  num_labels_ = num_labels;
  slots_.clear();
  links_.clear();
  touched_.clear();
  frontier_.clear();
}

namespace {

/// This thread's idle scratches. A lease takes one (or makes one when every
/// scratch of the thread is lent out) and returns it when the search ends.
std::vector<std::unique_ptr<SearchScratch>>& IdleScratches() {
  thread_local std::vector<std::unique_ptr<SearchScratch>> idle;
  return idle;
}

}  // namespace

ScratchLease::ScratchLease() {
  std::vector<std::unique_ptr<SearchScratch>>& idle = IdleScratches();
  if (idle.empty()) {
    scratch_ = std::make_unique<SearchScratch>();
  } else {
    scratch_ = std::move(idle.back());
    idle.pop_back();
  }
}

ScratchLease::~ScratchLease() { IdleScratches().push_back(std::move(scratch_)); }

}  // namespace embed
}  // namespace newslink
