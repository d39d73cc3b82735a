#include "baselines/search_engine.h"

namespace newslink {
namespace baselines {

SearchResponse SearchEngine::RankedSearch(
    const SearchRequest& request,
    const std::function<std::vector<SearchResult>(const SearchRequest&)>& rank)
    const {
  SearchResponse response;
  Trace trace;
  std::vector<SearchResult> results;
  {
    ScopedSpan span(&trace, "search");
    results = rank(request);
  }
  TraceSpan root = trace.Finish();
  response.timings = SpanBreakdown(root);
  response.hits.reserve(results.size());
  for (const SearchResult& result : results) {
    SearchHit hit;
    hit.doc_index = result.doc_index;
    hit.score = result.score;
    response.hits.push_back(std::move(hit));
  }
  queries_->Inc();
  query_seconds_->Observe(root.duration_seconds);
  if (request.trace) response.trace = std::move(root);
  return response;
}

std::vector<SearchResponse> SearchEngine::SearchBatch(
    std::span<const SearchRequest> requests) const {
  std::vector<SearchResponse> responses(requests.size());
  if (requests.empty()) return responses;
  if (requests.size() == 1) {
    responses[0] = Search(requests[0]);
    return responses;
  }
  // Each request is an independent Search with its own snapshot
  // acquisition; a pool sized by the hardware keeps peak memory
  // proportional to it, not to the batch.
  std::call_once(batch_pool_once_,
                 [this] { batch_pool_ = std::make_unique<ThreadPool>(); });
  batch_pool_->ParallelFor(requests.size(), [&](size_t i) {
    responses[i] = Search(requests[i]);
  });
  return responses;
}

}  // namespace baselines
}  // namespace newslink
