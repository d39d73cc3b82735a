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

}  // namespace baselines
}  // namespace newslink
