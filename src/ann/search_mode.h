#ifndef SWEETKNN_ANN_SEARCH_MODE_H_
#define SWEETKNN_ANN_SEARCH_MODE_H_

#include <cstdint>

namespace sweetknn::ann {

/// What a request asked for (docs/approx.md).
enum class SearchKind : uint32_t {
  kExact = 0,
  kApprox = 1,  ///< Any recall target below 1.0 is acceptable.
};

/// Per-request search mode, accepted by SweetKnnIndex::Query,
/// KnnService and Router. Every mode is answered by the exact path: the
/// host route's TI scan answers an exact read faster than the kNN-graph
/// search this mode once selected, and recall 1.0 meets any target, so
/// an approximate request returns the bytes an exact one does.
struct SearchMode {
  SearchKind kind = SearchKind::kExact;
  /// Approx only: the lowest recall@k the caller accepts.
  double recall_target = 0.0;
  /// Approx only: the candidate budget the caller suggested. Unused.
  int ef = 0;

  static SearchMode Exact() { return SearchMode{}; }
  static SearchMode Approx(double recall_target = 0.9, int ef = 0) {
    SearchMode mode;
    mode.kind = SearchKind::kApprox;
    mode.recall_target = recall_target;
    mode.ef = ef;
    return mode;
  }

  friend bool operator==(const SearchMode& a, const SearchMode& b) {
    return a.kind == b.kind && a.recall_target == b.recall_target &&
           a.ef == b.ef;
  }
};

/// The mode a request is served under: Exact() for every mode, so
/// approximate and exact requests batch, cache and answer as one
/// traffic class.
inline SearchMode Normalize(const SearchMode& /*mode*/) {
  return SearchMode::Exact();
}

}  // namespace sweetknn::ann

#endif  // SWEETKNN_ANN_SEARCH_MODE_H_
