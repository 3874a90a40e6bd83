#include "ann/ann_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"

namespace sweetknn::ann {

namespace {

/// Queries per chunk: small enough to balance skewed search costs,
/// large enough to amortize the per-chunk scratch.
constexpr size_t kQueryGrain = 8;

}  // namespace

AnnIndex AnnIndex::Adopt(const HostMatrix& points, simd::Dist dist,
                         KnnGraph graph) {
  SK_CHECK(graph.num_nodes == points.rows())
      << "ANN graph does not cover the point set";
  return AnnIndex(points, dist, std::move(graph));
}

KnnResult AnnIndex::Search(const HostMatrix& queries, int k, int ef,
                           int workers, AnnSearchStats* stats) const {
  KnnResult result(queries.rows(), k);
  if (queries.rows() == 0 || k <= 0) return result;
  SK_CHECK(queries.cols() == points_.cols() || graph_.empty())
      << "query dims do not match the indexed points";
  if (graph_.empty()) {
    // KnnResult zero-initializes its rows; an empty base must answer
    // explicit padding, not neighbor 0 at distance 0.
    for (size_t q = 0; q < queries.rows(); ++q) result.SetRow(q, {});
    return result;
  }

  if (workers <= 0) workers = common::SimThreadsFromEnv();
  const size_t num_chunks =
      common::NumChunks(queries.rows(), kQueryGrain);
  std::vector<AnnSearchStats> chunk_stats(num_chunks);
  common::ParallelForChunks(
      workers, queries.rows(), kQueryGrain,
      [&](size_t chunk, size_t begin, size_t end) {
        SearchScratch scratch;
        AnnSearchStats local;
        for (size_t q = begin; q < end; ++q) {
          const std::vector<Neighbor> nearest =
              SearchGraph(graph_, &reverse_, points_.data(), points_.cols(),
                          dist_, queries.row(q), k, ef, &scratch, &local);
          result.SetRow(q, nearest);
        }
        chunk_stats[chunk] = local;
      });
  if (stats != nullptr) {
    for (const AnnSearchStats& s : chunk_stats) *stats += s;
  }
  return result;
}

}  // namespace sweetknn::ann
