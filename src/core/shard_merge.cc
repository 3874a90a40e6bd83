#include "core/shard_merge.h"

#include <algorithm>

#include "common/logging.h"
#include "common/topk.h"

namespace sweetknn::core {

KnnResult MergeMutableResults(const std::vector<MergeSource>& sources,
                              int k) {
  SK_CHECK_GT(k, 0);
  size_t num_queries = 0;
  bool any = false;
  for (const MergeSource& src : sources) {
    if (src.result == nullptr) continue;
    if (!any) {
      num_queries = src.result->num_queries();
      any = true;
    } else {
      SK_CHECK_EQ(src.result->num_queries(), num_queries);
    }
    SK_CHECK_GE(src.result->k(), k);
  }
  SK_CHECK(any) << "MergeMutableResults needs at least one source";

  KnnResult merged(num_queries, k);
  std::vector<Neighbor> pool;
  for (size_t q = 0; q < num_queries; ++q) {
    pool.clear();
    for (const MergeSource& src : sources) {
      if (src.result == nullptr) continue;
      const Neighbor* row = src.result->row(q);
      const int source_k = src.result->k();
      // Per source, at most k *live* entries can make the global top-k;
      // everything masked on the way does not count toward that budget.
      int kept = 0;
      for (int i = 0; i < source_k && kept < k; ++i) {
        if (row[i].index == kInvalidNeighbor) break;  // padding: rest too
        const uint32_t id = src.id_map != nullptr
                                ? src.id_map[row[i].index]
                                : row[i].index + src.offset;
        if (src.tombstones != nullptr && src.tombstones->count(id) != 0) {
          continue;
        }
        pool.push_back(Neighbor{id, row[i].distance});
        ++kept;
      }
    }
    const size_t keep = std::min(pool.size(), static_cast<size_t>(k));
    std::partial_sort(pool.begin(), pool.begin() + keep, pool.end(),
                      NeighborLess);
    pool.resize(keep);
    merged.SetRow(q, pool);
  }
  return merged;
}

KnnResult MergeShardAnswers(const std::vector<ShardAnswer>& answers, int k) {
  SK_CHECK_GT(k, 0);
  SK_CHECK(!answers.empty());
  const size_t num_queries = answers[0].result.num_queries();
  for (const ShardAnswer& a : answers) {
    SK_CHECK_EQ(a.result.num_queries(), num_queries);
    SK_CHECK_EQ(a.result.k(), k);
  }

  KnnResult merged(num_queries, k);
  std::vector<Neighbor> pool;
  pool.reserve(answers.size() * static_cast<size_t>(k));
  for (size_t q = 0; q < num_queries; ++q) {
    pool.clear();
    for (const ShardAnswer& a : answers) {
      const Neighbor* row = a.result.row(q);
      for (int i = 0; i < k; ++i) {
        if (row[i].index == kInvalidNeighbor) break;  // padding: rest too
        // Pristine rows carry slice-local indices; mutated rows already
        // carry stable ids (their shard merged and masked locally).
        const uint32_t id =
            a.pristine ? row[i].index + a.offset : row[i].index;
        pool.push_back(Neighbor{id, row[i].distance});
      }
    }
    const size_t keep = std::min(pool.size(), static_cast<size_t>(k));
    std::partial_sort(pool.begin(), pool.begin() + keep, pool.end(),
                      NeighborLess);
    pool.resize(keep);
    merged.SetRow(q, pool);
  }
  return merged;
}

}  // namespace sweetknn::core
