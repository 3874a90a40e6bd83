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
        if (src.dead_rows != nullptr && src.dead_rows[row[i].index] != 0) {
          continue;
        }
        const uint32_t id = src.id_map != nullptr
                                ? src.id_map[row[i].index]
                                : row[i].index + src.offset;
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
  std::vector<MergeSource> sources(answers.size());
  for (size_t s = 0; s < answers.size(); ++s) {
    sources[s].result = &answers[s].result;
    // Pristine rows carry slice-local indices; mutated rows already
    // carry stable ids (their shard merged and masked locally).
    sources[s].offset = answers[s].pristine ? answers[s].offset : 0;
  }
  return MergeMutableResults(sources, k);
}

}  // namespace sweetknn::core
