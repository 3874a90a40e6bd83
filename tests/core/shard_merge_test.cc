#include "core/shard_merge.h"

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sweetknn::core {
namespace {

KnnResult ResultFromRows(
    const std::vector<std::vector<Neighbor>>& rows, int k) {
  KnnResult out(rows.size(), k);
  for (size_t q = 0; q < rows.size(); ++q) out.SetRow(q, rows[q]);
  return out;
}

/// Pristine answers: results[s] is the slice-local top-k of shard s,
/// whose slice starts at stable id offsets[s].
std::vector<ShardAnswer> Pristine(std::vector<KnnResult> results,
                                  const std::vector<uint32_t>& offsets) {
  std::vector<ShardAnswer> answers(results.size());
  for (size_t s = 0; s < results.size(); ++s) {
    answers[s].result = std::move(results[s]);
    answers[s].offset = offsets[s];
  }
  return answers;
}

TEST(ShardMergeTest, RemapsAndPicksGlobalTopK) {
  // Shard 0 holds target rows [0, 3), shard 1 holds [3, 6).
  const KnnResult s0 = ResultFromRows(
      {{{0, 1.0f}, {2, 4.0f}}, {{1, 0.5f}, {0, 9.0f}}}, 2);
  const KnnResult s1 = ResultFromRows(
      {{{1, 2.0f}, {0, 3.0f}}, {{2, 0.25f}, {1, 0.75f}}}, 2);
  const KnnResult merged = MergeShardAnswers(Pristine({s0, s1}, {0, 3}), 2);
  ASSERT_EQ(merged.num_queries(), 2u);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{0, 1.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{4, 2.0f}));
  EXPECT_EQ(merged.row(1)[0], (Neighbor{5, 0.25f}));
  EXPECT_EQ(merged.row(1)[1], (Neighbor{1, 0.5f}));
}

TEST(ShardMergeTest, ExactDistanceTiesBreakOnGlobalIndex) {
  const KnnResult s0 = ResultFromRows({{{1, 2.0f}, {0, 7.0f}}}, 2);
  const KnnResult s1 = ResultFromRows({{{0, 2.0f}, {1, 2.0f}}}, 2);
  const KnnResult merged = MergeShardAnswers(Pristine({s0, s1}, {0, 2}), 2);
  // Three candidates at distance 2.0: global ids 1, 2, 3 — keep 1 and 2.
  EXPECT_EQ(merged.row(0)[0], (Neighbor{1, 2.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{2, 2.0f}));
}

TEST(ShardMergeTest, PaddedShardRowsAreSkipped) {
  // Shard 1's slice has one row: its second slot is padding.
  const KnnResult s0 = ResultFromRows({{{0, 5.0f}, {1, 6.0f}}}, 2);
  const KnnResult s1 = ResultFromRows({{{0, 1.0f}}}, 2);
  const KnnResult merged = MergeShardAnswers(Pristine({s0, s1}, {0, 2}), 2);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{2, 1.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{0, 5.0f}));
}

TEST(ShardMergeTest, FewerCandidatesThanKPadsLikeSingleEngine) {
  const KnnResult s0 = ResultFromRows({{{0, 1.0f}}}, 3);
  const KnnResult s1 = ResultFromRows({{{0, 2.0f}}}, 3);
  const KnnResult merged = MergeShardAnswers(Pristine({s0, s1}, {0, 1}), 3);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{0, 1.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{1, 2.0f}));
  EXPECT_EQ(merged.row(0)[2].index, kInvalidNeighbor);
}

TEST(ShardMergeTest, MergedBruteForceShardsEqualWholeSetBitwise) {
  // Property check against the oracle: brute-force each slice, merge,
  // compare bit-for-bit with brute force over the whole target.
  const HostMatrix target = testing::ClusteredPoints(157, 5, 4, 501);
  const HostMatrix queries = testing::ClusteredPoints(23, 5, 2, 502);
  constexpr int kNeighbors = 9;
  const KnnResult whole =
      baseline::BruteForceCpu(queries, target, kNeighbors);

  const std::vector<size_t> cuts = {0, 40, 41, 157};  // uneven slices
  std::vector<KnnResult> shard_results;
  std::vector<uint32_t> offsets;
  for (size_t s = 0; s + 1 < cuts.size(); ++s) {
    const size_t rows = cuts[s + 1] - cuts[s];
    HostMatrix slice(rows, target.cols());
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < target.cols(); ++j) {
        slice.at(r, j) = target.at(cuts[s] + r, j);
      }
    }
    shard_results.push_back(
        baseline::BruteForceCpu(queries, slice, kNeighbors));
    offsets.push_back(static_cast<uint32_t>(cuts[s]));
  }
  const KnnResult merged =
      MergeShardAnswers(Pristine(shard_results, offsets), kNeighbors);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int i = 0; i < kNeighbors; ++i) {
      EXPECT_EQ(whole.row(q)[i].index, merged.row(q)[i].index);
      EXPECT_EQ(whole.row(q)[i].distance, merged.row(q)[i].distance);
    }
  }
}

TEST(ShardMergeTest, CrossShardTiesAtDifferentRanksStillOrderGlobally) {
  // The tied candidates sit at different ranks within their shards:
  // shard 0's rank-1 entry (global id 2) ties shard 1's rank-0 entry
  // (global id 3). The merge must order them by global id, not by the
  // rank they happened to hold locally.
  const KnnResult s0 = ResultFromRows({{{0, 1.0f}, {2, 3.0f}}}, 2);
  const KnnResult s1 = ResultFromRows({{{0, 3.0f}, {2, 3.0f}}}, 2);
  const KnnResult merged = MergeShardAnswers(Pristine({s0, s1}, {0, 3}), 2);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{0, 1.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{2, 3.0f}));
}

// --- MergeMutableResults: base shards + delta buffers + tombstones ---

TEST(MergeMutableTest, EqualDistancesAcrossSourcesOrderByStableId) {
  // A base shard (ids via offset), a second base shard (ids via id_map),
  // and a delta buffer all contribute a candidate at distance 2.0 with
  // stable ids 7 (delta), 4 (id_map), and 1 (offset). The winner order
  // must be ascending stable id — the order a cold index over the live
  // set would produce — regardless of which source each came from.
  const KnnResult base0 = ResultFromRows({{{1, 2.0f}, {0, 5.0f}}}, 2);
  const KnnResult base1 = ResultFromRows({{{0, 2.0f}, {1, 6.0f}}}, 2);
  const KnnResult delta = ResultFromRows({{{0, 2.0f}}}, 2);
  const std::vector<uint32_t> id_map = {4, 5};
  const std::vector<uint32_t> delta_ids = {7};
  const std::vector<MergeSource> sources = {
      {&base0, nullptr, 0, nullptr},
      {&base1, id_map.data(), 0, nullptr},
      {&delta, delta_ids.data(), 0, nullptr},
  };
  const KnnResult merged = MergeMutableResults(sources, 2);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{1, 2.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{4, 2.0f}));
}

TEST(MergeMutableTest, TombstonesDoNotConsumeTheKBudget) {
  // The base was over-queried at k' = k + |tombstones| = 4. Its two
  // nearest entries are dead; the merge must keep walking and still
  // surface the base's two nearest *live* points, not stop after k
  // slots' worth of raw entries.
  const KnnResult base = ResultFromRows(
      {{{0, 1.0f}, {1, 2.0f}, {2, 3.0f}, {3, 4.0f}}}, 4);
  const std::vector<uint8_t> dead = {1, 1, 0, 0};
  const std::vector<MergeSource> sources = {{&base, nullptr, 0, dead.data()}};
  const KnnResult merged = MergeMutableResults(sources, 2);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{2, 3.0f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{3, 4.0f}));
}

TEST(MergeMutableTest, OffsetAndIdMapSourcesRemapBeforeTieBreak) {
  // Offset source: local 0/1 -> stable 10/11. id_map source: local
  // 0/1 -> stable 3/12. A tie at 1.5 between stable 11 (offset) and
  // stable 3 (id_map) must resolve in favor of the smaller stable id
  // even though the offset source was listed first.
  const KnnResult by_offset = ResultFromRows({{{1, 1.5f}, {0, 8.0f}}}, 3);
  const KnnResult by_map = ResultFromRows({{{0, 1.5f}, {1, 9.0f}}}, 3);
  const std::vector<uint32_t> id_map = {3, 12};
  const std::vector<MergeSource> sources = {
      {&by_offset, nullptr, 10, nullptr},
      {&by_map, id_map.data(), 0, nullptr},
  };
  const KnnResult merged = MergeMutableResults(sources, 3);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{3, 1.5f}));
  EXPECT_EQ(merged.row(0)[1], (Neighbor{11, 1.5f}));
  EXPECT_EQ(merged.row(0)[2], (Neighbor{10, 8.0f}));
}

TEST(MergeMutableTest, NullSourcesAreSkippedAndPaddingPropagates) {
  // Empty delta buffers hand the merge a null result; they must be
  // ignored. With fewer live candidates than k the tail pads exactly
  // like a single engine would.
  const KnnResult base = ResultFromRows({{{0, 2.0f}, {1, 3.0f}}}, 3);
  const std::vector<uint8_t> dead = {0, 1};
  const std::vector<MergeSource> sources = {
      {nullptr, nullptr, 0, nullptr},
      {&base, nullptr, 0, dead.data()},
  };
  const KnnResult merged = MergeMutableResults(sources, 3);
  EXPECT_EQ(merged.row(0)[0], (Neighbor{0, 2.0f}));
  EXPECT_EQ(merged.row(0)[1].index, kInvalidNeighbor);
  EXPECT_EQ(merged.row(0)[2].index, kInvalidNeighbor);
}

TEST(MergeMutableTest, MatchesColdBruteForceOverLiveSetBitwise) {
  // Property check: base shard + tombstones + delta must reproduce a
  // brute-force run over the surviving points bit-for-bit.
  const HostMatrix target = testing::ClusteredPoints(80, 4, 3, 601);
  const HostMatrix queries = testing::ClusteredPoints(11, 4, 2, 602);
  constexpr int kNeighbors = 5;
  const std::unordered_set<uint32_t> dead = {3, 17, 40, 41, 79};
  std::vector<uint8_t> dead_rows(80, 0);
  for (const uint32_t id : dead) dead_rows[id] = 1;

  // Delta: four extra points with stable ids 80..83.
  const HostMatrix extra = testing::ClusteredPoints(4, 4, 1, 603);
  const std::vector<uint32_t> delta_ids = {80, 81, 82, 83};

  const KnnResult base_result = baseline::BruteForceCpu(
      queries, target, kNeighbors + static_cast<int>(dead.size()));
  const KnnResult delta_result =
      baseline::BruteForceCpu(queries, extra, kNeighbors);
  const std::vector<MergeSource> sources = {
      {&base_result, nullptr, 0, dead_rows.data()},
      {&delta_result, delta_ids.data(), 0, nullptr},
  };
  const KnnResult merged = MergeMutableResults(sources, kNeighbors);

  // Oracle: live points in ascending stable-id order.
  std::vector<uint32_t> live_ids;
  for (uint32_t i = 0; i < 84; ++i) {
    if (dead.count(i) == 0) live_ids.push_back(i);
  }
  HostMatrix live(live_ids.size(), target.cols());
  for (size_t r = 0; r < live_ids.size(); ++r) {
    const HostMatrix& from = live_ids[r] < 80 ? target : extra;
    const size_t row = live_ids[r] < 80 ? live_ids[r] : live_ids[r] - 80;
    for (size_t j = 0; j < target.cols(); ++j) {
      live.at(r, j) = from.at(row, j);
    }
  }
  const KnnResult whole =
      baseline::BruteForceCpu(queries, live, kNeighbors);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (int i = 0; i < kNeighbors; ++i) {
      EXPECT_EQ(live_ids[whole.row(q)[i].index], merged.row(q)[i].index)
          << "query " << q << " rank " << i;
      EXPECT_EQ(whole.row(q)[i].distance, merged.row(q)[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace sweetknn::core
