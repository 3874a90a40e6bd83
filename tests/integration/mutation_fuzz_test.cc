// Mutation-differential fuzzing: thousands of seeded interleavings of
// insert / remove / query against a mutable SweetKnnIndex (index tier)
// and a mutable KnnService (service tier), each query checked
// BIT-IDENTICALLY against a BruteForceCpu oracle over the model's live
// point set in ascending stable-id order. (The engine itself is
// bit-identical to BruteForceCpu — the differential fuzz suite proves
// that — so the oracle stands in for a cold-built index at every checked
// step.) Checkpoints additionally rebuild a cold index over the final
// live set and round-trip the mutated state through .sksnap snapshots
// (Save/Load for the index, SaveSnapshots/FromSnapshots for the
// service), querying the restored object on both routes, all
// bit-exact. Any mismatch prints a one-line repro of the failing
// sequence.
//
// Every step also randomly flips the two knobs that are contractually
// invisible in the answers: the kNN route (device or host) and the
// SIMD dispatch tier (forced scalar vs best available). The
// bit-identical oracle check therefore proves route and vector-width
// independence across every interleaving, not just in dedicated
// equivalence tests. The flips are derived from the
// sequence seed, so a repro line replays them exactly.
//
// Each sequence ends with an approx checkpoint: approximate queries over
// the mutated state must be BIT-IDENTICAL to the oracle, as exact ones
// are (docs/approx.md).
//
// Tiers (the totals satisfy the >= 2000 sequence acceptance bar):
//   MutationFuzzFastTier:  150 short sequences — the CI fast stage.
//   MutationFuzzSlow:     1200 index + 800 service sequences, sharded
//                         into parallel ctest cases.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/brute_force_cpu.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "simd/simd_kernels.h"
#include "test_util.h"

namespace sweetknn {
namespace {

constexpr uint64_t kBaseSeed = 20260807;

/// Restores normal SIMD dispatch when a sequence ends (including the
/// early-return failure paths).
struct ScopedSimdDispatch {
  ~ScopedSimdDispatch() { simd::ForceLevelForTest(-1); }
};

/// Per-step flip of the answer-invisible knobs: the kNN route of the
/// index or service under test and the SIMD dispatch tier.
template <typename Target>
void ToggleInvisibleKnobs(Rng* rng, Target* target) {
  // Case 0 was the retired device-sampling route; it maps to the host so
  // every seed keeps drawing the same flips.
  switch (rng->NextBounded(4)) {
    case 1: target->set_route(core::QueryRoute::kDevice); break;
    case 0:
    case 2: target->set_route(core::QueryRoute::kHost); break;
    default: break;  // keep the current route
  }
  simd::ForceLevelForTest(rng->NextBounded(2) == 0 ? 0 : -1);
}

/// The snapshot checkpoints query the restored index or service on both
/// routes; the per-step flips only reach the mutated object.
constexpr core::QueryRoute kRoutes[] = {core::QueryRoute::kDevice,
                                        core::QueryRoute::kHost};

const char* RouteName(core::QueryRoute route) {
  return route == core::QueryRoute::kDevice ? "device" : "host";
}

struct MutationFuzzConfig {
  uint64_t seed = 0;
  size_t n0 = 0;      // initial live points (stable ids 0..n0-1)
  size_t dims = 0;
  int ops = 0;        // mutation/query operations per sequence
  int clusters = 1;
  int service_shards = 1;
  double compact_fraction = 0.25;  // <= 0 disables auto-compaction
  bool auto_compact = true;        // service tier only
  size_t cache_capacity = 0;       // service tier only
  core::Metric metric = core::Metric::kEuclidean;
  int landmarks = 0;  // TiOptions::landmarks_override (0 = 3*sqrt(n))
};

std::string Repro(const char* tier, const MutationFuzzConfig& cfg) {
  std::ostringstream out;
  out << "tier=" << tier << " seed=" << cfg.seed << " n0=" << cfg.n0
      << " d=" << cfg.dims << " ops=" << cfg.ops
      << " clusters=" << cfg.clusters << " shards=" << cfg.service_shards
      << " fraction=" << cfg.compact_fraction
      << " auto_compact=" << (cfg.auto_compact ? 1 : 0)
      << " cache=" << cfg.cache_capacity << " metric="
      << (cfg.metric == core::Metric::kEuclidean ? "euclidean"
                                                 : "manhattan")
      << " landmarks=" << cfg.landmarks;
  return out.str();
}

MutationFuzzConfig DrawConfig(uint64_t seed, bool fast) {
  Rng rng(seed);
  MutationFuzzConfig cfg;
  cfg.seed = seed;
  cfg.n0 = (fast ? 10 : 14) + rng.NextBounded(fast ? 30 : 90);
  cfg.dims = 1 + rng.NextBounded(8);
  cfg.ops = (fast ? 12 : 20) + static_cast<int>(
                                   rng.NextBounded(fast ? 12 : 40));
  cfg.clusters = 1 + static_cast<int>(rng.NextBounded(4));
  cfg.service_shards = 1 + static_cast<int>(rng.NextBounded(3));
  switch (rng.NextBounded(3)) {
    case 0: cfg.compact_fraction = 0.0; break;   // compaction off
    case 1: cfg.compact_fraction = 0.08; break;  // compacts eagerly
    case 2: cfg.compact_fraction = 0.35; break;
  }
  cfg.auto_compact = rng.NextBounded(2) == 0;
  cfg.cache_capacity = rng.NextBounded(3) == 0 ? 8 : 0;
  cfg.metric = rng.NextBounded(2) == 0 ? core::Metric::kEuclidean
                                       : core::Metric::kManhattan;
  // A third of the configs force a few landmarks, so bases whose
  // clusters fill a SIMD tile each take the host route's pruning side
  // (under the 3*sqrt(n) rule every fuzzed base scans one window).
  if (rng.NextBounded(3) == 0) {
    cfg.landmarks = 1 + static_cast<int>(rng.NextBounded(8));
  }
  return cfg;
}

/// The reference model: the set of live points keyed by stable id.
using Model = std::map<uint32_t, std::vector<float>>;

HostMatrix ModelMatrix(const Model& model, size_t dims,
                       std::vector<uint32_t>* ids) {
  HostMatrix points(model.size(), dims);
  ids->clear();
  size_t row = 0;
  for (const auto& [id, coords] : model) {
    std::memcpy(points.mutable_row(row++), coords.data(),
                dims * sizeof(float));
    ids->push_back(id);
  }
  return points;
}

/// Ground truth: brute force over the live set in ascending stable-id
/// order, local indices mapped back to stable ids. Exact ties order by
/// stable id on both sides (local index order IS stable-id order here),
/// so the comparison below can demand bit identity, not tolerance.
KnnResult ExpectedTopK(const Model& model, size_t dims,
                       const HostMatrix& queries, int k,
                       core::Metric metric) {
  if (model.empty()) {
    KnnResult padding(queries.rows(), k);
    for (size_t q = 0; q < queries.rows(); ++q) padding.SetRow(q, {});
    return padding;
  }
  std::vector<uint32_t> ids;
  const HostMatrix points = ModelMatrix(model, dims, &ids);
  KnnResult expected = baseline::BruteForceCpu(queries, points, k, metric);
  for (size_t q = 0; q < expected.num_queries(); ++q) {
    Neighbor* row = expected.mutable_row(q);
    for (int i = 0; i < k; ++i) {
      if (row[i].index != kInvalidNeighbor) row[i] = {ids[row[i].index],
                                                      row[i].distance};
    }
  }
  return expected;
}

/// Bit-exact comparison; returns false (with one ADD_FAILURE) on the
/// first diverging slot.
bool ExpectBitIdentical(const KnnResult& want, const KnnResult& got,
                        const std::string& what) {
  if (want.num_queries() != got.num_queries() || want.k() != got.k()) {
    ADD_FAILURE() << what << ": shape mismatch (" << want.num_queries()
                  << "x" << want.k() << " vs " << got.num_queries() << "x"
                  << got.k() << ")";
    return false;
  }
  for (size_t q = 0; q < want.num_queries(); ++q) {
    for (int i = 0; i < want.k(); ++i) {
      const Neighbor& w = want.row(q)[i];
      const Neighbor& g = got.row(q)[i];
      if (w.index != g.index ||
          std::memcmp(&w.distance, &g.distance, sizeof(float)) != 0) {
        ADD_FAILURE() << what << ": query " << q << " rank " << i
                      << " want (" << w.index << ", " << w.distance
                      << ") got (" << g.index << ", " << g.distance << ")";
        return false;
      }
    }
  }
  return true;
}

/// Closed-ball oracle row over the model's live (id, point) set, in the
/// canonical distance order, sorted under NeighborLess — the ground
/// truth of the range-modality checkpoints (docs/modalities.md).
std::vector<Neighbor> ExpectedRangeRow(const float* query,
                                       const std::vector<uint32_t>& ids,
                                       const HostMatrix& points, float radius,
                                       core::Metric metric) {
  std::vector<Neighbor> out;
  if (points.rows() == 0) return out;
  std::vector<float> dists(points.rows());
  simd::QueryBlockDistances(query, points.data(), points.rows(),
                            points.cols(),
                            metric == core::Metric::kEuclidean
                                ? simd::Dist::kEuclidean
                                : simd::Dist::kManhattan,
                            dists.data());
  for (size_t i = 0; i < points.rows(); ++i) {
    if (dists[i] <= radius) out.push_back(Neighbor{ids[i], dists[i]});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

bool ExpectRangeMatchesModel(const Model& model, size_t dims,
                             const HostMatrix& queries, float radius,
                             core::Metric metric, const RangeResult& got,
                             const std::string& what) {
  std::vector<uint32_t> ids;
  const HostMatrix live = ModelMatrix(model, dims, &ids);
  if (got.num_queries() != queries.rows()) {
    ADD_FAILURE() << what << ": row count " << got.num_queries() << " != "
                  << queries.rows();
    return false;
  }
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::vector<Neighbor> want =
        ExpectedRangeRow(queries.row(q), ids, live, radius, metric);
    if (got.count(q) != want.size()) {
      ADD_FAILURE() << what << ": query " << q << " cardinality "
                    << got.count(q) << " != " << want.size();
      return false;
    }
    const Neighbor* row = got.begin(q);
    for (size_t i = 0; i < want.size(); ++i) {
      if (row[i].index != want[i].index ||
          std::memcmp(&row[i].distance, &want[i].distance,
                      sizeof(float)) != 0) {
        ADD_FAILURE() << what << ": query " << q << " slot " << i
                      << " want (" << want[i].index << ", "
                      << want[i].distance << ") got (" << row[i].index
                      << ", " << row[i].distance << ")";
        return false;
      }
    }
  }
  return true;
}

bool ExpectSelfJoinMatchesModel(const Model& model, size_t dims,
                                float radius, core::Metric metric,
                                const std::vector<SelfJoinPair>& got,
                                const std::string& what) {
  std::vector<uint32_t> ids;
  const HostMatrix live = ModelMatrix(model, dims, &ids);
  std::vector<SelfJoinPair> want;
  for (size_t i = 0; i < live.rows(); ++i) {
    for (const Neighbor& nb :
         ExpectedRangeRow(live.row(i), ids, live, radius, metric)) {
      if (nb.index > ids[i]) {
        want.push_back(SelfJoinPair{ids[i], nb.index, nb.distance});
      }
    }
  }
  std::sort(want.begin(), want.end(),
            [](const SelfJoinPair& x, const SelfJoinPair& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.distance != y.distance) return x.distance < y.distance;
              return x.b < y.b;
            });
  if (got.size() != want.size()) {
    ADD_FAILURE() << what << ": pair count " << got.size() << " != "
                  << want.size();
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) {
      ADD_FAILURE() << what << ": pair " << i << " want (" << want[i].a
                    << "," << want[i].b << "," << want[i].distance
                    << ") got (" << got[i].a << "," << got[i].b << ","
                    << got[i].distance << ")";
      return false;
    }
  }
  return true;
}

HostMatrix RandomQueries(Rng* rng, size_t rows, size_t dims) {
  HostMatrix queries(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < dims; ++j) {
      queries.at(r, j) = rng->NextFloat();
    }
  }
  return queries;
}

std::vector<float> RandomPoint(Rng* rng, size_t dims) {
  std::vector<float> point(dims);
  for (float& x : point) x = rng->NextFloat();
  return point;
}

int DrawK(Rng* rng, const Model& model) {
  // Mostly within the live count; sometimes beyond it, to exercise the
  // padding path.
  const size_t live = model.size();
  if (live == 0 || rng->NextBounded(8) == 0) {
    return 1 + static_cast<int>(rng->NextBounded(4));
  }
  return 1 + static_cast<int>(rng->NextBounded(std::min<size_t>(live, 10)));
}

/// Picks a remove target: usually a live id, sometimes a dead or
/// never-allocated one (the miss path).
uint32_t DrawRemoveId(Rng* rng, const Model& model, uint32_t next_id) {
  if (!model.empty() && rng->NextBounded(4) != 0) {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng->NextBounded(model.size())));
    return it->first;
  }
  return static_cast<uint32_t>(rng->NextBounded(next_id + 3));
}

// ---------------------------------------------------------------------------
// Index tier
// ---------------------------------------------------------------------------

void RunIndexSequence(const MutationFuzzConfig& cfg) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n0, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  SweetKnn::Config config;
  config.options.metric = cfg.metric;
  config.options.landmarks_override = cfg.landmarks;
  config.compact_delta_fraction =
      cfg.auto_compact ? cfg.compact_fraction : 0.0;
  SweetKnnIndex index(target, config);

  Model model;
  for (size_t i = 0; i < cfg.n0; ++i) {
    model[static_cast<uint32_t>(i)] = std::vector<float>(
        target.row(i), target.row(i) + cfg.dims);
  }
  uint32_t expected_next_id = static_cast<uint32_t>(cfg.n0);

  ScopedSimdDispatch dispatch_guard;
  Rng toggle_rng(SplitMix64(cfg.seed + 91));
  Rng rng(SplitMix64(cfg.seed + 17));
  for (int op = 0; op < cfg.ops; ++op) {
    ToggleInvisibleKnobs(&toggle_rng, &index);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 30) {
      const std::vector<float> point = RandomPoint(&rng, cfg.dims);
      const uint32_t id = index.Insert(point);
      if (id != expected_next_id) {
        ADD_FAILURE() << "op " << op << ": Insert returned id " << id
                      << ", expected " << expected_next_id;
        return;
      }
      model[id] = point;
      ++expected_next_id;
    } else if (dice < 55) {
      const uint32_t id = DrawRemoveId(&rng, model, expected_next_id);
      const bool want = model.count(id) > 0;
      const bool got = index.Remove(id);
      if (want != got) {
        ADD_FAILURE() << "op " << op << ": Remove(" << id << ") returned "
                      << got << ", model says " << want;
        return;
      }
      model.erase(id);
    } else if (dice < 60) {
      index.Compact();
    } else {
      const size_t m = 1 + rng.NextBounded(3);
      const HostMatrix queries = RandomQueries(&rng, m, cfg.dims);
      const int k = DrawK(&rng, model);
      const KnnResult want =
          ExpectedTopK(model, cfg.dims, queries, k, cfg.metric);
      const KnnResult got = index.Query(queries, k);
      if (!ExpectBitIdentical(want, got,
                              "op " + std::to_string(op) + " query")) {
        return;
      }
    }
    if (index.size() != model.size()) {
      ADD_FAILURE() << "op " << op << ": index.size()=" << index.size()
                    << " model=" << model.size();
      return;
    }
  }

  // Checkpoint 1: a cold index built from scratch over the final live
  // set (ascending stable-id order) answers bit-identically.
  const HostMatrix checkpoint_queries = RandomQueries(&rng, 4, cfg.dims);
  const int checkpoint_k =
      1 + static_cast<int>(rng.NextBounded(
              std::max<size_t>(std::min<size_t>(model.size(), 10), 1)));
  const KnnResult mutated_answer =
      index.Query(checkpoint_queries, checkpoint_k);
  if (!model.empty()) {
    std::vector<uint32_t> ids;
    const HostMatrix live = ModelMatrix(model, cfg.dims, &ids);
    SweetKnnIndex cold(live, config);
    KnnResult cold_answer = cold.Query(checkpoint_queries, checkpoint_k);
    for (size_t q = 0; q < cold_answer.num_queries(); ++q) {
      Neighbor* row = cold_answer.mutable_row(q);
      for (int i = 0; i < checkpoint_k; ++i) {
        if (row[i].index != kInvalidNeighbor) row[i].index = ids[row[i].index];
      }
    }
    if (!ExpectBitIdentical(cold_answer, mutated_answer,
                            "cold-rebuild checkpoint")) {
      return;
    }
  }

  // Checkpoint 2: the overlay survives a snapshot round trip (v2 when
  // mutated) and the loaded index answers bit-identically.
  const std::string path = ::testing::TempDir() + "/mutfuzz_" +
                           std::to_string(cfg.seed) + ".sksnap";
  const Status saved = index.Save(path, "mutation-fuzz");
  if (!saved.ok()) {
    ADD_FAILURE() << "Save failed: " << saved.ToString();
    return;
  }
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(path, config);
  std::remove(path.c_str());
  if (!loaded.ok()) {
    ADD_FAILURE() << "Load failed: " << loaded.status().ToString();
    return;
  }
  for (const core::QueryRoute route : kRoutes) {
    loaded.value()->set_route(route);
    if (!ExpectBitIdentical(
            mutated_answer,
            loaded.value()->Query(checkpoint_queries, checkpoint_k),
            std::string("snapshot round-trip checkpoint (") +
                RouteName(route) + " route)")) {
      return;
    }
  }

  // Checkpoint (range modalities): RadiusSearch and SelfJoin over the
  // mutated overlay match the brute-force closed-ball oracle over the
  // model, under one more random flip of the invisible knobs.
  ToggleInvisibleKnobs(&toggle_rng, &index);
  const float checkpoint_radius = 0.05f + rng.NextFloat() * 0.6f;
  if (!ExpectRangeMatchesModel(
          model, cfg.dims, checkpoint_queries, checkpoint_radius,
          cfg.metric, index.RadiusSearch(checkpoint_queries,
                                         checkpoint_radius),
          "range checkpoint")) {
    return;
  }
  if (!ExpectSelfJoinMatchesModel(model, cfg.dims, checkpoint_radius,
                                  cfg.metric,
                                  index.SelfJoin(checkpoint_radius),
                                  "self-join checkpoint")) {
    return;
  }

  // Checkpoint 3 (approx): the exact answer's bytes.
  ExpectBitIdentical(mutated_answer,
                     index.Query(checkpoint_queries, checkpoint_k,
                                 ann::SearchMode::Approx(0.9)),
                     "approx checkpoint");
}

// ---------------------------------------------------------------------------
// Service tier
// ---------------------------------------------------------------------------

void RunServiceSequence(const MutationFuzzConfig& cfg) {
  const HostMatrix target = testing::ClusteredPoints(
      cfg.n0, cfg.dims, cfg.clusters, SplitMix64(cfg.seed), 0.08f);
  serve::ServiceConfig config;
  config.num_shards = cfg.service_shards;
  config.max_batch_size = 8;
  config.cache_capacity = cfg.cache_capacity;
  config.options.metric = cfg.metric;
  config.options.landmarks_override = cfg.landmarks;
  config.compact_delta_fraction = cfg.compact_fraction;
  config.auto_compact = cfg.auto_compact;
  serve::KnnService service(target, config);

  Model model;
  for (size_t i = 0; i < cfg.n0; ++i) {
    model[static_cast<uint32_t>(i)] = std::vector<float>(
        target.row(i), target.row(i) + cfg.dims);
  }
  uint32_t expected_next_id = static_cast<uint32_t>(cfg.n0);
  uint64_t inserts = 0;
  uint64_t removes = 0;

  ScopedSimdDispatch dispatch_guard;
  Rng toggle_rng(SplitMix64(cfg.seed + 93));
  Rng rng(SplitMix64(cfg.seed + 31));
  for (int op = 0; op < cfg.ops; ++op) {
    ToggleInvisibleKnobs(&toggle_rng, &service);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 22) {
      const std::vector<float> point = RandomPoint(&rng, cfg.dims);
      const Result<uint32_t> id = service.Insert(point);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (id.value() != expected_next_id) {
        ADD_FAILURE() << "op " << op << ": Insert returned id "
                      << id.value() << ", expected " << expected_next_id;
        return;
      }
      model[id.value()] = point;
      ++expected_next_id;
      ++inserts;
    } else if (dice < 30) {
      const size_t rows = 1 + rng.NextBounded(4);
      HostMatrix points = RandomQueries(&rng, rows, cfg.dims);
      const Result<std::vector<uint32_t>> ids = service.InsertBatch(points);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      for (size_t r = 0; r < rows; ++r) {
        if (ids.value()[r] != expected_next_id) {
          ADD_FAILURE() << "op " << op << ": InsertBatch row " << r
                        << " got id " << ids.value()[r] << ", expected "
                        << expected_next_id;
          return;
        }
        model[ids.value()[r]] = std::vector<float>(
            points.row(r), points.row(r) + cfg.dims);
        ++expected_next_id;
        ++inserts;
      }
    } else if (dice < 52) {
      const uint32_t id = DrawRemoveId(&rng, model, expected_next_id);
      const bool want = model.count(id) > 0;
      const Result<bool> got = service.Remove(id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (want != got.value()) {
        ADD_FAILURE() << "op " << op << ": Remove(" << id << ") returned "
                      << got.value() << ", model says " << want;
        return;
      }
      if (want) ++removes;
      model.erase(id);
    } else if (dice < 58) {
      const int shard = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(service.num_shards())));
      const Status status = rng.NextBounded(3) == 0
                                ? service.CompactAll()
                                : service.CompactShard(shard);
      // Unavailable = a background compaction of the same shard is in
      // flight; anything else is a real failure.
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        ADD_FAILURE() << "op " << op
                      << ": compaction failed: " << status.ToString();
        return;
      }
    } else {
      const size_t m = 1 + rng.NextBounded(3);
      const HostMatrix queries = RandomQueries(&rng, m, cfg.dims);
      const int k = DrawK(&rng, model);
      const KnnResult want =
          ExpectedTopK(model, cfg.dims, queries, k, cfg.metric);
      if (m == 1 && cfg.cache_capacity > 0 && rng.NextBounded(2) == 0) {
        // Exercise the cached single-row path; mutations must have
        // invalidated anything stale.
        const std::vector<float> point(queries.row(0),
                                       queries.row(0) + cfg.dims);
        const Result<std::vector<Neighbor>> got = service.Search(point, k);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        KnnResult got_result(1, k);
        got_result.SetRow(0, got.value());
        if (!ExpectBitIdentical(want, got_result,
                                "op " + std::to_string(op) + " search")) {
          return;
        }
      } else {
        const Result<KnnResult> got = service.JoinBatch(queries, k);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (!ExpectBitIdentical(want, got.value(),
                                "op " + std::to_string(op) + " join")) {
          return;
        }
      }
    }
  }

  // Counter sanity: the service saw exactly the model's mutations.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.inserts, inserts);
  EXPECT_EQ(stats.removes, removes);
  EXPECT_EQ(service.target_rows(), model.size());

  // Checkpoint: the live set's answers survive CompactAll and a full
  // SaveSnapshots -> FromSnapshots round trip, bit-identically.
  const HostMatrix checkpoint_queries = RandomQueries(&rng, 4, cfg.dims);
  const int checkpoint_k = DrawK(&rng, model);
  const KnnResult want = ExpectedTopK(model, cfg.dims, checkpoint_queries,
                                      checkpoint_k, cfg.metric);
  const Status compacted = service.CompactAll();
  if (!compacted.ok() && compacted.code() != StatusCode::kUnavailable) {
    ADD_FAILURE() << "CompactAll failed: " << compacted.ToString();
    return;
  }
  Result<KnnResult> after_compact =
      service.JoinBatch(checkpoint_queries, checkpoint_k);
  ASSERT_TRUE(after_compact.ok()) << after_compact.status().ToString();
  if (!ExpectBitIdentical(want, after_compact.value(),
                          "post-CompactAll checkpoint")) {
    return;
  }

  const std::string dir = ::testing::TempDir() + "/mutfuzz_service_" +
                          std::to_string(cfg.seed);
  std::filesystem::remove_all(dir);
  const Status saved = service.SaveSnapshots(dir);
  if (!saved.ok()) {
    ADD_FAILURE() << "SaveSnapshots failed: " << saved.ToString();
    return;
  }
  Result<std::unique_ptr<serve::KnnService>> adopted =
      serve::KnnService::FromSnapshots(dir, config);
  if (!adopted.ok()) {
    ADD_FAILURE() << "FromSnapshots failed: "
                  << adopted.status().ToString();
    std::filesystem::remove_all(dir);
    return;
  }
  EXPECT_EQ(adopted.value()->target_rows(), model.size());
  for (const core::QueryRoute route : kRoutes) {
    adopted.value()->set_route(route);
    Result<KnnResult> adopted_answer =
        adopted.value()->JoinBatch(checkpoint_queries, checkpoint_k);
    ASSERT_TRUE(adopted_answer.ok()) << adopted_answer.status().ToString();
    if (!ExpectBitIdentical(want, adopted_answer.value(),
                            std::string("FromSnapshots checkpoint (") +
                                RouteName(route) + " route)")) {
      std::filesystem::remove_all(dir);
      return;
    }
  }
  std::filesystem::remove_all(dir);

  // Checkpoint (range modalities): the service's RadiusSearch goes
  // through admission + the batch scheduler, SelfJoin through the whole
  // job pipeline (submit, snapshot, chunks, reduce) — both must match
  // the model's closed-ball oracle bit-for-bit.
  ToggleInvisibleKnobs(&toggle_rng, &service);
  const float checkpoint_radius = 0.05f + rng.NextFloat() * 0.6f;
  const Result<RangeResult> range_got =
      service.RadiusSearch(checkpoint_queries, checkpoint_radius);
  ASSERT_TRUE(range_got.ok()) << range_got.status().ToString();
  if (!ExpectRangeMatchesModel(model, cfg.dims, checkpoint_queries,
                               checkpoint_radius, cfg.metric,
                               range_got.value(),
                               "service range checkpoint")) {
    return;
  }
  const Result<std::vector<SelfJoinPair>> join_got =
      service.SelfJoin(checkpoint_radius);
  ASSERT_TRUE(join_got.ok()) << join_got.status().ToString();
  if (!ExpectSelfJoinMatchesModel(model, cfg.dims, checkpoint_radius,
                                  cfg.metric, join_got.value(),
                                  "service self-join checkpoint")) {
    return;
  }

  // Approx checkpoints, on both the mutated service and the one adopted
  // from its snapshots: the oracle's bytes.
  struct { serve::KnnService* svc; const char* what; } tiers[] = {
      {&service, "service"}, {adopted.value().get(), "adopted service"}};
  for (const auto& t : tiers) {
    Result<KnnResult> approx = t.svc->JoinBatch(
        checkpoint_queries, checkpoint_k, ann::SearchMode::Approx(0.9));
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    if (!ExpectBitIdentical(want, approx.value(),
                            std::string(t.what) + " approx checkpoint")) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

void RunIndexTier(uint64_t seed_offset, int count, bool fast) {
  for (int i = 0; i < count; ++i) {
    const MutationFuzzConfig cfg =
        DrawConfig(kBaseSeed + seed_offset + static_cast<uint64_t>(i), fast);
    SCOPED_TRACE(Repro("index", cfg));
    RunIndexSequence(cfg);
    if (::testing::Test::HasFailure()) break;  // first repro is enough
  }
}

void RunServiceTier(uint64_t seed_offset, int count, bool fast) {
  for (int i = 0; i < count; ++i) {
    const MutationFuzzConfig cfg =
        DrawConfig(kBaseSeed + seed_offset + static_cast<uint64_t>(i), fast);
    SCOPED_TRACE(Repro("service", cfg));
    RunServiceSequence(cfg);
    if (::testing::Test::HasFailure()) break;
  }
}

// The fast tier: 150 short sequences, run as the CI mutation-fuzz stage
// (see .github/workflows/ci.yml) and cheap enough for local iteration.
TEST(MutationFuzzFastTier, IndexSequences) {
  RunIndexTier(/*seed_offset=*/0, /*count=*/100, /*fast=*/true);
}
TEST(MutationFuzzFastTier, ServiceSequences) {
  RunServiceTier(/*seed_offset=*/10000, /*count=*/50, /*fast=*/true);
}

// The slow tiers: 1200 index + 800 service sequences, sharded so ctest
// can run them in parallel. Together with the fast tier this checks
// 2150 seeded interleavings.
TEST(MutationFuzzSlow, IndexTierShard0) { RunIndexTier(20000, 300, false); }
TEST(MutationFuzzSlow, IndexTierShard1) { RunIndexTier(21000, 300, false); }
TEST(MutationFuzzSlow, IndexTierShard2) { RunIndexTier(22000, 300, false); }
TEST(MutationFuzzSlow, IndexTierShard3) { RunIndexTier(23000, 300, false); }
TEST(MutationFuzzSlow, ServiceTierShard0) {
  RunServiceTier(30000, 200, false);
}
TEST(MutationFuzzSlow, ServiceTierShard1) {
  RunServiceTier(31000, 200, false);
}
TEST(MutationFuzzSlow, ServiceTierShard2) {
  RunServiceTier(32000, 200, false);
}
TEST(MutationFuzzSlow, ServiceTierShard3) {
  RunServiceTier(33000, 200, false);
}

}  // namespace
}  // namespace sweetknn
