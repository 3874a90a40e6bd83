#include "store/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ann/search_mode.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "serve/knn_service.h"
#include "store/payload_io.h"

namespace sweetknn::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

HostMatrix RandomMatrix(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      m.at(i, j) = static_cast<float>(rng.NextDouble() * 10.0 - 5.0);
    }
  }
  return m;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A freshly built single-shard index snapshot, produced through the real
/// build path (SweetKnnIndex::Save).
IndexSnapshot BuildSnapshot(const std::string& path, size_t n = 80,
                            size_t dims = 6, uint64_t seed = 7) {
  const HostMatrix target = RandomMatrix(n, dims, seed);
  SweetKnnIndex index(target);
  EXPECT_TRUE(index.Save(path, "unit-test").ok());
  Result<IndexSnapshot> snap = LoadIndexSnapshot(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

TEST(SnapshotWriterReaderTest, SectionRoundTrip) {
  const std::string path = TempPath("sections.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "hello").ok());
    ASSERT_TRUE(writer.WriteSection(kSectionTarget, std::string()).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().format_version(), kSnapshotFormatVersion);
  ASSERT_EQ(reader.value().sections().size(), 2u);
  ASSERT_NE(reader.value().Section(kSectionMeta), nullptr);
  EXPECT_EQ(*reader.value().Section(kSectionMeta), "hello");
  ASSERT_NE(reader.value().Section(kSectionTarget), nullptr);
  EXPECT_TRUE(reader.value().Section(kSectionTarget)->empty());
  EXPECT_EQ(reader.value().Section(kSectionClustering), nullptr);
  std::remove(path.c_str());
}

// Regression: an empty vector or a 0-row matrix can hand the decoder a
// null destination, and memcpy(nullptr, src, 0) is undefined behavior
// (UBSan's nonnull-attribute check stops here without the zero-byte
// guard). Empty arrays must round-trip and leave the cursor in place.
TEST(PayloadIoTest, EmptyArraysAndZeroRowMatrixRoundTrip) {
  PayloadWriter writer;
  writer.PutFloats(nullptr, 0);
  writer.PutU32s(nullptr, 0);
  writer.PutMatrix(HostMatrix(0, 5));
  writer.PutU32(0xC0FFEEu);  // sentinel: the cursor must land exactly here
  const std::string payload = writer.Take();

  PayloadReader reader(payload, "empty round trip");
  std::vector<float> floats;
  std::vector<uint32_t> u32s;
  HostMatrix matrix(2, 2);
  uint32_t sentinel = 0;
  ASSERT_TRUE(reader.GetFloats(&floats).ok());
  ASSERT_TRUE(reader.GetU32s(&u32s).ok());
  ASSERT_TRUE(reader.GetMatrix(&matrix).ok());
  ASSERT_TRUE(reader.GetU32(&sentinel).ok());
  EXPECT_TRUE(reader.ExpectExhausted().ok());
  EXPECT_TRUE(floats.empty());
  EXPECT_TRUE(u32s.empty());
  EXPECT_EQ(matrix.rows(), 0u);
  EXPECT_EQ(matrix.cols(), 5u);
  EXPECT_EQ(sentinel, 0xC0FFEEu);
}

TEST(SnapshotWriterReaderTest, EndMarkerIdIsReserved) {
  const std::string path = TempPath("reserved.sksnap");
  SnapshotWriter writer(path);
  EXPECT_FALSE(writer.WriteSection(kSectionEnd, "x").ok());
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, MissingFileIsDescriptiveError) {
  Result<SnapshotReader> reader =
      SnapshotReader::Open("/nonexistent/no.sksnap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(SnapshotWriterReaderTest, BadMagicRejected) {
  const std::string path = TempPath("magic.sksnap");
  WriteFile(path, "NOTASNAP-------------------------");
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, VersionSkewRejected) {
  const std::string path = TempPath("version.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "x").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = ReadFile(path);
  const uint32_t future = kSnapshotFormatVersion + 1;
  std::memcpy(bytes.data() + sizeof(kSnapshotMagic), &future,
              sizeof(future));
  WriteFile(path, bytes);
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version skew"),
            std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "x").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  WriteFile(path, ReadFile(path) + "junk");
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("trailing"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotWriterReaderTest, EveryTruncationRejected) {
  const std::string path = TempPath("writer_trunc.sksnap");
  {
    SnapshotWriter writer(path);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "payload").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::string bytes = ReadFile(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(path, bytes.substr(0, len));
    Result<SnapshotReader> reader = SnapshotReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "accepted a " << len << "-byte prefix of a "
                              << bytes.size() << "-byte snapshot";
  }
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SaveLoadPreservesEverything) {
  const std::string path = TempPath("index.sksnap");
  const HostMatrix target = RandomMatrix(120, 5, 3);
  SweetKnnIndex index(target);
  ASSERT_TRUE(index.Save(path, "dataset-name").ok());

  Result<IndexSnapshot> snap = LoadIndexSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const IndexSnapshot& s = snap.value();
  EXPECT_EQ(s.dataset_name, "dataset-name");
  EXPECT_EQ(s.builder, "SweetKnnIndex::Save");
  EXPECT_EQ(s.shard_index, 0u);
  EXPECT_EQ(s.shard_count, 1u);
  EXPECT_EQ(s.shard_offset, 0u);
  ASSERT_EQ(s.target.rows(), target.rows());
  ASSERT_EQ(s.target.cols(), target.cols());
  EXPECT_EQ(std::memcmp(s.target.data(), target.data(),
                        target.size() * sizeof(float)),
            0);
  EXPECT_GT(s.clustering.num_clusters, 0);
  EXPECT_EQ(s.clustering.assignment.size(), target.rows());
  EXPECT_EQ(s.options_fingerprint,
            OptionsFingerprint(core::TiOptions::Sweet()));
  EXPECT_EQ(s.device_fingerprint,
            DeviceFingerprint(gpusim::DeviceSpec::TeslaK20c()));
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SaveLoadSaveIsByteIdentical) {
  const std::string path1 = TempPath("canonical1.sksnap");
  const std::string path2 = TempPath("canonical2.sksnap");
  const IndexSnapshot snap = BuildSnapshot(path1);
  ASSERT_TRUE(SaveIndexSnapshot(snap, path2).ok());
  EXPECT_EQ(ReadFile(path1), ReadFile(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(IndexSnapshotTest, WarmLoadedIndexAnswersBitIdentically) {
  const std::string path = TempPath("warm.sksnap");
  const HostMatrix target = RandomMatrix(150, 7, 11);
  SweetKnnIndex cold(target);
  ASSERT_TRUE(cold.Save(path).ok());

  Result<std::unique_ptr<SweetKnnIndex>> warm = SweetKnnIndex::Load(path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value()->size(), cold.size());
  EXPECT_EQ(warm.value()->dims(), cold.dims());

  // Both routes: the device engine and the host scan each answer from
  // the restored shard.
  const HostMatrix queries = RandomMatrix(40, 7, 12);
  for (const core::PlannerMode mode :
       {core::PlannerMode::kForceDevice, core::PlannerMode::kForceHost}) {
    cold.planner().set_mode(mode);
    warm.value()->planner().set_mode(mode);
    for (const int k : {1, 5, 17}) {
      const KnnResult a = cold.Query(queries, k);
      const KnnResult b = warm.value()->Query(queries, k);
      ASSERT_EQ(a.num_queries(), b.num_queries());
      ASSERT_EQ(a.k(), b.k());
      for (size_t q = 0; q < a.num_queries(); ++q) {
        ASSERT_EQ(std::memcmp(a.row(q), b.row(q),
                              static_cast<size_t>(k) * sizeof(Neighbor)),
                  0)
            << "mode=" << static_cast<int>(mode) << " k=" << k
            << " query " << q;
      }
    }
  }
  EXPECT_EQ(warm.value()->planner().device_routes(), 3u);
  EXPECT_EQ(warm.value()->planner().host_routes(), 3u);
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, LoadRejectsOptionsFingerprintMismatch) {
  const std::string path = TempPath("optmismatch.sksnap");
  BuildSnapshot(path);
  SweetKnn::Config config;
  config.options = core::TiOptions::BasicTi();
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(path, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("different options"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, LoadRejectsDeviceFingerprintMismatch) {
  const std::string path = TempPath("devmismatch.sksnap");
  BuildSnapshot(path);
  SweetKnn::Config config;
  config.device = gpusim::DeviceSpec::TeslaK40();
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(path, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("different device"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, SimThreadsDoesNotChangeTheFingerprint) {
  core::TiOptions a = core::TiOptions::Sweet();
  core::TiOptions b = a;
  b.sim_threads = 7;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.kmeans_iterations = 3;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

uint32_t FileFormatVersion(const std::string& path) {
  const std::string bytes = ReadFile(path);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kSnapshotMagic),
              sizeof(version));
  return version;
}

TEST(SnapshotVersionTest, PristineSnapshotsStayFormatV1) {
  // The v2 format bump must not disturb pristine files: an unmutated
  // index writes exactly the bytes a pre-v2 build wrote, so existing
  // snapshot fleets stay byte-stable (and hash-stable) across upgrades.
  const std::string path = TempPath("pristine_v1.sksnap");
  const IndexSnapshot snap = BuildSnapshot(path);
  EXPECT_FALSE(snap.HasOverlay());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV1);

  // The v2 reader reports the original version and re-encodes the file
  // byte-identically.
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().format_version(), kSnapshotFormatV1);
  EXPECT_EQ(reader.value().Section(kSectionMutation), nullptr);
  const std::string resaved = TempPath("pristine_v1_resave.sksnap");
  ASSERT_TRUE(SaveIndexSnapshot(snap, resaved).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(resaved));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

/// A snapshot carrying every overlay field: explicit id map (base ids
/// with holes), delta points, tombstones, and an allocator watermark.
IndexSnapshot OverlaySnapshot(const std::string& path) {
  IndexSnapshot snap = BuildSnapshot(path, 40, 3, 19);
  const size_t dims = snap.target.cols();
  snap.id_map.clear();
  for (uint32_t i = 0; i < snap.target.rows(); ++i) {
    snap.id_map.push_back(2 * i);  // holes: compacted-away history
  }
  snap.delta_ids = {90, 93, 95};
  snap.delta_points = HostMatrix(3, dims);
  Rng rng(23);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t j = 0; j < dims; ++j) {
      snap.delta_points.at(r, j) = rng.NextFloat();
    }
  }
  snap.tombstones = {4, 38};
  snap.next_id = 96;
  return snap;
}

TEST(SnapshotVersionTest, OverlayRoundTripsThroughV2) {
  const std::string path = TempPath("overlay_v2.sksnap");
  const IndexSnapshot snap = OverlaySnapshot(path);
  ASSERT_TRUE(snap.HasOverlay());
  ASSERT_TRUE(ValidateIndexSnapshot(snap).ok());
  ASSERT_TRUE(SaveIndexSnapshot(snap, path).ok());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV2);

  Result<IndexSnapshot> loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const IndexSnapshot& l = loaded.value();
  EXPECT_EQ(l.id_map, snap.id_map);
  EXPECT_EQ(l.delta_ids, snap.delta_ids);
  EXPECT_EQ(l.tombstones, snap.tombstones);
  EXPECT_EQ(l.next_id, snap.next_id);
  ASSERT_EQ(l.delta_points.rows(), snap.delta_points.rows());
  ASSERT_EQ(l.delta_points.cols(), snap.delta_points.cols());
  EXPECT_EQ(std::memcmp(l.delta_points.data(), snap.delta_points.data(),
                        snap.delta_points.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(l.target.data(), snap.target.data(),
                        snap.target.size() * sizeof(float)),
            0);

  // v2 encoding is canonical too: Save(Load(file)) == file.
  const std::string resaved = TempPath("overlay_v2_resave.sksnap");
  ASSERT_TRUE(SaveIndexSnapshot(l, resaved).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(resaved));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(SnapshotVersionTest, MutatedIndexSavesAsV2AndWarmLoadsExactly) {
  // Through the real index path: mutate, save (must become v2), load,
  // and answer bit-identically to the still-live mutated index.
  const std::string path = TempPath("mutated_index.sksnap");
  const HostMatrix target = RandomMatrix(90, 5, 31);
  SweetKnnIndex index(target);
  Rng rng(37);
  for (int i = 0; i < 7; ++i) {
    std::vector<float> p(5);
    for (float& x : p) x = rng.NextFloat();
    index.Insert(p);
  }
  ASSERT_TRUE(index.Remove(12));
  ASSERT_TRUE(index.Remove(57));
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_EQ(FileFormatVersion(path), kSnapshotFormatV2);

  Result<std::unique_ptr<SweetKnnIndex>> warm = SweetKnnIndex::Load(path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value()->size(), index.size());
  EXPECT_EQ(warm.value()->next_id(), index.next_id());
  const HostMatrix queries = RandomMatrix(25, 5, 41);
  for (const int k : {1, 4, 11}) {
    const KnnResult a = index.Query(queries, k);
    const KnnResult b = warm.value()->Query(queries, k);
    for (size_t q = 0; q < a.num_queries(); ++q) {
      ASSERT_EQ(std::memcmp(a.row(q), b.row(q),
                            static_cast<size_t>(k) * sizeof(Neighbor)),
                0)
          << "k=" << k << " query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotVersionTest, OverlayValidationRejectsInconsistency) {
  const std::string path = TempPath("overlay_bad.sksnap");
  const IndexSnapshot good = OverlaySnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ValidateIndexSnapshot(good).ok());

  {
    IndexSnapshot bad = good;
    std::swap(bad.delta_ids[0], bad.delta_ids[1]);
    const Status s = ValidateIndexSnapshot(bad);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("not strictly increasing"),
              std::string::npos)
        << s.message();
  }
  {
    // A tombstone naming a delta id: deletes of delta-resident points
    // are physical erases, never tombstones.
    IndexSnapshot bad = good;
    bad.tombstones.push_back(bad.delta_ids[1]);
    const Status s = ValidateIndexSnapshot(bad);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("erased, not tombstoned"), std::string::npos)
        << s.message();
  }
  {
    // Allocator watermark below an existing id would hand out dupes.
    IndexSnapshot bad = good;
    bad.next_id = bad.delta_ids.back();
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    // Delta matrix shape must agree with the delta id list.
    IndexSnapshot bad = good;
    bad.delta_ids.push_back(bad.next_id - 1);
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    // Delta ids must sit above every base id (monotone allocation).
    IndexSnapshot bad = good;
    bad.delta_ids[0] = bad.id_map.back() - 1;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.id_map[0] = bad.id_map[1];  // not strictly increasing
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
}

TEST(ValidateIndexSnapshotTest, CatchesStructuralCorruption) {
  const std::string path = TempPath("structural.sksnap");
  const IndexSnapshot good = BuildSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(ValidateIndexSnapshot(good).ok());

  {
    IndexSnapshot bad = good;
    bad.clustering.assignment[0] =
        static_cast<uint32_t>(bad.clustering.num_clusters);
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.member_offsets.back() += 1;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.member_ids[1] = bad.clustering.member_ids[0];
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.clustering.num_clusters = 0;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
  {
    IndexSnapshot bad = good;
    bad.shard_index = 3;
    bad.shard_count = 2;
    EXPECT_FALSE(ValidateIndexSnapshot(bad).ok());
  }
}

TEST(ShardDirectoryTest, PathNamingAndListing) {
  EXPECT_EQ(ShardSnapshotPath("/d", 2, 8), "/d/shard-2-of-8.sksnap");

  const std::string dir = TempPath("shardset");
  std::filesystem::create_directories(dir);
  for (int s = 0; s < 3; ++s) {
    WriteFile(ShardSnapshotPath(dir, s, 3), "placeholder");
  }
  Result<std::vector<std::string>> listed = ListShardSnapshots(dir);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(listed.value()[static_cast<size_t>(s)],
              ShardSnapshotPath(dir, s, 3));
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardDirectoryTest, IncompleteOrInconsistentSetsRejected) {
  EXPECT_FALSE(ListShardSnapshots("/nonexistent/dir").ok());

  const std::string dir = TempPath("badshardset");
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(ListShardSnapshots(dir).ok());  // no snapshots at all

  WriteFile(ShardSnapshotPath(dir, 0, 3), "x");
  WriteFile(ShardSnapshotPath(dir, 2, 3), "x");
  Result<std::vector<std::string>> gap = ListShardSnapshots(dir);
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.status().message().find("missing shard 1"),
            std::string::npos)
      << gap.status().message();

  WriteFile(ShardSnapshotPath(dir, 1, 3), "x");
  WriteFile(ShardSnapshotPath(dir, 0, 2), "x");  // mixed shard counts
  EXPECT_FALSE(ListShardSnapshots(dir).ok());
  std::filesystem::remove_all(dir);
}

// -- One snapshot model ------------------------------------------------------
// SweetKnnIndex is one core::ShardHost at offset 0, the shard both
// serving backends run, so each side reads the other's files: a mutated
// index saved as a one-shard set serves from KnnService::FromSnapshots,
// and a mutated one-shard service's SaveSnapshots file loads through
// SweetKnnIndex::Load, each answering bit-identically to its source.

void ExpectSameKnn(const KnnResult& want, const KnnResult& got,
                   const std::string& what) {
  ASSERT_EQ(want.num_queries(), got.num_queries()) << what;
  ASSERT_EQ(want.k(), got.k()) << what;
  for (size_t q = 0; q < want.num_queries(); ++q) {
    ASSERT_EQ(std::memcmp(want.row(q), got.row(q),
                          static_cast<size_t>(want.k()) * sizeof(Neighbor)),
              0)
        << what << ": query " << q;
  }
}

/// Exact kNN, approx kNN (the exact bytes on both sides), RadiusSearch
/// and KnnGraph.
void ExpectSameAnswers(SweetKnnIndex* index, serve::KnnService* service,
                       const std::string& what) {
  const HostMatrix queries = RandomMatrix(9, index->dims(), 101);
  const ann::SearchMode approx = ann::SearchMode::Approx(0.9);
  for (const int k : {1, 5, 13}) {
    const std::string at = what + " k=" + std::to_string(k);
    const KnnResult want = index->Query(queries, k);
    Result<KnnResult> exact = service->JoinBatch(queries, k);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ExpectSameKnn(want, exact.value(), at + " exact");
    Result<KnnResult> served = service->JoinBatch(queries, k, approx);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectSameKnn(want, served.value(), at + " approx");
    ExpectSameKnn(want, index->Query(queries, k, approx),
                  at + " index approx");
  }

  const float radius = 4.0f;
  const RangeResult want_range = index->RadiusSearch(queries, radius);
  Result<RangeResult> range = service->RadiusSearch(queries, radius);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(want_range.num_queries(), range.value().num_queries()) << what;
  EXPECT_GT(want_range.total_matches(), 0u) << what;
  for (size_t q = 0; q < want_range.num_queries(); ++q) {
    ASSERT_EQ(want_range.count(q), range.value().count(q))
        << what << " radius query " << q;
    EXPECT_EQ(std::memcmp(want_range.begin(q), range.value().begin(q),
                          want_range.count(q) * sizeof(Neighbor)),
              0)
        << what << " radius query " << q;
  }

  const SweetKnnIndex::KnnGraphResult graph = index->KnnGraph(4);
  Result<serve::JobOutput> job = service->KnnGraph(4);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(graph.ids, job.value().query_ids) << what;
  ExpectSameKnn(graph.neighbors, job.value().graph, what + " knn graph");
}

/// Five inserts and four removes: both the delta and the tombstones end
/// up non-empty, well under the auto-compaction threshold.
template <typename InsertFn, typename RemoveFn>
void Mutate(size_t dims, InsertFn insert, RemoveFn remove) {
  Rng rng(59);
  for (int i = 0; i < 5; ++i) {
    std::vector<float> p(dims);
    for (float& x : p) x = static_cast<float>(rng.NextDouble() * 10.0 - 5.0);
    insert(p);
  }
  for (const uint32_t id : {3u, 17u, 64u, 121u}) remove(id);
}

TEST(SnapshotInteropTest, IndexAndServiceShareOneSnapshotModel) {
  const HostMatrix target = RandomMatrix(120, 6, 53);
  SweetKnn::Config config;
  serve::ServiceConfig service_config;
  service_config.num_shards = 1;
  service_config.options = config.options;
  service_config.device = config.device;

  // SweetKnnIndex::Save -> KnnService::FromSnapshots.
  SweetKnnIndex index(target, config);
  Mutate(
      target.cols(), [&](const std::vector<float>& p) { index.Insert(p); },
      [&](uint32_t id) { ASSERT_TRUE(index.Remove(id)); });
  ASSERT_GT(index.delta_size(), 0u);
  ASSERT_GT(index.tombstone_count(), 0u);
  const std::string index_dir = TempPath("interop_index");
  std::filesystem::remove_all(index_dir);
  std::filesystem::create_directories(index_dir);
  ASSERT_TRUE(index.Save(ShardSnapshotPath(index_dir, 0, 1)).ok());
  Result<std::unique_ptr<serve::KnnService>> adopted =
      serve::KnnService::FromSnapshots(index_dir, service_config);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ExpectSameAnswers(&index, adopted.value().get(), "index -> service");

  // KnnService::SaveSnapshots -> SweetKnnIndex::Load.
  serve::KnnService service(target, service_config);
  Mutate(
      target.cols(),
      [&](const std::vector<float>& p) {
        ASSERT_TRUE(service.Insert(p).ok());
      },
      [&](uint32_t id) {
        Result<bool> removed = service.Remove(id);
        ASSERT_TRUE(removed.ok() && removed.value());
      });
  const std::string service_dir = TempPath("interop_service");
  std::filesystem::remove_all(service_dir);
  ASSERT_TRUE(service.SaveSnapshots(service_dir).ok());
  Result<std::unique_ptr<SweetKnnIndex>> loaded =
      SweetKnnIndex::Load(ShardSnapshotPath(service_dir, 0, 1), config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded.value()->delta_size(), 0u);
  EXPECT_GT(loaded.value()->tombstone_count(), 0u);
  ExpectSameAnswers(loaded.value().get(), &service, "service -> index");

  std::filesystem::remove_all(index_dir);
  std::filesystem::remove_all(service_dir);
}

// -- Format v3 ----------------------------------------------------------------
// tests/goldens/v3_graph holds a one-shard set written by the last build
// that persisted ANN graphs (300 clustered 4-d rows, degree-4 graph):
//   sweetknn_cli index-build --target=points.csv --out-dir=v3_graph
//       --shards=1 --dataset=v3_graph --ann --ann-degree=4
// Both load paths must still take it: the graph section passes its CRC
// and is ignored, the answers are a cold build's bytes, and a re-save
// drops the section (v1: the set is pristine).

TEST(SnapshotVersionTest, V3GraphSnapshotLoadsAndResavesWithoutGraph) {
  const std::string dir = std::string(SWEETKNN_GOLDEN_DIR) + "/v3_graph";
  const std::string path = ShardSnapshotPath(dir, 0, 1);
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().format_version(), kSnapshotFormatV3);
  const std::string* graph = reader.value().Section(kSectionAnnGraph);
  ASSERT_NE(graph, nullptr);
  Result<IndexSnapshot> snap = LoadIndexSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap.value().ignored_graph_bytes, graph->size());
  EXPECT_TRUE(VerifySnapshotDistances(snap.value()).ok());
  ASSERT_EQ(snap.value().target.rows(), 300u);

  SweetKnnIndex cold(snap.value().target);
  Result<std::unique_ptr<SweetKnnIndex>> loaded = SweetKnnIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  serve::ServiceConfig service_config;
  service_config.num_shards = 1;
  Result<std::unique_ptr<serve::KnnService>> adopted =
      serve::KnnService::FromSnapshots(dir, service_config);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ExpectSameAnswers(&cold, adopted.value().get(), "cold vs FromSnapshots");
  ExpectSameAnswers(loaded.value().get(), adopted.value().get(),
                    "Load vs FromSnapshots");

  const std::string resaved = TempPath("v3_resaved.sksnap");
  ASSERT_TRUE(loaded.value()->Save(resaved, "v3_graph").ok());
  const std::string service_dir = TempPath("v3_resaved_set");
  std::filesystem::remove_all(service_dir);
  ASSERT_TRUE(adopted.value()->SaveSnapshots(service_dir).ok());
  for (const std::string& out :
       {resaved, ShardSnapshotPath(service_dir, 0, 1)}) {
    Result<SnapshotReader> again = SnapshotReader::Open(out);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().format_version(), kSnapshotFormatV1) << out;
    EXPECT_EQ(again.value().Section(kSectionAnnGraph), nullptr) << out;
    Result<IndexSnapshot> reloaded = LoadIndexSnapshot(out);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded.value().ignored_graph_bytes, 0u) << out;
    EXPECT_EQ(reloaded.value().target.storage(), snap.value().target.storage())
        << out;
  }
  adopted.value()->Shutdown();
  std::remove(resaved.c_str());
  std::filesystem::remove_all(service_dir);
}

}  // namespace
}  // namespace sweetknn::store
