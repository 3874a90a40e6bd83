// Corruption fuzzing of the snapshot format: every single-bit flip and
// every truncation of a valid snapshot must come back as a clean Status
// error — never a crash, never a silently-accepted wrong index. Labeled
// `slow` in ctest (it opens the file tens of thousands of times).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/sweet_knn.h"
#include "gtest/gtest.h"
#include "store/snapshot.h"

namespace sweetknn::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
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

/// Bytes of a freshly built, valid snapshot. With `mutate`, the index
/// first takes inserts and removes, so the file is format v2 with
/// non-empty delta and tombstone payloads in the mutation section.
std::string BuildSnapshotBytes(const std::string& path,
                               bool mutate = false) {
  Rng rng(21);
  HostMatrix target(90, 4);
  for (size_t i = 0; i < target.rows(); ++i) {
    for (size_t j = 0; j < target.cols(); ++j) {
      target.at(i, j) = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
    }
  }
  SweetKnnIndex index(target);
  if (mutate) {
    for (int i = 0; i < 5; ++i) {
      std::vector<float> p(target.cols());
      for (float& x : p) x = rng.NextFloat();
      index.Insert(p);
    }
    EXPECT_TRUE(index.Remove(8));
    EXPECT_TRUE(index.Remove(31));
  }
  EXPECT_TRUE(index.Save(path, "corruption-fuzz").ok());
  return ReadFile(path);
}

/// Rejection must be a recoverable Status, with a non-empty message.
void ExpectCleanError(const std::string& path, const char* what) {
  const Result<IndexSnapshot> loaded = LoadIndexSnapshot(path);
  ASSERT_FALSE(loaded.ok()) << "accepted a corrupted snapshot (" << what
                            << ")";
  EXPECT_TRUE(loaded.status().code() == StatusCode::kIoError ||
              loaded.status().code() == StatusCode::kInvalidArgument)
      << what << ": " << loaded.status().ToString();
  EXPECT_FALSE(loaded.status().message().empty()) << what;
}

TEST(SnapshotCorruptionTest, EverySingleBitFlipIsRejected) {
  const std::string path = TempPath("bitflip.sksnap");
  const std::string good = BuildSnapshotBytes(path);
  ASSERT_FALSE(good.empty());
  ASSERT_TRUE(LoadIndexSnapshot(path).ok());

  // One deterministic pseudo-random bit per byte position covers every
  // byte of the file; CRC32 detects any single-bit error, so all of
  // these must fail (the whole-file checksum protects even the section
  // CRCs and the checksum field itself).
  Rng rng(42);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(
        static_cast<unsigned char>(bad[pos]) ^
        static_cast<unsigned char>(1u << rng.NextBounded(8)));
    WriteFile(path, bad);
    ExpectCleanError(path,
                     ("bit flip at byte " + std::to_string(pos)).c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, SeededRandomCorruptionsAreRejected) {
  const std::string path = TempPath("random.sksnap");
  const std::string good = BuildSnapshotBytes(path);
  ASSERT_FALSE(good.empty());

  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bad = good;
    // Corrupt 1-4 bytes at random positions with random values.
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    bool changed = false;
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBounded(bad.size());
      const char value = static_cast<char>(rng.NextBounded(256));
      changed |= bad[pos] != value;
      bad[pos] = value;
    }
    if (!changed) continue;  // wrote the same bytes back
    WriteFile(path, bad);
    ExpectCleanError(path, ("random corruption trial " +
                            std::to_string(trial)).c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, EveryTruncationIsRejected) {
  const std::string path = TempPath("corruption_trunc.sksnap");
  const std::string good = BuildSnapshotBytes(path);
  ASSERT_FALSE(good.empty());

  for (size_t len = 0; len < good.size(); ++len) {
    WriteFile(path, good.substr(0, len));
    ExpectCleanError(path, ("truncation to " + std::to_string(len) +
                            " bytes").c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, V2MutationSectionBitFlipsAreRejected) {
  // Same every-byte sweep over a format-v2 file: the mutation section
  // (id map, delta points, tombstones, next_id) enjoys the same CRC
  // armor as the v1 sections.
  const std::string path = TempPath("bitflip_v2.sksnap");
  const std::string good = BuildSnapshotBytes(path, /*mutate=*/true);
  ASSERT_FALSE(good.empty());
  uint32_t version = 0;
  std::memcpy(&version, good.data() + sizeof(kSnapshotMagic),
              sizeof(version));
  ASSERT_EQ(version, kSnapshotFormatV2);
  ASSERT_TRUE(LoadIndexSnapshot(path).ok());

  Rng rng(43);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(
        static_cast<unsigned char>(bad[pos]) ^
        static_cast<unsigned char>(1u << rng.NextBounded(8)));
    WriteFile(path, bad);
    ExpectCleanError(path,
                     ("v2 bit flip at byte " + std::to_string(pos)).c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, V2EveryTruncationIsRejected) {
  const std::string path = TempPath("trunc_v2.sksnap");
  const std::string good = BuildSnapshotBytes(path, /*mutate=*/true);
  ASSERT_FALSE(good.empty());
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFile(path, good.substr(0, len));
    ExpectCleanError(path, ("v2 truncation to " + std::to_string(len) +
                            " bytes").c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, MutationSectionInV1FileIsRejected) {
  // A file claiming format v1 must not smuggle in a v2-only section id:
  // the reader bounds section ids by the file's own version.
  const std::string path = TempPath("v1_smuggle.sksnap");
  {
    SnapshotWriter writer(path, kSnapshotFormatV1);
    ASSERT_TRUE(writer.WriteSection(kSectionMeta, "m").ok());
    ASSERT_TRUE(writer.WriteSection(kSectionMutation, "overlay").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("section"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, GrownLengthFieldsDoNotOverAllocate) {
  // Corrupting a section length to a huge value must fail on the bounds
  // check, not by attempting a multi-gigabyte allocation. Section
  // headers start after [magic][version][endian guard]; the length field
  // sits 4 bytes into the header.
  const std::string path = TempPath("length.sksnap");
  const std::string good = BuildSnapshotBytes(path);
  const size_t len_offset = sizeof(kSnapshotMagic) + 2 * sizeof(uint32_t) +
                            sizeof(uint32_t);
  std::string bad = good;
  const uint64_t huge = ~uint64_t{0} / 2;
  ASSERT_LE(len_offset + sizeof(huge), bad.size());
  std::memcpy(bad.data() + len_offset, &huge, sizeof(huge));
  WriteFile(path, bad);
  ExpectCleanError(path, "section length grown to 2^63");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sweetknn::store
