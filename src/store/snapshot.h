#ifndef SWEETKNN_STORE_SNAPSHOT_H_
#define SWEETKNN_STORE_SNAPSHOT_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/matrix.h"
#include "common/status.h"
#include "core/clustering.h"
#include "core/options.h"
#include "gpusim/device_spec.h"

namespace sweetknn::store {

// ---------------------------------------------------------------------------
// On-disk format (docs/persistence.md has the layout diagram)
//
//   [magic 8B "SKSNAP01"][format version u32][endianness guard u32]
//   repeated sections, each:
//     [section id u32][payload length u64][payload][crc32(payload) u32]
//   [end section: id=0, length=0, crc32 of empty payload]
//   [file crc32 u32 over every preceding byte]
//
// All integers are fixed-width native-endian; the endianness guard makes
// a foreign-endian file fail loudly instead of decoding garbage. The file
// CRC covers everything before it, so any single corrupted byte anywhere
// (including inside the per-section CRCs, or in the file CRC field
// itself) is detected.
//
// Versions. v1 holds a pristine index (sections 1-4). v2 adds the
// optional mutation section (id 5: stable-id map, delta points,
// tombstones) for indexes mutated since their base was clustered. v3
// added the optional ANN graph section (id 6: the kNN graph of the
// frozen base, docs/approx.md). The reader accepts all three; a v3
// file's graph section is CRC-checked like any other and then ignored.
// Indexes are saved at v1 or v2, the lowest version whose sections they
// need, so graph-free snapshots have stayed byte-identical across every
// version bump.
// ---------------------------------------------------------------------------

inline constexpr char kSnapshotMagic[8] = {'S', 'K', 'S', 'N',
                                           'A', 'P', '0', '1'};
inline constexpr uint32_t kSnapshotFormatV1 = 1;
inline constexpr uint32_t kSnapshotFormatV2 = 2;
inline constexpr uint32_t kSnapshotFormatV3 = 3;
/// Newest version this build reads (SaveIndexSnapshot writes v1 or v2).
inline constexpr uint32_t kSnapshotFormatVersion = kSnapshotFormatV3;
inline constexpr uint32_t kEndiannessGuard = 0x01020304u;

/// Section ids. New sections get new ids in new format versions; readers
/// reject ids their file's version cannot contain (a same-version file
/// always holds exactly the sections its writer could produce, so an
/// out-of-range id means corruption, not extension).
enum SnapshotSectionId : uint32_t {
  kSectionEnd = 0,          ///< terminator, zero-length
  kSectionMeta = 1,         ///< provenance: names, shard geometry, shape
  kSectionFingerprint = 2,  ///< TiOptions + DeviceSpec fingerprints
  kSectionTarget = 3,       ///< the target HostMatrix
  kSectionClustering = 4,   ///< the prepared TargetClustering
  kSectionMutation = 5,     ///< v2: id map, delta buffer, tombstones
  kSectionAnnGraph = 6,     ///< v3: kNN graph of the base (read, ignored)
};

/// The largest section id a file of `version` may contain.
inline uint32_t MaxSectionIdForVersion(uint32_t version) {
  if (version >= kSnapshotFormatV3) return kSectionAnnGraph;
  return version >= kSnapshotFormatV2 ? kSectionMutation : kSectionClustering;
}

/// Canonical rendering of every TiOptions field that can influence a
/// prepared index or the answers computed against it. sim_threads is
/// deliberately excluded: the execution engine guarantees bit-identical
/// results at any worker count, so a snapshot is valid across them.
std::string OptionsFingerprint(const core::TiOptions& options);

/// Canonical rendering of a DeviceSpec. Device geometry feeds the
/// landmark-count rule (via free memory) and the adaptive scheme, so an
/// index is only warm-start-safe on the device it was built for.
std::string DeviceFingerprint(const gpusim::DeviceSpec& spec);

/// Everything a warm start needs: the serialized image of one fully
/// prepared TI index plus the configuration it was built under and where
/// the data came from.
struct IndexSnapshot {
  // Provenance.
  std::string dataset_name;
  std::string builder;  ///< free-form, e.g. "sweetknn_cli index-build"
  /// Shard geometry; (0, 1, 0) for a standalone single index.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint64_t shard_offset = 0;  ///< first global target row of this shard

  HostMatrix target;
  core::TargetClusteringHost clustering;

  std::string options_fingerprint;
  std::string device_fingerprint;

  // Mutation overlay (format v2; all empty/zero in v1 files and for
  // pristine indexes). Stable ids name rows across mutations: the base
  // row i carries id `id_map[i]` (or shard_offset + i when id_map is
  // empty), delta point j carries id `delta_ids[j]`, and `tombstones`
  // lists deleted ids still physically present in the base. `next_id` is
  // the id allocator watermark — strictly above every id in the file —
  // or 0 for a pristine snapshot (allocator restarts at the row count).
  std::vector<uint32_t> id_map;      ///< strictly increasing, or empty
  std::vector<uint32_t> delta_ids;   ///< strictly increasing
  HostMatrix delta_points;           ///< delta_ids.size() x dims
  std::vector<uint32_t> tombstones;  ///< strictly increasing
  uint32_t next_id = 0;

  /// Bytes of the ANN graph section a v3 file carried; the loader
  /// checks its CRC and skips it. 0 when absent. Never saved.
  uint64_t ignored_graph_bytes = 0;

  /// True when the snapshot carries mutation state and must be written
  /// as format v2.
  bool HasOverlay() const {
    return next_id != 0 || !id_map.empty() || !delta_ids.empty() ||
           !tombstones.empty();
  }
};

/// The one warm-start compatibility check: Ok when `snapshot` was built
/// under `options` (sim_threads aside) for `device`, otherwise
/// InvalidArgument naming `where` and both the file's and the config's
/// fingerprints.
Status CheckFingerprints(const IndexSnapshot& snapshot,
                         const std::string& where,
                         const core::TiOptions& options,
                         const gpusim::DeviceSpec& device);

/// Streaming writer: sections are appended one at a time, each CRC'd as
/// it goes, and Finish() seals the file with the end marker and the
/// whole-file CRC. Any filesystem failure surfaces as a Status from the
/// call that hit it (and poisons every later call).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::string& path,
                          uint32_t version = kSnapshotFormatVersion);
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  Status WriteSection(uint32_t id, std::string_view payload);
  Status Finish();

 private:
  Status Append(const void* data, size_t len);

  std::string path_;
  std::ofstream out_;
  common::Crc32 file_crc_;
  bool finished_ = false;
  Status deferred_error_;
};

/// Reader: Open() reads the whole file and validates it end to end —
/// magic, version, endianness, section structure, every section CRC and
/// the file CRC — before exposing a single byte of payload. Every failure
/// mode (truncation, bad magic, version skew, checksum mismatch,
/// trailing garbage) is a descriptive Status, never a crash.
class SnapshotReader {
 public:
  struct SectionInfo {
    uint32_t id = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  /// Default-constructed readers hold no sections; use Open(). (Public
  /// only because Result<T> needs a default-constructible T.)
  SnapshotReader() = default;

  static Result<SnapshotReader> Open(const std::string& path);

  /// Payload of the section with this id, or nullptr if absent.
  const std::string* Section(uint32_t id) const;

  const std::vector<SectionInfo>& sections() const { return sections_; }
  uint32_t format_version() const { return format_version_; }
  uint64_t file_size() const { return file_size_; }

 private:
  uint32_t format_version_ = 0;
  uint64_t file_size_ = 0;
  std::vector<SectionInfo> sections_;
  std::vector<std::string> payloads_;  // parallel to sections_
};

/// Serializes a snapshot to `path` (see the format comment above). The
/// encoding is canonical: Save(Load(file)) reproduces any v1 or v2
/// `file` byte for byte, and a v3 file minus its graph section (at v1
/// or v2).
Status SaveIndexSnapshot(const IndexSnapshot& snapshot,
                         const std::string& path);

/// Reads and fully validates a snapshot: file integrity via
/// SnapshotReader, then structural consistency of the decoded index
/// (shape agreement, monotone offsets, in-range ids — everything
/// index-verify checks).
Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path);

/// The structural-consistency half of loading, usable on any decoded
/// snapshot (index-verify runs it; Load runs it before returning).
Status ValidateIndexSnapshot(const IndexSnapshot& snapshot);

/// Deep numeric verification, beyond the structural checks: recomputes
/// every member's distance to its cluster center with the vectorized
/// batch kernels (bit-identical to the builder's per-pair walk) and
/// demands byte equality with the stored member_dists, per-cluster
/// non-increasing ordering, and max_dist replication. The metric is
/// recovered from the snapshot's options fingerprint. O(n * dims) —
/// run by `index-verify`, not on the serving load path.
Status VerifySnapshotDistances(const IndexSnapshot& snapshot);

/// Canonical file name of one shard's snapshot inside a snapshot
/// directory: "shard-<index>-of-<count>.sksnap".
std::string ShardSnapshotPath(const std::string& dir, int shard_index,
                              int shard_count);

/// Lists a snapshot directory's complete shard set in shard order.
/// Errors if the directory is missing, holds no shard snapshots, or the
/// set is incomplete / inconsistent (mixed counts, gaps).
Result<std::vector<std::string>> ListShardSnapshots(const std::string& dir);

}  // namespace sweetknn::store

#endif  // SWEETKNN_STORE_SNAPSHOT_H_
