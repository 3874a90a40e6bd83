#include "store/snapshot.h"

#include "core/device_points.h"
#include "simd/simd_kernels.h"
#include "store/payload_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace sweetknn::store {

namespace {

// The section payload codec (PayloadWriter/PayloadReader) lives in
// store/payload_io.h so the cluster wire protocol (src/net/) can speak
// the same dialect.

std::string FormatDouble17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* MetricName(core::Metric m) {
  return m == core::Metric::kEuclidean ? "euclidean" : "manhattan";
}

const char* LayoutName(core::PointLayout l) {
  return l == core::PointLayout::kRowMajor ? "row" : "col";
}

const char* KnlName(core::KnearestsLayout l) {
  return l == core::KnearestsLayout::kBlocked ? "blocked" : "interleaved";
}

std::string FilterName(const std::optional<core::Level2Filter>& f) {
  if (!f.has_value()) return "adaptive";
  return *f == core::Level2Filter::kFull ? "full" : "partial";
}

std::string PlacementName(const std::optional<core::KnearestsPlacement>& p) {
  if (!p.has_value()) return "adaptive";
  switch (*p) {
    case core::KnearestsPlacement::kGlobal: return "global";
    case core::KnearestsPlacement::kShared: return "shared";
    case core::KnearestsPlacement::kRegisters: return "registers";
  }
  return "?";
}

// --- Section payloads -------------------------------------------------------

std::string EncodeMeta(const IndexSnapshot& s) {
  PayloadWriter w;
  w.PutString(s.dataset_name);
  w.PutString(s.builder);
  w.PutU32(s.shard_index);
  w.PutU32(s.shard_count);
  w.PutU64(s.shard_offset);
  w.PutU64(s.target.rows());
  w.PutU64(s.target.cols());
  return w.Take();
}

Status DecodeMeta(const std::string& payload, IndexSnapshot* s,
                  uint64_t* meta_rows, uint64_t* meta_cols) {
  PayloadReader r(payload, "meta section");
  SK_RETURN_IF_ERROR(r.GetString(&s->dataset_name));
  SK_RETURN_IF_ERROR(r.GetString(&s->builder));
  SK_RETURN_IF_ERROR(r.GetU32(&s->shard_index));
  SK_RETURN_IF_ERROR(r.GetU32(&s->shard_count));
  SK_RETURN_IF_ERROR(r.GetU64(&s->shard_offset));
  SK_RETURN_IF_ERROR(r.GetU64(meta_rows));
  SK_RETURN_IF_ERROR(r.GetU64(meta_cols));
  return r.ExpectExhausted();
}

std::string EncodeFingerprint(const IndexSnapshot& s) {
  PayloadWriter w;
  w.PutString(s.options_fingerprint);
  w.PutString(s.device_fingerprint);
  return w.Take();
}

Status DecodeFingerprint(const std::string& payload, IndexSnapshot* s) {
  PayloadReader r(payload, "fingerprint section");
  SK_RETURN_IF_ERROR(r.GetString(&s->options_fingerprint));
  SK_RETURN_IF_ERROR(r.GetString(&s->device_fingerprint));
  return r.ExpectExhausted();
}

std::string EncodeTarget(const IndexSnapshot& s) {
  PayloadWriter w;
  w.PutMatrix(s.target);
  return w.Take();
}

Status DecodeTarget(const std::string& payload, IndexSnapshot* s) {
  PayloadReader r(payload, "target section");
  SK_RETURN_IF_ERROR(r.GetMatrix(&s->target));
  return r.ExpectExhausted();
}

std::string EncodeClustering(const IndexSnapshot& s) {
  const core::TargetClusteringHost& tc = s.clustering;
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(tc.num_clusters));
  w.PutMatrix(tc.centers);
  w.PutU32s(tc.assignment.data(), tc.assignment.size());
  w.PutU32s(tc.member_offsets.data(), tc.member_offsets.size());
  w.PutU32s(tc.member_ids.data(), tc.member_ids.size());
  w.PutFloats(tc.member_dists.data(), tc.member_dists.size());
  w.PutFloats(tc.max_dist.data(), tc.max_dist.size());
  return w.Take();
}

std::string EncodeMutation(const IndexSnapshot& s) {
  PayloadWriter w;
  w.PutU32(s.next_id);
  w.PutU32s(s.id_map.data(), s.id_map.size());
  w.PutU32s(s.delta_ids.data(), s.delta_ids.size());
  w.PutMatrix(s.delta_points);
  w.PutU32s(s.tombstones.data(), s.tombstones.size());
  return w.Take();
}

Status DecodeMutation(const std::string& payload, IndexSnapshot* s) {
  PayloadReader r(payload, "mutation section");
  SK_RETURN_IF_ERROR(r.GetU32(&s->next_id));
  SK_RETURN_IF_ERROR(r.GetU32s(&s->id_map));
  SK_RETURN_IF_ERROR(r.GetU32s(&s->delta_ids));
  SK_RETURN_IF_ERROR(r.GetMatrix(&s->delta_points));
  SK_RETURN_IF_ERROR(r.GetU32s(&s->tombstones));
  return r.ExpectExhausted();
}

Status DecodeClustering(const std::string& payload, IndexSnapshot* s) {
  core::TargetClusteringHost& tc = s->clustering;
  PayloadReader r(payload, "clustering section");
  uint32_t m = 0;
  SK_RETURN_IF_ERROR(r.GetU32(&m));
  tc.num_clusters = static_cast<int>(m);
  SK_RETURN_IF_ERROR(r.GetMatrix(&tc.centers));
  SK_RETURN_IF_ERROR(r.GetU32s(&tc.assignment));
  SK_RETURN_IF_ERROR(r.GetU32s(&tc.member_offsets));
  SK_RETURN_IF_ERROR(r.GetU32s(&tc.member_ids));
  SK_RETURN_IF_ERROR(r.GetFloats(&tc.member_dists));
  SK_RETURN_IF_ERROR(r.GetFloats(&tc.max_dist));
  return r.ExpectExhausted();
}

}  // namespace

// --- Fingerprints -----------------------------------------------------------

std::string OptionsFingerprint(const core::TiOptions& o) {
  // Every field that can change a prepared clustering or an answer.
  // sim_threads is excluded by design (see the header).
  std::string fp;
  fp += "metric=";
  fp += MetricName(o.metric);
  fp += ";block_threads=" + std::to_string(o.block_threads);
  fp += ";layout=";
  fp += LayoutName(o.layout);
  fp += ";vec=" + std::to_string(o.point_vector_width);
  fp += ";knl=";
  fp += KnlName(o.knearests_layout);
  fp += ";remap=" + std::to_string(o.remap_threads ? 1 : 0);
  fp += ";elastic=" + std::to_string(o.elastic_parallelism ? 1 : 0);
  fp += ";r=" + FormatDouble17(o.parallelism_r);
  fp += ";landmarks=" + std::to_string(o.landmarks_override);
  fp += ";kmeans=" + std::to_string(o.kmeans_iterations);
  fp += ";filter=" + FilterName(o.filter_override);
  fp += ";placement=" + PlacementName(o.placement_override);
  fp += ";tpq=" + std::to_string(o.threads_per_query_override);
  fp += ";kd_threshold=" + FormatDouble17(o.partial_filter_kd_threshold);
  return fp;
}

std::string DeviceFingerprint(const gpusim::DeviceSpec& s) {
  std::string fp;
  fp += "name=" + s.name;
  fp += ";sms=" + std::to_string(s.num_sms);
  fp += ";threads_sm=" + std::to_string(s.max_threads_per_sm);
  fp += ";blocks_sm=" + std::to_string(s.max_blocks_per_sm);
  fp += ";threads_block=" + std::to_string(s.max_threads_per_block);
  fp += ";smem_sm=" + std::to_string(s.shared_mem_per_sm_bytes);
  fp += ";smem_block=" + std::to_string(s.shared_mem_per_block_bytes);
  fp += ";regs_sm=" + std::to_string(s.registers_per_sm);
  fp += ";regs_thread=" + std::to_string(s.max_registers_per_thread);
  fp += ";clock=" + FormatDouble17(s.core_clock_hz);
  fp += ";issue=" + FormatDouble17(s.issue_per_sm_per_cycle);
  fp += ";bw=" + FormatDouble17(s.mem_bandwidth_bytes_per_s);
  fp += ";l2_bw=" + FormatDouble17(s.l2_bandwidth_bytes_per_s);
  fp += ";l2=" + std::to_string(s.l2_cache_bytes);
  fp += ";pcie=" + FormatDouble17(s.pcie_bandwidth_bytes_per_s);
  fp += ";flops=" + FormatDouble17(s.peak_sp_flops);
  fp += ";gmem=" + std::to_string(s.global_mem_bytes);
  fp += ";launch_ovh=" + FormatDouble17(s.kernel_launch_overhead_s);
  return fp;
}

Status CheckFingerprints(const IndexSnapshot& snapshot,
                         const std::string& where,
                         const core::TiOptions& options,
                         const gpusim::DeviceSpec& device) {
  const std::string want_options = OptionsFingerprint(options);
  if (snapshot.options_fingerprint != want_options) {
    return Status::InvalidArgument(
        where + " was built under different options: file has [" +
        snapshot.options_fingerprint + "], this config is [" +
        want_options + "]");
  }
  const std::string want_device = DeviceFingerprint(device);
  if (snapshot.device_fingerprint != want_device) {
    return Status::InvalidArgument(
        where + " was built for a different device: file has [" +
        snapshot.device_fingerprint + "], this config is [" + want_device +
        "]");
  }
  return Status::Ok();
}

// --- SnapshotWriter ---------------------------------------------------------

SnapshotWriter::SnapshotWriter(const std::string& path, uint32_t version)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    deferred_error_ =
        Status::IoError("cannot open snapshot for writing: " + path);
    return;
  }
  if (version < kSnapshotFormatV1 || version > kSnapshotFormatVersion) {
    deferred_error_ = Status::InvalidArgument(
        "unsupported snapshot format version " + std::to_string(version));
    return;
  }
  Status st = Append(kSnapshotMagic, sizeof(kSnapshotMagic));
  if (st.ok()) {
    st = Append(&version, sizeof(version));
  }
  if (st.ok()) {
    const uint32_t endian = kEndiannessGuard;
    st = Append(&endian, sizeof(endian));
  }
  deferred_error_ = st;
}

Status SnapshotWriter::Append(const void* data, size_t len) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  if (!out_) return Status::IoError("write failed: " + path_);
  file_crc_.Update(data, len);
  return Status::Ok();
}

Status SnapshotWriter::WriteSection(uint32_t id, std::string_view payload) {
  if (!deferred_error_.ok()) return deferred_error_;
  if (finished_) {
    return Status::Internal("WriteSection after Finish: " + path_);
  }
  if (id == kSectionEnd) {
    return Status::InvalidArgument(
        "section id 0 is reserved for the end marker");
  }
  const uint64_t len = payload.size();
  const uint32_t crc = common::Crc32::Of(payload.data(), payload.size());
  Status st = Append(&id, sizeof(id));
  if (st.ok()) st = Append(&len, sizeof(len));
  if (st.ok() && len > 0) st = Append(payload.data(), payload.size());
  if (st.ok()) st = Append(&crc, sizeof(crc));
  deferred_error_ = st;
  return st;
}

Status SnapshotWriter::Finish() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (finished_) return Status::Ok();
  const uint32_t end_id = kSectionEnd;
  const uint64_t zero_len = 0;
  const uint32_t empty_crc = common::Crc32::Of(nullptr, 0);
  Status st = Append(&end_id, sizeof(end_id));
  if (st.ok()) st = Append(&zero_len, sizeof(zero_len));
  if (st.ok()) st = Append(&empty_crc, sizeof(empty_crc));
  if (st.ok()) {
    const uint32_t file_crc = file_crc_.Final();
    out_.write(reinterpret_cast<const char*>(&file_crc), sizeof(file_crc));
    if (!out_) st = Status::IoError("write failed: " + path_);
  }
  if (st.ok()) {
    out_.flush();
    out_.close();
    if (!out_) st = Status::IoError("close failed: " + path_);
  }
  finished_ = true;
  deferred_error_ = st;
  return st;
}

// --- SnapshotReader ---------------------------------------------------------

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open snapshot for reading: " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("read failed: " + path);
  }

  const std::string what = "snapshot " + path;
  constexpr size_t kHeaderBytes =
      sizeof(kSnapshotMagic) + sizeof(uint32_t) + sizeof(uint32_t);
  if (file.size() < kHeaderBytes) {
    return Status::IoError(what + ": truncated header (" +
                           std::to_string(file.size()) + " bytes)");
  }
  if (std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::IoError(what + ": bad magic (not a sweetknn snapshot)");
  }
  uint32_t version = 0;
  std::memcpy(&version, file.data() + sizeof(kSnapshotMagic),
              sizeof(version));
  if (version < kSnapshotFormatV1 || version > kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        what + ": format version skew: file is version " +
        std::to_string(version) + ", this reader supports versions " +
        std::to_string(kSnapshotFormatV1) + ".." +
        std::to_string(kSnapshotFormatVersion));
  }
  uint32_t endian = 0;
  std::memcpy(&endian,
              file.data() + sizeof(kSnapshotMagic) + sizeof(version),
              sizeof(endian));
  if (endian != kEndiannessGuard) {
    return Status::InvalidArgument(
        what + ": endianness guard mismatch (file written on a "
               "different-endian machine, or corrupted)");
  }

  SnapshotReader reader;
  reader.format_version_ = version;
  reader.file_size_ = file.size();

  size_t cursor = kHeaderBytes;
  bool saw_end = false;
  auto need = [&](size_t bytes, const char* kind) -> Status {
    if (file.size() - cursor < bytes) {
      return Status::IoError(what + ": truncated " + kind + " at offset " +
                             std::to_string(cursor));
    }
    return Status::Ok();
  };
  while (!saw_end) {
    SK_RETURN_IF_ERROR(need(sizeof(uint32_t) + sizeof(uint64_t),
                            "section header"));
    uint32_t id = 0;
    uint64_t len = 0;
    std::memcpy(&id, file.data() + cursor, sizeof(id));
    cursor += sizeof(id);
    std::memcpy(&len, file.data() + cursor, sizeof(len));
    cursor += sizeof(len);
    if (id > MaxSectionIdForVersion(version)) {
      return Status::IoError(what + ": unknown section id " +
                             std::to_string(id) + " for format version " +
                             std::to_string(version) + " at offset " +
                             std::to_string(cursor - sizeof(id) -
                                            sizeof(len)));
    }
    if (id == kSectionEnd && len != 0) {
      return Status::IoError(what + ": end marker with nonzero length " +
                             std::to_string(len));
    }
    SK_RETURN_IF_ERROR(need(len, "section payload"));
    std::string payload = file.substr(cursor, len);
    cursor += len;
    SK_RETURN_IF_ERROR(need(sizeof(uint32_t), "section crc"));
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, file.data() + cursor, sizeof(stored_crc));
    cursor += sizeof(stored_crc);
    const uint32_t computed_crc =
        common::Crc32::Of(payload.data(), payload.size());
    if (stored_crc != computed_crc) {
      return Status::IoError(
          what + ": checksum mismatch in section " + std::to_string(id));
    }
    if (id == kSectionEnd) {
      saw_end = true;
      break;
    }
    for (const SectionInfo& seen : reader.sections_) {
      if (seen.id == id) {
        return Status::IoError(what + ": duplicate section id " +
                               std::to_string(id));
      }
    }
    reader.sections_.push_back(SectionInfo{id, len, stored_crc});
    reader.payloads_.push_back(std::move(payload));
  }

  SK_RETURN_IF_ERROR(need(sizeof(uint32_t), "file checksum"));
  uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, file.data() + cursor,
              sizeof(stored_file_crc));
  const uint32_t computed_file_crc = common::Crc32::Of(file.data(), cursor);
  if (stored_file_crc != computed_file_crc) {
    return Status::IoError(what + ": whole-file checksum mismatch");
  }
  cursor += sizeof(stored_file_crc);
  if (cursor != file.size()) {
    return Status::IoError(what + ": " +
                           std::to_string(file.size() - cursor) +
                           " trailing bytes after the file checksum");
  }
  return reader;
}

const std::string* SnapshotReader::Section(uint32_t id) const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].id == id) return &payloads_[i];
  }
  return nullptr;
}

// --- Index snapshot save/load ----------------------------------------------

Status SaveIndexSnapshot(const IndexSnapshot& snapshot,
                         const std::string& path) {
  SK_RETURN_IF_ERROR(ValidateIndexSnapshot(snapshot));
  // The writer emits the lowest sufficient version: pristine snapshots
  // keep writing v1 byte-identically to what pre-v2 builds produced, and
  // mutated ones v2.
  const uint32_t version =
      snapshot.HasOverlay() ? kSnapshotFormatV2 : kSnapshotFormatV1;
  SnapshotWriter writer(path, version);
  SK_RETURN_IF_ERROR(writer.WriteSection(kSectionMeta, EncodeMeta(snapshot)));
  SK_RETURN_IF_ERROR(
      writer.WriteSection(kSectionFingerprint, EncodeFingerprint(snapshot)));
  SK_RETURN_IF_ERROR(
      writer.WriteSection(kSectionTarget, EncodeTarget(snapshot)));
  SK_RETURN_IF_ERROR(
      writer.WriteSection(kSectionClustering, EncodeClustering(snapshot)));
  if (snapshot.HasOverlay()) {
    SK_RETURN_IF_ERROR(
        writer.WriteSection(kSectionMutation, EncodeMutation(snapshot)));
  }
  return writer.Finish();
}

Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path) {
  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();

  IndexSnapshot snapshot;
  uint64_t meta_rows = 0;
  uint64_t meta_cols = 0;
  struct Want {
    uint32_t id;
    const char* name;
  };
  for (const Want want : {Want{kSectionMeta, "meta"},
                          Want{kSectionFingerprint, "fingerprint"},
                          Want{kSectionTarget, "target"},
                          Want{kSectionClustering, "clustering"}}) {
    if (reader.value().Section(want.id) == nullptr) {
      return Status::IoError("snapshot " + path + ": missing " + want.name +
                             " section");
    }
  }
  SK_RETURN_IF_ERROR(DecodeMeta(*reader.value().Section(kSectionMeta),
                                &snapshot, &meta_rows, &meta_cols));
  SK_RETURN_IF_ERROR(DecodeFingerprint(
      *reader.value().Section(kSectionFingerprint), &snapshot));
  SK_RETURN_IF_ERROR(
      DecodeTarget(*reader.value().Section(kSectionTarget), &snapshot));
  SK_RETURN_IF_ERROR(DecodeClustering(
      *reader.value().Section(kSectionClustering), &snapshot));
  if (const std::string* mutation =
          reader.value().Section(kSectionMutation)) {
    SK_RETURN_IF_ERROR(DecodeMutation(*mutation, &snapshot));
  }
  // A v3 graph section passed its CRC in Open; nothing reads a graph.
  if (const std::string* graph = reader.value().Section(kSectionAnnGraph)) {
    snapshot.ignored_graph_bytes = graph->size();
  }

  if (meta_rows != snapshot.target.rows() ||
      meta_cols != snapshot.target.cols()) {
    return Status::IoError(
        "snapshot " + path + ": meta section says " +
        std::to_string(meta_rows) + "x" + std::to_string(meta_cols) +
        " but the target section holds " +
        std::to_string(snapshot.target.rows()) + "x" +
        std::to_string(snapshot.target.cols()));
  }
  SK_RETURN_IF_ERROR(ValidateIndexSnapshot(snapshot));
  return snapshot;
}

Status ValidateIndexSnapshot(const IndexSnapshot& s) {
  const size_t n = s.target.rows();
  const size_t dims = s.target.cols();
  const core::TargetClusteringHost& tc = s.clustering;
  if (n == 0 || dims == 0) {
    return Status::InvalidArgument("snapshot holds an empty target set");
  }
  if (tc.num_clusters <= 0 ||
      static_cast<size_t>(tc.num_clusters) > n) {
    return Status::InvalidArgument(
        "clustering has " + std::to_string(tc.num_clusters) +
        " clusters for " + std::to_string(n) + " target rows");
  }
  const size_t m = static_cast<size_t>(tc.num_clusters);
  if (tc.centers.rows() != m || tc.centers.cols() != dims) {
    return Status::InvalidArgument(
        "centers are " + std::to_string(tc.centers.rows()) + "x" +
        std::to_string(tc.centers.cols()) + ", expected " +
        std::to_string(m) + "x" + std::to_string(dims));
  }
  if (tc.assignment.size() != n) {
    return Status::InvalidArgument(
        "assignment has " + std::to_string(tc.assignment.size()) +
        " entries for " + std::to_string(n) + " target rows");
  }
  for (size_t i = 0; i < n; ++i) {
    if (tc.assignment[i] >= m) {
      return Status::InvalidArgument(
          "assignment[" + std::to_string(i) + "] = " +
          std::to_string(tc.assignment[i]) + " out of range (m=" +
          std::to_string(m) + ")");
    }
  }
  if (tc.member_offsets.size() != m + 1 || tc.member_offsets[0] != 0 ||
      tc.member_offsets[m] != n) {
    return Status::InvalidArgument(
        "member offsets malformed (size " +
        std::to_string(tc.member_offsets.size()) + ", first " +
        (tc.member_offsets.empty()
             ? std::string("-")
             : std::to_string(tc.member_offsets.front())) +
        ", last " +
        (tc.member_offsets.empty()
             ? std::string("-")
             : std::to_string(tc.member_offsets.back())) +
        ", expected 0.." + std::to_string(n) + ")");
  }
  for (size_t c = 0; c < m; ++c) {
    if (tc.member_offsets[c] > tc.member_offsets[c + 1]) {
      return Status::InvalidArgument(
          "member offsets not monotone at cluster " + std::to_string(c));
    }
  }
  if (tc.member_ids.size() != n || tc.member_dists.size() != n) {
    return Status::InvalidArgument(
        "member id/dist arrays have " + std::to_string(tc.member_ids.size()) +
        "/" + std::to_string(tc.member_dists.size()) + " entries for " +
        std::to_string(n) + " target rows");
  }
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = tc.member_ids[i];
    if (id >= n || seen[id]) {
      return Status::InvalidArgument(
          "member ids are not a permutation of 0.." + std::to_string(n - 1) +
          " (slot " + std::to_string(i) + " holds " + std::to_string(id) +
          ")");
    }
    seen[id] = true;
  }
  if (tc.max_dist.size() != m) {
    return Status::InvalidArgument(
        "max_dist has " + std::to_string(tc.max_dist.size()) +
        " entries for " + std::to_string(m) + " clusters");
  }
  if (s.shard_count == 0 || s.shard_index >= s.shard_count) {
    return Status::InvalidArgument(
        "shard geometry " + std::to_string(s.shard_index) + "-of-" +
        std::to_string(s.shard_count) + " is malformed");
  }

  // Mutation overlay (v2). The empty overlay of a v1 / pristine snapshot
  // passes every check trivially.
  if (!s.id_map.empty() && s.id_map.size() != n) {
    return Status::InvalidArgument(
        "id map has " + std::to_string(s.id_map.size()) + " entries for " +
        std::to_string(n) + " target rows");
  }
  auto strictly_increasing = [](const std::vector<uint32_t>& v) {
    for (size_t i = 1; i < v.size(); ++i) {
      if (v[i] <= v[i - 1]) return false;
    }
    return true;
  };
  if (!strictly_increasing(s.id_map)) {
    return Status::InvalidArgument("id map is not strictly increasing");
  }
  if (!strictly_increasing(s.delta_ids)) {
    return Status::InvalidArgument("delta ids are not strictly increasing");
  }
  if (!strictly_increasing(s.tombstones)) {
    return Status::InvalidArgument(
        "tombstones are not strictly increasing");
  }
  if (s.delta_points.rows() != s.delta_ids.size() ||
      (!s.delta_ids.empty() && s.delta_points.cols() != dims)) {
    return Status::InvalidArgument(
        "delta points are " + std::to_string(s.delta_points.rows()) + "x" +
        std::to_string(s.delta_points.cols()) + " for " +
        std::to_string(s.delta_ids.size()) + " delta ids of dimension " +
        std::to_string(dims));
  }
  // Base row i carries stable id id_map[i], or shard_offset + i with no
  // explicit map; ids are allocated monotonically so every delta id
  // postdates (exceeds) every base id.
  const uint32_t max_base_id =
      s.id_map.empty()
          ? static_cast<uint32_t>(s.shard_offset + n - 1)
          : s.id_map.back();
  if (!s.delta_ids.empty() && s.delta_ids.front() <= max_base_id) {
    return Status::InvalidArgument(
        "delta id " + std::to_string(s.delta_ids.front()) +
        " does not exceed the largest base id " +
        std::to_string(max_base_id));
  }
  for (const uint32_t id : s.tombstones) {
    const bool in_base =
        s.id_map.empty()
            ? (id >= s.shard_offset && id < s.shard_offset + n)
            : std::binary_search(s.id_map.begin(), s.id_map.end(), id);
    if (!in_base) {
      return Status::InvalidArgument(
          "tombstone " + std::to_string(id) +
          " does not name a base row (deleted delta points are erased, "
          "not tombstoned)");
    }
  }
  if (s.HasOverlay()) {
    const uint32_t max_id =
        s.delta_ids.empty() ? max_base_id : s.delta_ids.back();
    if (s.next_id <= max_id) {
      return Status::InvalidArgument(
          "next_id " + std::to_string(s.next_id) +
          " does not exceed the largest id in the snapshot (" +
          std::to_string(max_id) + ")");
    }
  }
  return Status::Ok();
}

Status VerifySnapshotDistances(const IndexSnapshot& s) {
  Status structural = ValidateIndexSnapshot(s);
  if (!structural.ok()) return structural;

  // The fingerprint leads with "metric=<name>;" (OptionsFingerprint);
  // recover the metric the builder used so the recomputation runs the
  // same float pipeline.
  core::Metric metric;
  if (s.options_fingerprint.rfind("metric=euclidean;", 0) == 0) {
    metric = core::Metric::kEuclidean;
  } else if (s.options_fingerprint.rfind("metric=manhattan;", 0) == 0) {
    metric = core::Metric::kManhattan;
  } else {
    return Status::InvalidArgument(
        "options fingerprint does not name a known metric: [" +
        s.options_fingerprint + "]");
  }

  const core::TargetClusteringHost& tc = s.clustering;
  const size_t dims = s.target.cols();
  const size_t m = static_cast<size_t>(tc.num_clusters);
  const simd::Dist dist_kind = core::SimdDistFor(metric);
  std::vector<float> gathered;
  std::vector<float> recomputed;
  for (size_t c = 0; c < m; ++c) {
    const uint32_t begin = tc.member_offsets[c];
    const uint32_t end = tc.member_offsets[c + 1];
    const size_t count = end - begin;
    float expected_max = 0.0f;
    if (count > 0) {
      // Gather this cluster's member rows, pack once, and recompute all
      // center-to-member distances in one batch-kernel sweep. The batch
      // kernels reproduce the builder's AccessorDistance bit for bit, so
      // anything short of byte equality is corruption (or a file edited
      // outside the writer).
      gathered.resize(count * dims);
      recomputed.resize(count);
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(gathered.data() + i * dims,
                    s.target.row(tc.member_ids[begin + i]),
                    dims * sizeof(float));
      }
      const simd::PackedTargets packed =
          simd::PackedTargets::Pack(gathered.data(), count, dims);
      simd::QueryDistances(tc.centers.row(c), packed, dist_kind,
                           recomputed.data());
      for (size_t i = 0; i < count; ++i) {
        const float stored = tc.member_dists[begin + i];
        if (std::memcmp(&stored, &recomputed[i], sizeof(float)) != 0) {
          return Status::InvalidArgument(
              "member_dists[" + std::to_string(begin + i) + "] (cluster " +
              std::to_string(c) + ", row " +
              std::to_string(tc.member_ids[begin + i]) + ") stores " +
              std::to_string(stored) + " but recomputes to " +
              std::to_string(recomputed[i]));
        }
        if (i > 0 && tc.member_dists[begin + i - 1] < stored) {
          return Status::InvalidArgument(
              "member_dists not non-increasing inside cluster " +
              std::to_string(c) + " at slot " + std::to_string(begin + i));
        }
        if (stored > expected_max) expected_max = stored;
      }
    }
    // The builder's per-cluster radius is an AtomicMaxFloat over member
    // distances starting from a zeroed buffer; replicate exactly.
    const float stored_max = tc.max_dist[c];
    if (std::memcmp(&stored_max, &expected_max, sizeof(float)) != 0) {
      return Status::InvalidArgument(
          "max_dist[" + std::to_string(c) + "] stores " +
          std::to_string(stored_max) + " but member distances max out at " +
          std::to_string(expected_max));
    }
  }
  return Status::Ok();
}

// --- Shard directory layout -------------------------------------------------

std::string ShardSnapshotPath(const std::string& dir, int shard_index,
                              int shard_count) {
  return dir + "/shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_count) + ".sksnap";
}

Result<std::vector<std::string>> ListShardSnapshots(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("snapshot directory not found: " + dir);
  }
  // Parse "shard-<i>-of-<n>.sksnap" names.
  int shard_count = -1;
  std::vector<bool> present;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    int index = -1;
    int count = -1;
    if (std::sscanf(name.c_str(), "shard-%d-of-%d.sksnap", &index, &count) !=
        2) {
      continue;
    }
    if (index < 0 || count <= 0 || index >= count) {
      return Status::InvalidArgument("malformed shard snapshot name: " +
                                     name);
    }
    if (shard_count == -1) {
      shard_count = count;
      present.assign(static_cast<size_t>(count), false);
    } else if (count != shard_count) {
      return Status::InvalidArgument(
          dir + " mixes shard counts (" + std::to_string(shard_count) +
          " and " + std::to_string(count) + ")");
    }
    if (present[static_cast<size_t>(index)]) {
      return Status::InvalidArgument("duplicate shard snapshot: " + name);
    }
    present[static_cast<size_t>(index)] = true;
  }
  if (ec) return Status::IoError("cannot list " + dir + ": " + ec.message());
  if (shard_count == -1) {
    return Status::NotFound("no shard snapshots (shard-*-of-*.sksnap) in " +
                            dir);
  }
  for (int s = 0; s < shard_count; ++s) {
    if (!present[static_cast<size_t>(s)]) {
      return Status::NotFound("incomplete shard set in " + dir +
                              ": missing shard " + std::to_string(s) +
                              " of " + std::to_string(shard_count));
    }
  }
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    paths.push_back(ShardSnapshotPath(dir, s, shard_count));
  }
  return paths;
}

}  // namespace sweetknn::store
