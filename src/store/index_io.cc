// The snapshot side of the mutable shard: core::ShardHost::Export and
// AdoptOverlay, and SweetKnnIndex::Save/Load on top of them. Declared in
// core/ but defined here so that sweetknn_core does not depend on the
// store library (store links core, not the other way around).

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "core/shard_host.h"
#include "core/sweet_knn.h"
#include "store/snapshot.h"

namespace sweetknn {

namespace core {

store::IndexSnapshot ShardHost::Export(const std::string& dataset_name,
                                       const std::string& builder,
                                       uint32_t shard_index,
                                       uint32_t shard_count,
                                       uint32_t next_id) const {
  store::IndexSnapshot snap;
  snap.dataset_name = dataset_name;
  snap.builder = builder;
  snap.shard_index = shard_index;
  snap.shard_count = shard_count;
  snap.shard_offset = offset;
  snap.target = base;
  snap.clustering = image.clustering();
  snap.options_fingerprint = store::OptionsFingerprint(engine.options());
  snap.device_fingerprint = store::DeviceFingerprint(dev.spec());
  if (!Pristine()) {
    const size_t dims = delta.dims;
    snap.id_map = id_map;
    // Normalization: a tombstoned delta entry (the transient state of a
    // remove that hit a compaction-consumed row) is simply dead — the
    // snapshot drops both the entry and its tombstone, restoring the
    // file invariant that tombstones name base rows only.
    for (size_t j = 0; j < delta.size(); ++j) {
      if (delta.tombstones.count(delta.ids[j]) == 0) {
        snap.delta_ids.push_back(delta.ids[j]);
      }
    }
    snap.delta_points = HostMatrix(snap.delta_ids.size(), dims);
    size_t out = 0;
    for (size_t j = 0; j < delta.size(); ++j) {
      if (delta.tombstones.count(delta.ids[j]) == 0) {
        std::memcpy(snap.delta_points.mutable_row(out++), delta.point(j),
                    dims * sizeof(float));
      }
    }
    // Base rows ascend in stable id, so the list comes out sorted.
    const uint8_t* dead = dead_rows();
    for (size_t i = 0; dead != nullptr && i < base_rows(); ++i) {
      if (dead[i] != 0) snap.tombstones.push_back(BaseId(i));
    }
    snap.next_id = next_id;
  }
  return snap;
}

void ShardHost::AdoptOverlay(const store::IndexSnapshot& snap) {
  offset = static_cast<uint32_t>(snap.shard_offset);
  set_base_rows(snap.target.rows());
  id_map = snap.id_map;
  delta.dims = snap.target.cols();
  delta.ids = snap.delta_ids;
  delta.points = snap.delta_points.storage();
  for (const uint32_t id : snap.tombstones) {
    const size_t row = BaseRow(id);
    SK_CHECK_NE(row, DeltaBuffer::kNotFound)
        << "tombstone " << id << " names no base row";
    MarkDead(row);
  }
}

}  // namespace core

Status SweetKnnIndex::Save(const std::string& path,
                           const std::string& dataset_name) const {
  return store::SaveIndexSnapshot(
      shard_->Export(dataset_name, "SweetKnnIndex::Save", /*shard_index=*/0,
                     /*shard_count=*/1, next_id_),
      path);
}

Result<std::unique_ptr<SweetKnnIndex>> SweetKnnIndex::Load(
    const std::string& path, const SweetKnn::Config& config) {
  Result<store::IndexSnapshot> loaded = store::LoadIndexSnapshot(path);
  if (!loaded.ok()) return loaded.status();
  store::IndexSnapshot& snap = loaded.value();
  SK_RETURN_IF_ERROR(store::CheckFingerprints(snap, "snapshot " + path,
                                              config.options, config.device));

  // The allocator resumes at the file's watermark; a pristine file
  // (next_id 0) resumes just past its last base row.
  const uint32_t next_id =
      snap.next_id != 0
          ? snap.next_id
          : static_cast<uint32_t>(snap.shard_offset + snap.target.rows());
  std::unique_ptr<SweetKnnIndex> index(new SweetKnnIndex(config, next_id));
  core::ShardHost& shard = *index->shard_;
  shard.AdoptOverlay(snap);
  // A shard snapshot with no explicit id map names its rows
  // shard_offset..shard_offset+rows-1; standalone, the index sits at
  // offset 0, so the map is materialized to keep stable ids intact.
  if (shard.id_map.empty() && shard.offset != 0) {
    shard.id_map.resize(shard.base_rows());
    std::iota(shard.id_map.begin(), shard.id_map.end(), shard.offset);
    shard.offset = 0;
  }
  shard.RestoreBase(snap.target, snap.clustering);
  return index;
}

}  // namespace sweetknn
