// SweetKnnIndex::Save/Load. Declared in core/sweet_knn.h but defined
// here so that sweetknn_core does not depend on the store library
// (store links core, not the other way around).

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "core/sweet_knn.h"
#include "store/snapshot.h"

namespace sweetknn {

Status SweetKnnIndex::Save(const std::string& path,
                           const std::string& dataset_name) const {
  store::IndexSnapshot snapshot;
  snapshot.dataset_name = dataset_name;
  snapshot.builder = "SweetKnnIndex::Save";
  snapshot.shard_index = 0;
  snapshot.shard_count = 1;
  snapshot.shard_offset = 0;
  snapshot.target = engine_->ExportTarget();
  snapshot.clustering = host_image_.clustering();
  snapshot.options_fingerprint =
      store::OptionsFingerprint(engine_->options());
  snapshot.device_fingerprint = store::DeviceFingerprint(device_->spec());
  if (!pristine()) {
    snapshot.id_map = id_map_;
    snapshot.delta_ids = delta_.ids;
    snapshot.delta_points = HostMatrix(delta_.size(), dims_);
    // std::copy, not memcpy: a tombstones-only overlay has no delta
    // points, and memcpy must not see the empty vectors' null pointers.
    std::copy(delta_.points.begin(), delta_.points.end(),
              snapshot.delta_points.mutable_data());
    snapshot.tombstones.assign(delta_.tombstones.begin(),
                               delta_.tombstones.end());
    std::sort(snapshot.tombstones.begin(), snapshot.tombstones.end());
    snapshot.next_id = next_id_;
  }
  // Persisting the graph lets Load skip the NN-descent build the same
  // way the clustering section lets it skip the Step-1 landmark build.
  if (!ann_.empty()) snapshot.ann_graph = ann_.graph();
  return store::SaveIndexSnapshot(snapshot, path);
}

Result<std::unique_ptr<SweetKnnIndex>> SweetKnnIndex::Load(
    const std::string& path, const SweetKnn::Config& config) {
  Result<store::IndexSnapshot> snapshot = store::LoadIndexSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  store::IndexSnapshot& snap = snapshot.value();

  const std::string want_options = store::OptionsFingerprint(config.options);
  if (snap.options_fingerprint != want_options) {
    return Status::InvalidArgument(
        "snapshot " + path + " was built under different options: file has [" +
        snap.options_fingerprint + "], this config is [" +
        want_options + "]");
  }
  const std::string want_device = store::DeviceFingerprint(config.device);
  if (snap.device_fingerprint != want_device) {
    return Status::InvalidArgument(
        "snapshot " + path + " was built for a different device: file has [" +
        snap.device_fingerprint + "], this config is [" +
        want_device + "]");
  }

  std::unique_ptr<SweetKnnIndex> index(new SweetKnnIndex(
      WarmStartTag{}, snap.target, snap.clustering, config));
  // A shard snapshot with no explicit id map names its rows
  // shard_offset..shard_offset+rows-1; standalone, that needs the map
  // materialized so stable ids survive the round trip.
  std::vector<uint32_t> id_map = std::move(snap.id_map);
  if (id_map.empty() && snap.shard_offset != 0) {
    id_map.resize(snap.target.rows());
    std::iota(id_map.begin(), id_map.end(),
              static_cast<uint32_t>(snap.shard_offset));
  }
  if (snap.HasOverlay() || !id_map.empty()) {
    uint32_t next_id = snap.next_id;
    if (next_id == 0 && !id_map.empty()) next_id = id_map.back() + 1;
    index->AdoptOverlay(std::move(id_map), std::move(snap.delta_ids),
                        snap.delta_points.storage(), snap.tombstones,
                        next_id);
  }
  // ANN tier: adopt the persisted graph when the config wants one (its
  // node ids are local base rows, so it is valid verbatim); rebuild when
  // the config wants a graph the file lacks. A persisted graph under a
  // graph-free config is simply ignored — exact answers never depend on
  // it.
  if (config.enable_ann) {
    if (snap.HasAnnGraph()) {
      index->AdoptAnnGraph(snap.target, std::move(snap.ann_graph));
    } else {
      index->RebuildAnn(snap.target);
    }
  }
  return index;
}

}  // namespace sweetknn
