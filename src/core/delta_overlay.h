#ifndef SWEETKNN_CORE_DELTA_OVERLAY_H_
#define SWEETKNN_CORE_DELTA_OVERLAY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "core/options.h"

namespace sweetknn::core {

/// The insert side of a frozen TI index's mutable overlay: points
/// inserted since the base was prepared, served by an exact brute-force
/// side scan (see ScanDelta). Deleted base rows are not recorded here;
/// their owner masks them (ShardHost::dead_rows).
///
/// Rows are identified by *stable ids*, allocated monotonically by the
/// owning index and never reused. `ids` is kept strictly increasing
/// (appends draw from a monotone counter; erases preserve order), which
/// makes the overlay's id order agree with NeighborLess tie-breaking:
/// when a mutated index's answers are compared against a cold build over
/// the surviving points arranged in ascending-id order, equal-distance
/// ties resolve identically. docs/mutability.md has the full argument.
struct DeltaBuffer {
  size_t dims = 0;
  /// Stable ids of the delta points, strictly increasing.
  std::vector<uint32_t> ids;
  /// ids.size() x dims row-major coordinates, parallel to `ids`.
  std::vector<float> points;
  /// Stable ids of deleted entries that stay in `ids`, masked out of
  /// answers: during a compaction, the entries of the prefix the
  /// compactor already copied (ShardHost::ApplyRemove). Empty otherwise.
  std::unordered_set<uint32_t> tombstones;

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t size() const { return ids.size(); }
  const float* point(size_t i) const { return points.data() + i * dims; }

  /// Appends a point under `id`, which must exceed every id present.
  void Append(uint32_t id, const float* row);
  /// Position of `id` in `ids`, or kNotFound. O(log n).
  size_t Find(uint32_t id) const;
  /// Removes the point at `pos`, keeping order.
  void EraseAt(size_t pos);
};

/// Exact top-k of the (non-tombstoned) delta points for every query row,
/// computed on the host with the same AccessorDistance the simulated
/// kernels and BruteForceCpu evaluate — so the distances are
/// bit-identical to what a cold-built index would report for the same
/// points. Neighbor indices are positions into `delta.ids` (the caller
/// maps them to stable ids); rows ascend under NeighborLess and pad with
/// kInvalidNeighbor, matching the engine's conventions.
///
/// Position order equals id order (`ids` is strictly increasing), so
/// tie-breaking on position is tie-breaking on stable id.
KnnResult ScanDelta(const DeltaBuffer& delta, const HostMatrix& queries,
                    int k, Metric metric);

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_DELTA_OVERLAY_H_
