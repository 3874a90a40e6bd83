#include "core/delta_overlay.h"

#include <algorithm>

#include "common/logging.h"
#include "common/topk.h"
#include "core/device_points.h"
#include "simd/simd_kernels.h"

namespace sweetknn::core {

void DeltaBuffer::Append(uint32_t id, const float* row) {
  SK_CHECK_GT(dims, 0u);
  SK_CHECK(ids.empty() || id > ids.back())
      << "delta ids must be appended in increasing order";
  ids.push_back(id);
  points.insert(points.end(), row, row + dims);
}

size_t DeltaBuffer::Find(uint32_t id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return kNotFound;
  return static_cast<size_t>(it - ids.begin());
}

void DeltaBuffer::EraseAt(size_t pos) {
  SK_CHECK(pos < ids.size());
  ids.erase(ids.begin() + static_cast<ptrdiff_t>(pos));
  points.erase(points.begin() + static_cast<ptrdiff_t>(pos * dims),
               points.begin() + static_cast<ptrdiff_t>((pos + 1) * dims));
}

KnnResult ScanDelta(const DeltaBuffer& delta, const HostMatrix& queries,
                    int k, Metric metric) {
  SK_CHECK_GT(k, 0);
  SK_CHECK_EQ(queries.cols(), delta.dims);
  KnnResult result(queries.rows(), k);
  // Pack the delta once per scan; the batch kernels reproduce the old
  // per-pair AccessorDistance loop bit for bit. With tombstones present
  // the select falls back to the skip-aware scalar walk (same ascending
  // order, same PushIfCloser semantics).
  const simd::PackedTargets packed =
      simd::PackedTargets::Pack(delta.points.data(), delta.size(), delta.dims);
  std::vector<float> dists(delta.size());
  for (size_t q = 0; q < queries.rows(); ++q) {
    TopK topk(k);
    if (delta.size() > 0) {
      simd::QueryDistances(queries.row(q), packed, SimdDistFor(metric),
                           dists.data());
      if (delta.tombstones.empty()) {
        simd::SelectNearest(dists.data(), delta.size(), /*index_base=*/0,
                            &topk);
      } else {
        for (size_t i = 0; i < delta.size(); ++i) {
          if (delta.tombstones.count(delta.ids[i]) != 0) continue;
          topk.PushIfCloser(Neighbor{static_cast<uint32_t>(i), dists[i]});
        }
      }
    }
    result.SetRow(q, topk.Sorted());
  }
  return result;
}

}  // namespace sweetknn::core
