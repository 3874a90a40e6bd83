#include "ann/knn_graph.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/topk.h"

namespace sweetknn::ann {

namespace {

/// Nodes per ParallelForChunks chunk. Chunk boundaries depend only on
/// (n, grain), so per-chunk update counts sum deterministically.
constexpr size_t kNodeGrain = 64;

/// One fork-join participant's working set for the local join, cache-
/// line aligned so two participants never share a line.
struct alignas(64) JoinScratch {
  /// The node's candidate set: one bit per node id, plus one summary bit
  /// per bitmap word so extraction skips empty words. Setting a bit is
  /// the deduplication; reading the bits back yields ascending ids.
  /// All zero between nodes.
  std::vector<uint64_t> bits;
  std::vector<uint64_t> summary;
  std::vector<uint32_t> cand;  ///< Candidate ids, ascending.
  std::vector<float> dists;    ///< Their distances to the node.

  void Reset(size_t n) {
    bits.assign((n + 63) / 64, 0);
    summary.assign((bits.size() + 63) / 64, 0);
  }
  void Mark(uint32_t id) {
    bits[id >> 6] |= uint64_t{1} << (id & 63);
    summary[id >> 12] |= uint64_t{1} << ((id >> 6) & 63);
  }
  void Unmark(uint32_t id) { bits[id >> 6] &= ~(uint64_t{1} << (id & 63)); }
  /// Moves the marked ids into `cand`, ascending, and clears the set.
  void Drain() {
    cand.clear();
    for (size_t s = 0; s < summary.size(); ++s) {
      for (uint64_t words = summary[s]; words != 0; words &= words - 1) {
        const size_t w = s * 64 + static_cast<size_t>(__builtin_ctzll(words));
        for (uint64_t b = bits[w]; b != 0; b &= b - 1) {
          cand.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(__builtin_ctzll(b))));
        }
        bits[w] = 0;
      }
      summary[s] = 0;
    }
  }
};

std::mutex& ObserverMutex() {
  static std::mutex mutex;
  return mutex;
}

std::function<void(int)>& ObserverSlot() {
  static std::function<void(int)> observer;
  return observer;
}

void NotifyObserver(int workers) {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  if (ObserverSlot()) ObserverSlot()(workers);
}

}  // namespace

void SetGraphBuildObserverForTest(std::function<void(int)> observer) {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  ObserverSlot() = std::move(observer);
}

std::vector<size_t> KnnGraph::DegreeHistogram() const {
  if (empty()) return {};
  std::vector<size_t> hist(static_cast<size_t>(degree) + 1, 0);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    const uint32_t* edges = row(node);
    uint32_t live = 0;
    while (live < degree && edges[live] != kInvalidNeighbor) ++live;
    ++hist[live];
  }
  return hist;
}

ReverseAdjacency BuildReverseAdjacency(const KnnGraph& graph) {
  ReverseAdjacency reverse;
  if (graph.empty()) return reverse;
  reverse.offsets.assign(static_cast<size_t>(graph.num_nodes) + 1, 0);
  for (uint32_t node = 0; node < graph.num_nodes; ++node) {
    const uint32_t* edges = graph.row(node);
    for (uint32_t e = 0; e < graph.degree; ++e) {
      if (edges[e] == kInvalidNeighbor) break;
      ++reverse.offsets[edges[e] + 1];
    }
  }
  for (size_t v = 1; v < reverse.offsets.size(); ++v) {
    reverse.offsets[v] += reverse.offsets[v - 1];
  }
  reverse.edges.resize(reverse.offsets.back());
  std::vector<uint32_t> fill(reverse.offsets.begin(),
                             reverse.offsets.end() - 1);
  for (uint32_t node = 0; node < graph.num_nodes; ++node) {
    const uint32_t* edges = graph.row(node);
    for (uint32_t e = 0; e < graph.degree; ++e) {
      if (edges[e] == kInvalidNeighbor) break;
      reverse.edges[fill[edges[e]]++] = node;
    }
  }
  return reverse;
}

KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points,
                       GraphBuildStats* stats) {
  KnnGraph graph;
  if (stats != nullptr) *stats = GraphBuildStats();
  if (rows == 0) return graph;
  const Stopwatch total_wall;
  const uint32_t n = static_cast<uint32_t>(rows);
  const uint32_t degree = std::max<uint32_t>(
      1, std::min<uint64_t>(params.degree, std::max<size_t>(rows - 1, 1)));
  const int workers =
      params.workers > 0 ? params.workers : common::HardwareThreads();
  NotifyObserver(workers);
  const size_t num_chunks = (rows + kNodeGrain - 1) / kNodeGrain;
  const size_t slots = static_cast<size_t>(rows) * degree;

  // The adjacency as flat n x degree rows, each ascending by (distance,
  // id). With two or more points every row is full — degree <= rows - 1
  // and the init picks exactly `degree` distinct others — so only the
  // single-point graph carries padding, and only the reverse lists need
  // per-node lengths.
  std::vector<uint32_t> ids(slots, kInvalidNeighbor);
  std::vector<float> dists(slots, std::numeric_limits<float>::infinity());

  // Random initial neighborhoods, one independent stream per node so the
  // chunking (and therefore the worker count) cannot reach the bits.
  Stopwatch phase_wall;
  common::ParallelForChunks(
      workers, rows, kNodeGrain,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        std::vector<uint32_t> picks;
        std::vector<float> pick_dists;
        std::vector<Neighbor> mine;
        for (size_t i = begin; i < end; ++i) {
          picks.clear();
          if (rows - 1 <= degree) {
            for (uint32_t c = 0; c < n; ++c) {
              if (c != static_cast<uint32_t>(i)) picks.push_back(c);
            }
          } else {
            Rng rng(SplitMix64(params.seed ^ static_cast<uint64_t>(i)));
            while (picks.size() < degree) {
              const auto c = static_cast<uint32_t>(rng.NextBounded(n));
              if (c == static_cast<uint32_t>(i)) continue;
              if (std::find(picks.begin(), picks.end(), c) == picks.end()) {
                picks.push_back(c);
              }
            }
          }
          pick_dists.resize(picks.size());
          simd::GatherDistances(points + i * dims, points, rows, picks.data(),
                                picks.size(), dims, dist, pick_dists.data());
          mine.clear();
          for (size_t c = 0; c < picks.size(); ++c) {
            mine.push_back(Neighbor{picks[c], pick_dists[c]});
          }
          std::sort(mine.begin(), mine.end(), NeighborLess);
          for (size_t j = 0; j < mine.size(); ++j) {
            ids[i * degree + j] = mine[j].index;
            dists[i * degree + j] = mine[j].distance;
          }
        }
      });
  if (stats != nullptr) stats->init_seconds = phase_wall.ElapsedSeconds();

  // Synchronous NN-descent: each round reads the previous adjacency
  // read-only and writes the next, so nodes refine independently. A
  // node's candidates are its forward and reverse neighbors plus their
  // neighborhoods (the local join), scored with the canonical distance
  // and folded through a (distance, id) TopK.
  uint32_t iters = 0;
  if (rows > 2) {
    std::vector<uint32_t> next_ids(slots);
    std::vector<float> next_dists(slots);
    std::vector<uint32_t> rev(slots);
    std::vector<uint32_t> rev_len(rows);
    std::vector<uint64_t> chunk_updates(num_chunks);
    std::vector<uint64_t> chunk_candidates(num_chunks);
    // One scratch per fork-join participant, reused across nodes and
    // rounds. A nested build runs inline on a pool worker whose slot can
    // be any of them, so the table covers every slot.
    std::vector<JoinScratch> scratch(common::kMaxSimThreads + 1);
    for (uint32_t round = 0; round < params.max_iters; ++round) {
      // Reverse lists in one deterministic serial pass, capped at
      // `degree` in-edges per node (ascending source order).
      phase_wall.Reset();
      std::fill(rev_len.begin(), rev_len.end(), 0);
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t* mine = ids.data() + static_cast<size_t>(i) * degree;
        for (uint32_t j = 0; j < degree; ++j) {
          const uint32_t v = mine[j];
          if (rev_len[v] < degree) {
            rev[static_cast<size_t>(v) * degree + rev_len[v]++] = i;
          }
        }
      }
      if (stats != nullptr) {
        stats->reverse_seconds += phase_wall.ElapsedSeconds();
      }
      phase_wall.Reset();
      std::fill(chunk_updates.begin(), chunk_updates.end(), 0);
      std::fill(chunk_candidates.begin(), chunk_candidates.end(), 0);
      common::ParallelForChunks(
          workers, rows, kNodeGrain,
          [&](size_t chunk, size_t begin, size_t end) {
            JoinScratch& js = scratch[static_cast<size_t>(
                common::ThreadPool::CurrentSlot())];
            if (js.bits.empty()) js.Reset(rows);
            for (size_t i = begin; i < end; ++i) {
              const uint32_t* mine = ids.data() + i * degree;
              const float* mine_dists = dists.data() + i * degree;
              const auto expand = [&](uint32_t b) {
                js.Mark(b);
                const uint32_t* fwd =
                    ids.data() + static_cast<size_t>(b) * degree;
                for (uint32_t j = 0; j < degree; ++j) js.Mark(fwd[j]);
                const uint32_t* back =
                    rev.data() + static_cast<size_t>(b) * degree;
                for (uint32_t j = 0; j < rev_len[b]; ++j) js.Mark(back[j]);
              };
              for (uint32_t j = 0; j < degree; ++j) expand(mine[j]);
              const uint32_t* back = rev.data() + i * degree;
              for (uint32_t j = 0; j < rev_len[i]; ++j) expand(back[j]);
              // The node itself and its current neighbors are never
              // candidates.
              js.Unmark(static_cast<uint32_t>(i));
              for (uint32_t j = 0; j < degree; ++j) js.Unmark(mine[j]);
              js.Drain();

              // Score every candidate straight from the point base; the
              // distances are bit-identical to PointDistance.
              const size_t count = js.cand.size();
              js.dists.resize(count);
              simd::GatherDistances(points + i * dims, points, rows,
                                    js.cand.data(), count, dims, dist,
                                    js.dists.data());

              // Offer the candidates in ascending id order, as the sorted
              // scan always has: the accepted-push count depends on it.
              // One that cannot beat the current kth costs PushIfCloser a
              // single comparison.
              TopK heap(static_cast<int>(degree));
              for (uint32_t j = 0; j < degree; ++j) {
                heap.PushIfCloser(Neighbor{mine[j], mine_dists[j]});
              }
              uint64_t updates = 0;
              for (size_t c = 0; c < count; ++c) {
                if (heap.PushIfCloser(Neighbor{js.cand[c], js.dists[c]})) {
                  ++updates;
                }
              }
              const std::vector<Neighbor> sorted = heap.Sorted();
              uint32_t* out_ids = next_ids.data() + i * degree;
              float* out_dists = next_dists.data() + i * degree;
              for (uint32_t j = 0; j < degree; ++j) {
                out_ids[j] = sorted[j].index;
                out_dists[j] = sorted[j].distance;
              }
              chunk_updates[chunk] += updates;
              chunk_candidates[chunk] += count;
            }
          });
      ids.swap(next_ids);
      dists.swap(next_dists);
      ++iters;
      uint64_t updates = 0;
      for (const uint64_t u : chunk_updates) updates += u;
      if (stats != nullptr) {
        GraphBuildStats::Round r;
        for (const uint64_t c : chunk_candidates) r.candidates += c;
        r.accepted = updates;
        r.seconds = phase_wall.ElapsedSeconds();
        stats->rounds.push_back(r);
      }
      if (static_cast<double>(updates) <=
          params.convergence_fraction * static_cast<double>(rows) *
              static_cast<double>(degree)) {
        break;
      }
    }
  }

  graph.num_nodes = n;
  graph.degree = degree;
  graph.build_iters = iters;
  graph.build_seed = params.seed;
  graph.neighbors = std::move(ids);

  // Entry seeds: the caller's landmark picks, cleaned up; a strided
  // deterministic sample when none survive.
  std::sort(entry_points.begin(), entry_points.end());
  entry_points.erase(std::unique(entry_points.begin(), entry_points.end()),
                     entry_points.end());
  while (!entry_points.empty() && entry_points.back() >= n) {
    entry_points.pop_back();
  }
  if (entry_points.empty()) {
    const uint32_t count = std::min<uint32_t>(8, n);
    for (uint32_t j = 0; j < count; ++j) {
      entry_points.push_back(j * n / count);
    }
    entry_points.erase(
        std::unique(entry_points.begin(), entry_points.end()),
        entry_points.end());
  }
  graph.entry_points = std::move(entry_points);
  if (stats != nullptr) stats->total_seconds = total_wall.ElapsedSeconds();
  return graph;
}

}  // namespace sweetknn::ann
