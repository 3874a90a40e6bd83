#include "net/wire.h"

#include <cstring>
#include <limits>

#include "net/frame.h"
#include "store/payload_io.h"

namespace sweetknn::net {

namespace {

using store::PayloadReader;
using store::PayloadWriter;

// Floats travel as their bit pattern in a u32, matching the scalar
// convention of the rest of the codec (native representation, the frame
// CRC vouches for integrity).
void PutFloat(PayloadWriter* w, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  w->PutU32(bits);
}

Status GetFloat(PayloadReader* r, float* out) {
  uint32_t bits = 0;
  SK_RETURN_IF_ERROR(r->GetU32(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::Ok();
}

void PutBool(PayloadWriter* w, bool v) { w->PutU32(v ? 1 : 0); }

Status GetBool(PayloadReader* r, bool* out) {
  uint32_t v = 0;
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  if (v > 1) {
    return Status::IoError("wire: bool field holds " + std::to_string(v));
  }
  *out = v != 0;
  return Status::Ok();
}

/// Range-checked enum decode: a corrupted or version-skewed value
/// becomes a Status, never an out-of-range enum loose in the engine.
template <typename E>
Status GetEnum(PayloadReader* r, uint32_t max_value, const char* what,
               E* out) {
  uint32_t v = 0;
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  if (v > max_value) {
    return Status::IoError("wire: " + std::string(what) + " value " +
                           std::to_string(v) + " out of range");
  }
  *out = static_cast<E>(v);
  return Status::Ok();
}

// --- TiOptions --------------------------------------------------------------
// Optionals encode as a has-flag u32 followed by the value u32; every
// field rides explicitly so the worker's engine build is configured by
// exactly the bytes the router sent, not by either side's defaults.

void PutOptions(PayloadWriter* w, const core::TiOptions& o) {
  w->PutU32(static_cast<uint32_t>(o.metric));
  w->PutU32(static_cast<uint32_t>(o.block_threads));
  w->PutU32(static_cast<uint32_t>(o.layout));
  w->PutU32(static_cast<uint32_t>(o.point_vector_width));
  w->PutU32(static_cast<uint32_t>(o.knearests_layout));
  PutBool(w, o.remap_threads);
  PutBool(w, o.elastic_parallelism);
  w->PutDouble(o.parallelism_r);
  w->PutU32(static_cast<uint32_t>(o.landmarks_override));
  w->PutU32(static_cast<uint32_t>(o.kmeans_iterations));
  w->PutU32(o.filter_override.has_value() ? 1 : 0);
  w->PutU32(o.filter_override.has_value()
                ? static_cast<uint32_t>(*o.filter_override)
                : 0);
  w->PutU32(o.placement_override.has_value() ? 1 : 0);
  w->PutU32(o.placement_override.has_value()
                ? static_cast<uint32_t>(*o.placement_override)
                : 0);
  w->PutU32(static_cast<uint32_t>(o.threads_per_query_override));
  w->PutDouble(o.partial_filter_kd_threshold);
  w->PutU32(static_cast<uint32_t>(o.sim_threads));
}

Status GetOptions(PayloadReader* r, core::TiOptions* o) {
  uint32_t v = 0;
  SK_RETURN_IF_ERROR(GetEnum(r, 1, "metric", &o->metric));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->block_threads = static_cast<int>(v);
  SK_RETURN_IF_ERROR(GetEnum(r, 1, "layout", &o->layout));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->point_vector_width = static_cast<int>(v);
  SK_RETURN_IF_ERROR(
      GetEnum(r, 1, "knearests_layout", &o->knearests_layout));
  SK_RETURN_IF_ERROR(GetBool(r, &o->remap_threads));
  SK_RETURN_IF_ERROR(GetBool(r, &o->elastic_parallelism));
  SK_RETURN_IF_ERROR(r->GetDouble(&o->parallelism_r));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->landmarks_override = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->kmeans_iterations = static_cast<int>(v);
  bool has = false;
  SK_RETURN_IF_ERROR(GetBool(r, &has));
  core::Level2Filter filter = core::Level2Filter::kFull;
  SK_RETURN_IF_ERROR(GetEnum(r, 1, "filter_override", &filter));
  o->filter_override =
      has ? std::optional<core::Level2Filter>(filter) : std::nullopt;
  SK_RETURN_IF_ERROR(GetBool(r, &has));
  core::KnearestsPlacement placement = core::KnearestsPlacement::kGlobal;
  SK_RETURN_IF_ERROR(GetEnum(r, 2, "placement_override", &placement));
  o->placement_override =
      has ? std::optional<core::KnearestsPlacement>(placement) : std::nullopt;
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->threads_per_query_override = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetDouble(&o->partial_filter_kd_threshold));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  o->sim_threads = static_cast<int>(v);
  return Status::Ok();
}

// --- DeviceSpec -------------------------------------------------------------

void PutDevice(PayloadWriter* w, const gpusim::DeviceSpec& d) {
  w->PutString(d.name);
  w->PutU32(static_cast<uint32_t>(d.num_sms));
  w->PutU32(static_cast<uint32_t>(d.max_threads_per_sm));
  w->PutU32(static_cast<uint32_t>(d.max_blocks_per_sm));
  w->PutU32(static_cast<uint32_t>(d.max_threads_per_block));
  w->PutU32(static_cast<uint32_t>(d.shared_mem_per_sm_bytes));
  w->PutU32(static_cast<uint32_t>(d.shared_mem_per_block_bytes));
  w->PutU32(static_cast<uint32_t>(d.registers_per_sm));
  w->PutU32(static_cast<uint32_t>(d.max_registers_per_thread));
  w->PutDouble(d.core_clock_hz);
  w->PutDouble(d.issue_per_sm_per_cycle);
  w->PutDouble(d.mem_bandwidth_bytes_per_s);
  w->PutDouble(d.l2_bandwidth_bytes_per_s);
  w->PutU64(d.l2_cache_bytes);
  w->PutDouble(d.pcie_bandwidth_bytes_per_s);
  w->PutDouble(d.peak_sp_flops);
  w->PutU64(d.global_mem_bytes);
  w->PutDouble(d.kernel_launch_overhead_s);
}

Status GetDevice(PayloadReader* r, gpusim::DeviceSpec* d) {
  uint32_t v = 0;
  uint64_t v64 = 0;
  SK_RETURN_IF_ERROR(r->GetString(&d->name));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->num_sms = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->max_threads_per_sm = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->max_blocks_per_sm = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->max_threads_per_block = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->shared_mem_per_sm_bytes = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->shared_mem_per_block_bytes = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->registers_per_sm = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  d->max_registers_per_thread = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetDouble(&d->core_clock_hz));
  SK_RETURN_IF_ERROR(r->GetDouble(&d->issue_per_sm_per_cycle));
  SK_RETURN_IF_ERROR(r->GetDouble(&d->mem_bandwidth_bytes_per_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&d->l2_bandwidth_bytes_per_s));
  SK_RETURN_IF_ERROR(r->GetU64(&v64));
  d->l2_cache_bytes = static_cast<size_t>(v64);
  SK_RETURN_IF_ERROR(r->GetDouble(&d->pcie_bandwidth_bytes_per_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&d->peak_sp_flops));
  SK_RETURN_IF_ERROR(r->GetU64(&v64));
  d->global_mem_bytes = static_cast<size_t>(v64);
  SK_RETURN_IF_ERROR(r->GetDouble(&d->kernel_launch_overhead_s));
  return Status::Ok();
}

// --- PlannerConfig ----------------------------------------------------------

void PutPlanner(PayloadWriter* w, const core::PlannerConfig& p) {
  w->PutU32(static_cast<uint32_t>(p.mode));
}

Status GetPlanner(PayloadReader* r, core::PlannerConfig* p) {
  SK_RETURN_IF_ERROR(GetEnum(r, 2, "planner mode", &p->mode));
  // 0 was the retired device-sampling mode.
  if (p->mode != core::PlannerMode::kForceDevice &&
      p->mode != core::PlannerMode::kForceHost) {
    return Status::IoError("wire: planner mode 0 is retired");
  }
  return Status::Ok();
}

// --- KnnResult / ShardAnswer ------------------------------------------------

void PutResult(PayloadWriter* w, const KnnResult& result) {
  w->PutU64(result.num_queries());
  w->PutU32(static_cast<uint32_t>(result.k()));
  for (size_t q = 0; q < result.num_queries(); ++q) {
    const Neighbor* row = result.row(q);
    for (int i = 0; i < result.k(); ++i) {
      w->PutU32(row[i].index);
      PutFloat(w, row[i].distance);
    }
  }
}

Status GetResult(PayloadReader* r, KnnResult* result) {
  uint64_t num_queries = 0;
  uint32_t k = 0;
  SK_RETURN_IF_ERROR(r->GetU64(&num_queries));
  SK_RETURN_IF_ERROR(r->GetU32(&k));
  if (k > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Status::IoError("wire: result k " + std::to_string(k) +
                           " out of range");
  }
  // Entries occupy 8 bytes each; bound the product before allocating so
  // a corrupted count can't request a multi-gigabyte result.
  if (k != 0 && num_queries > kMaxFramePayload / (8ull * k)) {
    return Status::IoError("wire: result of " + std::to_string(num_queries) +
                           " x " + std::to_string(k) +
                           " entries exceeds the frame cap");
  }
  *result = KnnResult(num_queries, static_cast<int>(k));
  for (size_t q = 0; q < num_queries; ++q) {
    Neighbor* row = result->mutable_row(q);
    for (uint32_t i = 0; i < k; ++i) {
      SK_RETURN_IF_ERROR(r->GetU32(&row[i].index));
      SK_RETURN_IF_ERROR(GetFloat(r, &row[i].distance));
    }
  }
  return Status::Ok();
}

void PutAnswer(PayloadWriter* w, const core::ShardAnswer& a) {
  PutBool(w, a.pristine);
  PutResult(w, a.result);
  w->PutU32(a.offset);
  PutBool(w, a.device_routed);
  w->PutDouble(a.sim_time_s);
  w->PutDouble(a.level1_s);
  w->PutDouble(a.level2_s);
  w->PutDouble(a.transfer_s);
  w->PutDouble(a.preprocess_s);
  w->PutU64(a.distance_calcs);
  w->PutU64(a.total_pairs);
  w->PutU32(static_cast<uint32_t>(a.filter_used));
  w->PutU32(static_cast<uint32_t>(a.placement_used));
  w->PutU32(static_cast<uint32_t>(a.threads_per_query));
  w->PutDouble(a.route_seconds);
}

Status GetAnswer(PayloadReader* r, core::ShardAnswer* a) {
  uint32_t v = 0;
  SK_RETURN_IF_ERROR(GetBool(r, &a->pristine));
  SK_RETURN_IF_ERROR(GetResult(r, &a->result));
  SK_RETURN_IF_ERROR(r->GetU32(&a->offset));
  SK_RETURN_IF_ERROR(GetBool(r, &a->device_routed));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->sim_time_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->level1_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->level2_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->transfer_s));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->preprocess_s));
  SK_RETURN_IF_ERROR(r->GetU64(&a->distance_calcs));
  SK_RETURN_IF_ERROR(r->GetU64(&a->total_pairs));
  SK_RETURN_IF_ERROR(GetEnum(r, 1, "filter_used", &a->filter_used));
  SK_RETURN_IF_ERROR(GetEnum(r, 2, "placement_used", &a->placement_used));
  SK_RETURN_IF_ERROR(r->GetU32(&v));
  a->threads_per_query = static_cast<int>(v);
  SK_RETURN_IF_ERROR(r->GetDouble(&a->route_seconds));
  return Status::Ok();
}

// --- RangeResult ------------------------------------------------------------

void PutRangeResult(PayloadWriter* w, const RangeResult& r) {
  const std::vector<uint64_t>& offsets = r.offsets();
  w->PutU64(r.num_queries());
  for (const uint64_t o : offsets) w->PutU64(o);
  for (size_t q = 0; q < r.num_queries(); ++q) {
    for (const Neighbor* nb = r.begin(q); nb != r.end(q); ++nb) {
      w->PutU32(nb->index);
      PutFloat(w, nb->distance);
    }
  }
}

Status GetRangeResult(PayloadReader* r, const std::string& payload,
                      RangeResult* out) {
  uint64_t num_queries = 0;
  SK_RETURN_IF_ERROR(r->GetU64(&num_queries));
  // Offsets occupy 8 bytes each in the payload; bound before reserving.
  if (num_queries > payload.size() / 8 + 1) {
    return Status::IoError("wire: range result of " +
                           std::to_string(num_queries) +
                           " queries exceeds the payload");
  }
  std::vector<uint64_t> offsets;
  offsets.reserve(num_queries + 1);
  uint64_t prev = 0;
  for (uint64_t i = 0; i <= num_queries; ++i) {
    uint64_t o = 0;
    SK_RETURN_IF_ERROR(r->GetU64(&o));
    if ((i == 0 && o != 0) || o < prev) {
      return Status::IoError("wire: range result offsets not monotone");
    }
    prev = o;
    offsets.push_back(o);
  }
  const uint64_t total = offsets.back();
  if (total > kMaxFramePayload / 8) {
    return Status::IoError("wire: range result of " + std::to_string(total) +
                           " matches exceeds the frame cap");
  }
  std::vector<Neighbor> flat(total);
  for (uint64_t i = 0; i < total; ++i) {
    SK_RETURN_IF_ERROR(r->GetU32(&flat[i].index));
    SK_RETURN_IF_ERROR(GetFloat(r, &flat[i].distance));
  }
  *out = RangeResult::FromParts(std::move(offsets), std::move(flat));
  return Status::Ok();
}

void PutRangeAnswer(PayloadWriter* w, const core::RangeShardAnswer& a) {
  PutRangeResult(w, a.result);
  w->PutDouble(a.route_seconds);
  w->PutU64(a.stats.candidates);
  w->PutU64(a.stats.total_pairs);
  w->PutU64(a.stats.clusters_pruned);
  w->PutU64(a.stats.members_pruned);
}

Status GetRangeAnswer(PayloadReader* r, const std::string& payload,
                      core::RangeShardAnswer* a) {
  SK_RETURN_IF_ERROR(GetRangeResult(r, payload, &a->result));
  SK_RETURN_IF_ERROR(r->GetDouble(&a->route_seconds));
  SK_RETURN_IF_ERROR(r->GetU64(&a->stats.candidates));
  SK_RETURN_IF_ERROR(r->GetU64(&a->stats.total_pairs));
  SK_RETURN_IF_ERROR(r->GetU64(&a->stats.clusters_pruned));
  SK_RETURN_IF_ERROR(r->GetU64(&a->stats.members_pruned));
  return Status::Ok();
}

/// The shard-index list and answer count that open both per-shard
/// replies; the count must match the list, which the payload bounds.
Status GetShardIndices(PayloadReader* r, const char* what,
                       std::vector<uint32_t>* shard_indices) {
  SK_RETURN_IF_ERROR(r->GetU32s(shard_indices));
  uint64_t count = 0;
  SK_RETURN_IF_ERROR(r->GetU64(&count));
  if (count != shard_indices->size()) {
    return Status::IoError(std::string(what) + ": " + std::to_string(count) +
                           " answers for " +
                           std::to_string(shard_indices->size()) +
                           " shard indices");
  }
  return Status::Ok();
}

}  // namespace

// --- Messages ---------------------------------------------------------------

std::string EncodePrepareCold(const PrepareColdRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  w.PutU64(req.offset);
  w.PutMatrix(req.slice);
  PutOptions(&w, req.options);
  PutDevice(&w, req.device);
  PutPlanner(&w, req.planner);
  w.PutString(req.tenant);
  return w.Take();
}

Status DecodePrepareCold(const std::string& payload, PrepareColdRequest* req) {
  PayloadReader r(payload, "PrepareCold");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  SK_RETURN_IF_ERROR(r.GetU64(&req->offset));
  SK_RETURN_IF_ERROR(r.GetMatrix(&req->slice));
  SK_RETURN_IF_ERROR(GetOptions(&r, &req->options));
  SK_RETURN_IF_ERROR(GetDevice(&r, &req->device));
  SK_RETURN_IF_ERROR(GetPlanner(&r, &req->planner));
  SK_RETURN_IF_ERROR(r.GetString(&req->tenant));
  return r.ExpectExhausted();
}

std::string EncodePrepareSnapshot(const PrepareSnapshotRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  w.PutString(req.path);
  PutOptions(&w, req.options);
  PutDevice(&w, req.device);
  PutPlanner(&w, req.planner);
  w.PutString(req.tenant);
  return w.Take();
}

Status DecodePrepareSnapshot(const std::string& payload,
                             PrepareSnapshotRequest* req) {
  PayloadReader r(payload, "PrepareSnapshot");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  SK_RETURN_IF_ERROR(r.GetString(&req->path));
  SK_RETURN_IF_ERROR(GetOptions(&r, &req->options));
  SK_RETURN_IF_ERROR(GetDevice(&r, &req->device));
  SK_RETURN_IF_ERROR(GetPlanner(&r, &req->planner));
  SK_RETURN_IF_ERROR(r.GetString(&req->tenant));
  return r.ExpectExhausted();
}

std::string EncodeQuery(const QueryRequest& req) {
  PayloadWriter w;
  w.PutU32(req.k);
  w.PutMatrix(req.queries);
  w.PutU32s(req.shard_indices.data(), req.shard_indices.size());
  w.PutString(req.tenant);
  return w.Take();
}

Status DecodeQuery(const std::string& payload, QueryRequest* req) {
  PayloadReader r(payload, "Query");
  SK_RETURN_IF_ERROR(r.GetU32(&req->k));
  SK_RETURN_IF_ERROR(r.GetMatrix(&req->queries));
  SK_RETURN_IF_ERROR(r.GetU32s(&req->shard_indices));
  SK_RETURN_IF_ERROR(r.GetString(&req->tenant));
  return r.ExpectExhausted();
}

std::string EncodeQueryReply(const QueryReply& reply) {
  PayloadWriter w;
  w.PutU32s(reply.shard_indices.data(), reply.shard_indices.size());
  w.PutU64(reply.answers.size());
  for (const core::ShardAnswer& a : reply.answers) PutAnswer(&w, a);
  return w.Take();
}

Status DecodeQueryReply(const std::string& payload, QueryReply* reply) {
  PayloadReader r(payload, "QueryReply");
  SK_RETURN_IF_ERROR(GetShardIndices(&r, "QueryReply", &reply->shard_indices));
  reply->answers.assign(reply->shard_indices.size(), core::ShardAnswer{});
  for (core::ShardAnswer& a : reply->answers) {
    SK_RETURN_IF_ERROR(GetAnswer(&r, &a));
  }
  return r.ExpectExhausted();
}

std::string EncodeRangeQuery(const RangeQueryRequest& req) {
  PayloadWriter w;
  PutFloat(&w, req.radius);
  w.PutMatrix(req.queries);
  w.PutU32s(req.shard_indices.data(), req.shard_indices.size());
  w.PutString(req.tenant);
  return w.Take();
}

Status DecodeRangeQuery(const std::string& payload, RangeQueryRequest* req) {
  PayloadReader r(payload, "RangeQuery");
  SK_RETURN_IF_ERROR(GetFloat(&r, &req->radius));
  SK_RETURN_IF_ERROR(r.GetMatrix(&req->queries));
  SK_RETURN_IF_ERROR(r.GetU32s(&req->shard_indices));
  SK_RETURN_IF_ERROR(r.GetString(&req->tenant));
  return r.ExpectExhausted();
}

std::string EncodeRangeQueryReply(const RangeQueryReply& reply) {
  PayloadWriter w;
  w.PutU32s(reply.shard_indices.data(), reply.shard_indices.size());
  w.PutU64(reply.answers.size());
  for (const core::RangeShardAnswer& a : reply.answers) PutRangeAnswer(&w, a);
  return w.Take();
}

Status DecodeRangeQueryReply(const std::string& payload,
                             RangeQueryReply* reply) {
  PayloadReader r(payload, "RangeQueryReply");
  SK_RETURN_IF_ERROR(
      GetShardIndices(&r, "RangeQueryReply", &reply->shard_indices));
  reply->answers.assign(reply->shard_indices.size(),
                        core::RangeShardAnswer{});
  for (core::RangeShardAnswer& a : reply->answers) {
    SK_RETURN_IF_ERROR(GetRangeAnswer(&r, payload, &a));
  }
  return r.ExpectExhausted();
}

std::string EncodeInsert(const InsertRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  w.PutU32(req.id);
  w.PutFloats(req.point.data(), req.point.size());
  return w.Take();
}

Status DecodeInsert(const std::string& payload, InsertRequest* req) {
  PayloadReader r(payload, "Insert");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  SK_RETURN_IF_ERROR(r.GetU32(&req->id));
  SK_RETURN_IF_ERROR(r.GetFloats(&req->point));
  return r.ExpectExhausted();
}

std::string EncodeRemove(const RemoveRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  w.PutU32(req.id);
  return w.Take();
}

Status DecodeRemove(const std::string& payload, RemoveRequest* req) {
  PayloadReader r(payload, "Remove");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  SK_RETURN_IF_ERROR(r.GetU32(&req->id));
  return r.ExpectExhausted();
}

std::string EncodeRemoveReply(const RemoveReply& reply) {
  PayloadWriter w;
  w.PutU32(reply.found ? 1 : 0);
  return w.Take();
}

Status DecodeRemoveReply(const std::string& payload, RemoveReply* reply) {
  PayloadReader r(payload, "RemoveReply");
  SK_RETURN_IF_ERROR(GetBool(&r, &reply->found));
  return r.ExpectExhausted();
}

std::string EncodeCompact(const CompactRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  return w.Take();
}

Status DecodeCompact(const std::string& payload, CompactRequest* req) {
  PayloadReader r(payload, "Compact");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  return r.ExpectExhausted();
}

std::string EncodeSaveShard(const SaveShardRequest& req) {
  PayloadWriter w;
  w.PutU32(req.shard_index);
  w.PutU32(req.shard_count);
  w.PutString(req.path);
  w.PutString(req.dataset_name);
  w.PutU32(req.next_id);
  return w.Take();
}

Status DecodeSaveShard(const std::string& payload, SaveShardRequest* req) {
  PayloadReader r(payload, "SaveShard");
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_index));
  SK_RETURN_IF_ERROR(r.GetU32(&req->shard_count));
  SK_RETURN_IF_ERROR(r.GetString(&req->path));
  SK_RETURN_IF_ERROR(r.GetString(&req->dataset_name));
  SK_RETURN_IF_ERROR(r.GetU32(&req->next_id));
  return r.ExpectExhausted();
}

std::string EncodeHealthReply(const HealthReply& reply) {
  PayloadWriter w;
  w.PutU64(reply.queries_served);
  w.PutU64(reply.shards.size());
  for (const HealthReply::ShardHealth& s : reply.shards) {
    w.PutU32(s.index);
    w.PutU64(s.base_rows);
    w.PutU64(s.delta_points);
    w.PutU64(s.tombstones);
    w.PutU64(s.live_rows);
  }
  return w.Take();
}

Status DecodeHealthReply(const std::string& payload, HealthReply* reply) {
  PayloadReader r(payload, "HealthReply");
  SK_RETURN_IF_ERROR(r.GetU64(&reply->queries_served));
  uint64_t count = 0;
  SK_RETURN_IF_ERROR(r.GetU64(&count));
  // Each entry is 36 payload bytes; cap before reserving.
  if (count > payload.size() / 36 + 1) {
    return Status::IoError("HealthReply: shard count " +
                           std::to_string(count) + " exceeds the payload");
  }
  reply->shards.clear();
  reply->shards.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    HealthReply::ShardHealth s;
    SK_RETURN_IF_ERROR(r.GetU32(&s.index));
    SK_RETURN_IF_ERROR(r.GetU64(&s.base_rows));
    SK_RETURN_IF_ERROR(r.GetU64(&s.delta_points));
    SK_RETURN_IF_ERROR(r.GetU64(&s.tombstones));
    SK_RETURN_IF_ERROR(r.GetU64(&s.live_rows));
    reply->shards.push_back(s);
  }
  return r.ExpectExhausted();
}

std::string EncodeExportLive(const ExportLiveRequest& req) {
  PayloadWriter w;
  w.PutU32s(req.shard_indices.data(), req.shard_indices.size());
  w.PutString(req.tenant);
  return w.Take();
}

Status DecodeExportLive(const std::string& payload, ExportLiveRequest* req) {
  PayloadReader r(payload, "ExportLive");
  SK_RETURN_IF_ERROR(r.GetU32s(&req->shard_indices));
  SK_RETURN_IF_ERROR(r.GetString(&req->tenant));
  return r.ExpectExhausted();
}

std::string EncodeExportLiveReply(const ExportLiveReply& reply) {
  PayloadWriter w;
  w.PutU32s(reply.ids.data(), reply.ids.size());
  w.PutMatrix(reply.points);
  return w.Take();
}

Status DecodeExportLiveReply(const std::string& payload,
                             ExportLiveReply* reply) {
  PayloadReader r(payload, "ExportLiveReply");
  SK_RETURN_IF_ERROR(r.GetU32s(&reply->ids));
  SK_RETURN_IF_ERROR(r.GetMatrix(&reply->points));
  if (reply->ids.size() != reply->points.rows()) {
    return Status::IoError("ExportLiveReply: " +
                           std::to_string(reply->ids.size()) + " ids for " +
                           std::to_string(reply->points.rows()) + " rows");
  }
  return r.ExpectExhausted();
}

std::string EncodeListIndexesReply(const ListIndexesReply& reply) {
  PayloadWriter w;
  w.PutU64(reply.names.size());
  for (const std::string& name : reply.names) w.PutString(name);
  return w.Take();
}

Status DecodeListIndexesReply(const std::string& payload,
                              ListIndexesReply* reply) {
  PayloadReader r(payload, "ListIndexesReply");
  uint64_t count = 0;
  SK_RETURN_IF_ERROR(r.GetU64(&count));
  // Each name costs at least its 8-byte length prefix; cap before
  // reserving so a corrupted count can't drive a huge allocation.
  if (count > payload.size() / 8 + 1) {
    return Status::IoError("ListIndexesReply: name count " +
                           std::to_string(count) + " exceeds the payload");
  }
  reply->names.clear();
  reply->names.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    SK_RETURN_IF_ERROR(r.GetString(&name));
    reply->names.push_back(std::move(name));
  }
  return r.ExpectExhausted();
}

std::string EncodeError(const Status& status) {
  PayloadWriter w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message());
  return w.Take();
}

Status DecodeError(const std::string& payload) {
  PayloadReader r(payload, "Error");
  uint32_t code = 0;
  std::string message;
  SK_RETURN_IF_ERROR(r.GetU32(&code));
  SK_RETURN_IF_ERROR(r.GetString(&message));
  SK_RETURN_IF_ERROR(r.ExpectExhausted());
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::IoError("Error payload carries unknown status code " +
                           std::to_string(code));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace sweetknn::net
