// Corruption fuzzing of the cluster wire protocol (docs/distributed.md):
// the frame layer (net/frame.h) and every message codec (net/wire.h)
// driven over seeded corruptions — single-bit flips of every bit,
// every truncation prefix, oversized length fields, version skew, and
// random byte soup. The acceptance bar is the .sksnap store's: every
// corruption is rejected with a clean Status, never a crash, a hang, or
// a silently wrong decode.
//
// The frame CRC covers type + payload_len + payload, and magic/version
// are validated by value, so EVERY single-bit flip of a valid frame must
// be rejected. Message payloads sit below the CRC, so a flipped payload
// byte may still decode (the frame layer is what vouches for bytes);
// there the bar is bounds-safety: no crash, no absurd allocation.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/shard_worker.h"
#include "store/payload_io.h"

namespace sweetknn::net {
namespace {

std::string SamplePayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string payload(n, '\0');
  for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
  return payload;
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

TEST(FrameFuzzTest, RoundTrip) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                         size_t{4096}}) {
    const std::string payload = SamplePayload(n, 11 + n);
    const std::string bytes = EncodeFrame(42, payload);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + n + sizeof(uint32_t));
    Frame frame;
    size_t consumed = 0;
    ASSERT_TRUE(DecodeFrame(bytes, &frame, &consumed).ok());
    EXPECT_EQ(frame.type, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, bytes.size());
  }
}

TEST(FrameFuzzTest, EverySingleBitFlipRejected) {
  const std::string payload = SamplePayload(96, 23);
  const std::string good = EncodeFrame(7, payload);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(good, &frame, nullptr).ok());
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      const Status status = DecodeFrame(bad, &frame, nullptr);
      EXPECT_FALSE(status.ok())
          << "flip of byte " << byte << " bit " << bit << " was accepted";
    }
  }
}

TEST(FrameFuzzTest, EveryTruncationRejected) {
  const std::string good = EncodeFrame(9, SamplePayload(64, 31));
  Frame frame;
  for (size_t len = 0; len < good.size(); ++len) {
    const Status status = DecodeFrame(good.substr(0, len), &frame, nullptr);
    EXPECT_FALSE(status.ok())
        << "truncation to " << len << " of " << good.size()
        << " bytes was accepted";
  }
}

TEST(FrameFuzzTest, OversizedLengthRejected) {
  // A header promising more than the payload cap must be refused before
  // anything is allocated for it — regardless of how many bytes follow.
  for (const uint64_t len :
       {kMaxFramePayload + 1, uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string bytes;
    const uint32_t magic = kFrameMagic;
    const uint32_t version = kFrameVersion;
    const uint32_t type = 3;
    bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.append(reinterpret_cast<const char*>(&type), sizeof(type));
    bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
    bytes.append(1024, 'x');
    Frame frame;
    const Status status = DecodeFrame(bytes, &frame, nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("cap"), std::string::npos)
        << status.ToString();
  }
}

TEST(FrameFuzzTest, VersionSkewRejected) {
  std::string bytes = EncodeFrame(5, SamplePayload(16, 47));
  for (const uint32_t version : {uint32_t{0}, uint32_t{2}, ~uint32_t{0}}) {
    std::string skewed = bytes;
    std::memcpy(skewed.data() + sizeof(uint32_t), &version, sizeof(version));
    Frame frame;
    const Status status = DecodeFrame(skewed, &frame, nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
  }
}

TEST(FrameFuzzTest, BadMagicRejected) {
  std::string bytes = EncodeFrame(5, "hello");
  const uint32_t magic = 0xdeadbeef;
  std::memcpy(bytes.data(), &magic, sizeof(magic));
  Frame frame;
  EXPECT_FALSE(DecodeFrame(bytes, &frame, nullptr).ok());
}

TEST(FrameFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(20260809);
  Frame frame;
  for (int i = 0; i < 2000; ++i) {
    const size_t n = rng.NextBounded(200);
    std::string soup = SamplePayload(n, rng.NextU64());
    // Half the time, make the soup header-shaped so the deeper checks
    // (length, CRC) get exercised instead of failing at the magic.
    if (n >= kFrameHeaderBytes && rng.NextBounded(2) == 0) {
      const uint32_t magic = kFrameMagic;
      const uint32_t version = kFrameVersion;
      std::memcpy(soup.data(), &magic, sizeof(magic));
      std::memcpy(soup.data() + 4, &version, sizeof(version));
    }
    DecodeFrame(soup, &frame, nullptr);  // must return, never crash
  }
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

HostMatrix SmallMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  HostMatrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m.at(r, c) = rng.NextFloat();
  }
  return m;
}

/// One representative encoded payload per message type, paired with its
/// decoder. The fuzz below drives every decoder over every truncation
/// prefix and a byte-flip sweep.
struct CodecSample {
  const char* name;
  std::string payload;
  Status (*decode)(const std::string&);
};

std::vector<CodecSample> AllCodecSamples() {
  std::vector<CodecSample> samples;

  PrepareColdRequest cold;
  cold.shard_index = 2;
  cold.offset = 100;
  cold.slice = SmallMatrix(5, 3, 1);
  cold.tenant = "faces";
  samples.push_back({"PrepareCold", EncodePrepareCold(cold),
                     [](const std::string& p) {
                       PrepareColdRequest req;
                       return DecodePrepareCold(p, &req);
                     }});

  PrepareSnapshotRequest snap;
  snap.shard_index = 1;
  snap.path = "/tmp/some/shard-0-of-2.sksnap";
  snap.tenant = "faces";
  samples.push_back({"PrepareSnapshot", EncodePrepareSnapshot(snap),
                     [](const std::string& p) {
                       PrepareSnapshotRequest req;
                       return DecodePrepareSnapshot(p, &req);
                     }});

  QueryRequest query;
  query.k = 4;
  query.queries = SmallMatrix(3, 6, 2);
  query.shard_indices = {0, 2, 5};
  query.tenant = "faces";
  samples.push_back({"Query", EncodeQuery(query), [](const std::string& p) {
                       QueryRequest req;
                       return DecodeQuery(p, &req);
                     }});

  QueryReply reply;
  reply.shard_indices = {1, 3};
  reply.answers.resize(2);
  reply.answers[0].pristine = true;
  reply.answers[0].offset = 10;
  reply.answers[0].result = KnnResult(3, 4);
  reply.answers[1].pristine = false;
  reply.answers[1].result = KnnResult(3, 4);
  samples.push_back({"QueryReply", EncodeQueryReply(reply),
                     [](const std::string& p) {
                       QueryReply r;
                       return DecodeQueryReply(p, &r);
                     }});

  InsertRequest insert;
  insert.shard_index = 1;
  insert.id = 77;
  insert.point = {0.5f, -0.25f, 3.0f};
  samples.push_back({"Insert", EncodeInsert(insert), [](const std::string& p) {
                       InsertRequest req;
                       return DecodeInsert(p, &req);
                     }});

  RemoveRequest remove;
  remove.shard_index = 0;
  remove.id = 13;
  samples.push_back({"Remove", EncodeRemove(remove), [](const std::string& p) {
                       RemoveRequest req;
                       return DecodeRemove(p, &req);
                     }});

  RemoveReply removed;
  removed.found = true;
  samples.push_back({"RemoveReply", EncodeRemoveReply(removed),
                     [](const std::string& p) {
                       RemoveReply r;
                       return DecodeRemoveReply(p, &r);
                     }});

  CompactRequest compact;
  compact.shard_index = 3;
  samples.push_back({"Compact", EncodeCompact(compact),
                     [](const std::string& p) {
                       CompactRequest req;
                       return DecodeCompact(p, &req);
                     }});

  SaveShardRequest save;
  save.shard_index = 1;
  save.shard_count = 4;
  save.path = "/tmp/catchup-1-7.sksnap";
  save.dataset_name = "fuzz";
  save.next_id = 99;
  samples.push_back({"SaveShard", EncodeSaveShard(save),
                     [](const std::string& p) {
                       SaveShardRequest req;
                       return DecodeSaveShard(p, &req);
                     }});

  ListIndexesReply indexes;
  indexes.names = {"default", "faces", "a-rather-long-index-name"};
  samples.push_back({"ListIndexesReply", EncodeListIndexesReply(indexes),
                     [](const std::string& p) {
                       ListIndexesReply r;
                       return DecodeListIndexesReply(p, &r);
                     }});

  HealthReply health;
  health.queries_served = 12;
  health.shards.push_back({0, 50, 3, 1, 52});
  health.shards.push_back({2, 40, 0, 0, 40});
  samples.push_back({"HealthReply", EncodeHealthReply(health),
                     [](const std::string& p) {
                       HealthReply r;
                       return DecodeHealthReply(p, &r);
                     }});

  // The range payloads carry a variable-cardinality CSR section per
  // shard, so their truncation/flip coverage guards the
  // offset-monotonicity and allocation checks.
  RangeQueryRequest range_query;
  range_query.radius = 0.5f;
  range_query.queries = SmallMatrix(2, 3, 9);
  range_query.shard_indices = {0, 1};
  range_query.tenant = "faces";
  samples.push_back({"RangeQuery", EncodeRangeQuery(range_query),
                     [](const std::string& p) {
                       RangeQueryRequest req;
                       return DecodeRangeQuery(p, &req);
                     }});

  RangeQueryReply range_reply;
  range_reply.shard_indices = {0, 3};
  range_reply.answers.resize(2);
  range_reply.answers[0].result.AppendRow(
      {Neighbor{3, 0.25f}, Neighbor{8, 0.5f}});
  range_reply.answers[0].result.AppendRow({});
  range_reply.answers[0].route_seconds = 1e-5;
  range_reply.answers[0].stats.candidates = 7;
  range_reply.answers[0].stats.total_pairs = 40;
  range_reply.answers[1].result.AppendRow({Neighbor{1, 0.125f}});
  range_reply.answers[1].result.AppendRow({});
  samples.push_back({"RangeQueryReply", EncodeRangeQueryReply(range_reply),
                     [](const std::string& p) {
                       RangeQueryReply r;
                       return DecodeRangeQueryReply(p, &r);
                     }});

  ExportLiveRequest export_live;
  export_live.shard_indices = {0, 2};
  export_live.tenant = "faces";
  samples.push_back({"ExportLive", EncodeExportLive(export_live),
                     [](const std::string& p) {
                       ExportLiveRequest req;
                       return DecodeExportLive(p, &req);
                     }});

  ExportLiveReply export_reply;
  export_reply.ids = {3, 5};
  export_reply.points = SmallMatrix(2, 3, 11);
  samples.push_back({"ExportLiveReply", EncodeExportLiveReply(export_reply),
                     [](const std::string& p) {
                       ExportLiveReply r;
                       return DecodeExportLiveReply(p, &r);
                     }});

  return samples;
}

TEST(WireFuzzTest, EveryTruncationRejected) {
  for (const CodecSample& sample : AllCodecSamples()) {
    SCOPED_TRACE(sample.name);
    ASSERT_TRUE(sample.decode(sample.payload).ok())
        << "round trip broken for " << sample.name;
    for (size_t len = 0; len < sample.payload.size(); ++len) {
      EXPECT_FALSE(sample.decode(sample.payload.substr(0, len)).ok())
          << sample.name << " accepted a truncation to " << len << " of "
          << sample.payload.size() << " bytes";
    }
  }
}

TEST(WireFuzzTest, ByteFlipsNeverCrash) {
  // Below the frame CRC a flipped byte may legitimately still decode
  // (the values are data, not structure) — the bar here is that a
  // corrupted length prefix or count can never crash the decoder or
  // make it allocate absurdly. Each decode must simply return.
  for (const CodecSample& sample : AllCodecSamples()) {
    SCOPED_TRACE(sample.name);
    for (size_t byte = 0; byte < sample.payload.size(); ++byte) {
      for (const uint8_t mask : {0x01, 0x80, 0xff}) {
        std::string bad = sample.payload;
        bad[byte] = static_cast<char>(bad[byte] ^ mask);
        sample.decode(bad);  // must return, never crash
      }
    }
  }
}

TEST(WireFuzzTest, RandomSoupNeverCrashes) {
  Rng rng(424242);
  for (int i = 0; i < 500; ++i) {
    const std::string soup = SamplePayload(rng.NextBounded(160), rng.NextU64());
    for (const CodecSample& sample : AllCodecSamples()) {
      sample.decode(soup);  // must return, never crash
    }
    DecodeError(soup);  // returns some Status either way; must not crash
  }
}

// The tenant name rides at the END of the prepare/query payloads (the
// legacy field order is untouched ahead of it) and must survive the
// round trip exactly — a worker validating the wrong index name would
// serve cross-tenant answers.
TEST(WireFuzzTest, TenantFieldRoundTrip) {
  PrepareColdRequest cold;
  cold.shard_index = 1;
  cold.slice = SmallMatrix(2, 3, 5);
  cold.tenant = "faces";
  PrepareColdRequest cold_out;
  ASSERT_TRUE(DecodePrepareCold(EncodePrepareCold(cold), &cold_out).ok());
  EXPECT_EQ(cold_out.tenant, "faces");

  PrepareSnapshotRequest snap;
  snap.shard_index = 0;
  snap.path = "/tmp/x.sksnap";
  snap.tenant = "plates";
  PrepareSnapshotRequest snap_out;
  ASSERT_TRUE(
      DecodePrepareSnapshot(EncodePrepareSnapshot(snap), &snap_out).ok());
  EXPECT_EQ(snap_out.tenant, "plates");

  QueryRequest query;
  query.k = 2;
  query.queries = SmallMatrix(1, 3, 6);
  query.shard_indices = {0};
  query.tenant = "default";
  QueryRequest query_out;
  ASSERT_TRUE(DecodeQuery(EncodeQuery(query), &query_out).ok());
  EXPECT_EQ(query_out.tenant, "default");
}

// Route 0 was the retired device-sampling mode. The two routes keep
// their wire values (1 and 2) and round-trip in Query frames; a payload
// that still carries 0 is refused with a clean Status instead of
// decoding into a route this build no longer has.
TEST(WireFuzzTest, RetiredPlannerModeRejected) {
  QueryRequest req;
  req.k = 3;
  req.queries = SmallMatrix(2, 3, 7);
  req.shard_indices = {1};
  req.tenant = "faces";
  req.route = core::QueryRoute::kDevice;
  const std::string device = EncodeQuery(req);
  req.route = core::QueryRoute::kHost;
  std::string payload = EncodeQuery(req);
  QueryRequest out;
  ASSERT_TRUE(DecodeQuery(device, &out).ok());
  EXPECT_EQ(out.route, core::QueryRoute::kDevice);
  ASSERT_TRUE(DecodeQuery(payload, &out).ok());
  EXPECT_EQ(out.route, core::QueryRoute::kHost);

  // Values 1 and 2 differ only in the route field's low byte.
  ASSERT_EQ(device.size(), payload.size());
  size_t at = payload.size();
  for (size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == device[i]) continue;
    ASSERT_EQ(at, payload.size()) << "second differing byte at " << i;
    at = i;
  }
  ASSERT_LT(at, payload.size());
  payload[at] = 0;
  const Status retired = DecodeQuery(payload, &out);
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.code(), StatusCode::kIoError) << retired.ToString();
  EXPECT_NE(retired.message().find("route"), std::string::npos)
      << retired.ToString();
}

/// Query frames a worker must refuse: k of 0 or past INT_MAX (the worker
/// runs k as an int), and routes other than 1 and 2.
std::vector<QueryRequest> OutOfRangeQueries(const QueryRequest& valid) {
  std::vector<QueryRequest> bad;
  for (const uint32_t k : {0u, 0x80000000u, 0xFFFFFFFFu}) {
    bad.push_back(valid);
    bad.back().k = k;
  }
  for (const uint32_t route : {0u, 3u}) {
    bad.push_back(valid);
    bad.back().route = static_cast<core::QueryRoute>(route);
  }
  return bad;
}

TEST(WireFuzzTest, QueryKAndRouteOutOfRangeRejected) {
  QueryRequest valid;
  valid.k = static_cast<uint32_t>(std::numeric_limits<int>::max());
  valid.queries = SmallMatrix(1, 3, 8);
  valid.shard_indices = {0};
  QueryRequest out;
  ASSERT_TRUE(DecodeQuery(EncodeQuery(valid), &out).ok());
  EXPECT_EQ(out.k, valid.k);
  for (const QueryRequest& bad : OutOfRangeQueries(valid)) {
    const Status status = DecodeQuery(EncodeQuery(bad), &out);
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "k=" << bad.k << " route=" << static_cast<uint32_t>(bad.route)
        << ": " << status.ToString();
  }
}

TEST(WireFuzzTest, ListIndexesReplyRoundTripAndAbsurdCountRejected) {
  ListIndexesReply reply;
  reply.names = {"default", "faces"};
  ListIndexesReply out;
  ASSERT_TRUE(
      DecodeListIndexesReply(EncodeListIndexesReply(reply), &out).ok());
  EXPECT_EQ(out.names, reply.names);

  ListIndexesReply empty;
  ASSERT_TRUE(
      DecodeListIndexesReply(EncodeListIndexesReply(empty), &out).ok());
  EXPECT_TRUE(out.names.empty());

  // A count no payload of this size could carry must be refused before
  // any reserve() happens.
  store::PayloadWriter w;
  w.PutU64(~uint64_t{0});
  const Status absurd = DecodeListIndexesReply(w.Take(), &out);
  ASSERT_FALSE(absurd.ok());
  EXPECT_EQ(absurd.code(), StatusCode::kIoError) << absurd.ToString();
}

TEST(WireFuzzTest, RangeQueryReplyRoundTripAndAbsurdShardCountRejected) {
  RangeQueryReply reply;
  reply.shard_indices = {2};
  reply.answers.resize(1);
  reply.answers[0].result.AppendRow({Neighbor{4, 0.5f}, Neighbor{9, 0.75f}});
  reply.answers[0].route_seconds = 0.25;
  reply.answers[0].stats.members_pruned = 11;
  RangeQueryReply out;
  ASSERT_TRUE(
      DecodeRangeQueryReply(EncodeRangeQueryReply(reply), &out).ok());
  ASSERT_EQ(out.shard_indices, reply.shard_indices);
  ASSERT_EQ(out.answers.size(), 1u);
  EXPECT_TRUE(BitIdentical(out.answers[0].result, reply.answers[0].result));
  EXPECT_EQ(out.answers[0].route_seconds, 0.25);
  EXPECT_EQ(out.answers[0].stats.members_pruned, 11u);

  // A shard-index count no payload of this size could carry, and an
  // answer count that disagrees with the index list, must both be
  // refused before anything is reserved for them.
  store::PayloadWriter absurd_indices;
  absurd_indices.PutU64(~uint64_t{0});
  EXPECT_EQ(DecodeRangeQueryReply(absurd_indices.Take(), &out).code(),
            StatusCode::kIoError);
  store::PayloadWriter absurd_answers;
  const uint32_t one_shard = 0;
  absurd_answers.PutU32s(&one_shard, 1);
  absurd_answers.PutU64(~uint64_t{0});
  EXPECT_EQ(DecodeRangeQueryReply(absurd_answers.Take(), &out).code(),
            StatusCode::kIoError);
}

std::chrono::steady_clock::time_point Deadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(10);
}

/// A ShardWorker serving from a thread of this process on a fresh socket,
/// with the test's connection to it (`connected` says whether it opened).
struct LocalWorker {
  explicit LocalWorker(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("sweetknn-frame-fuzz-" + name + "-" +
               std::to_string(::getpid()) + ".sock"))
                 .string()),
        worker(path),
        thread([this] { served = worker.Run(); }) {
    Result<Connection> opened = Connection::Connect(path, Deadline());
    connected = opened.status();
    if (opened.ok()) conn = std::move(opened).value();
  }
  /// After a test that failed before Stop(), the worker ends at the EOF.
  ~LocalWorker() {
    conn.Close();
    if (thread.joinable()) thread.join();
  }
  LocalWorker(const LocalWorker&) = delete;
  LocalWorker& operator=(const LocalWorker&) = delete;

  /// One request/reply exchange.
  Result<Frame> Call(uint32_t type, const std::string& payload) {
    SK_RETURN_IF_ERROR(SendFrame(conn, type, payload, Deadline()));
    return RecvFrame(conn, Deadline());
  }

  /// Shuts the worker down over the wire and joins its thread; the worker
  /// must have stayed up, and must end cleanly.
  void Stop() {
    const Result<Frame> ack =
        Call(static_cast<uint32_t>(MsgType::kShutdown), "");
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack.value().type, static_cast<uint32_t>(MsgType::kAck));
    thread.join();
    EXPECT_TRUE(served.ok()) << served.ToString();
  }

  const std::string path;
  serve::ShardWorker worker;
  Status served = Status::Ok();
  std::thread thread;
  Status connected = Status::Ok();
  Connection conn;
};

// The worker-side job protocol (types 80-85) is gone, and its numbers
// are not reused: a peer still speaking it gets a clean Error frame
// naming the unknown type, and the worker keeps serving.
TEST(WireFuzzTest, WorkerAnswersRetiredJobTypeWithAnErrorFrame) {
  LocalWorker local("jobs");
  ASSERT_TRUE(local.connected.ok()) << local.connected.ToString();
  const Result<Frame> reply = local.Call(80, "");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, static_cast<uint32_t>(MsgType::kError));
  const Status error = DecodeError(reply.value().payload);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << error.ToString();
  EXPECT_NE(error.message().find("unknown message type 80"),
            std::string::npos)
      << error.ToString();
  local.Stop();
}

// A Query frame with k = 0, k past INT_MAX or an unknown route reaches a
// worker that hosts a shard: the worker answers each with an Error frame
// and stays alive, and then answers a valid group normally.
TEST(WireFuzzTest, WorkerAnswersOutOfRangeQueryWithAnErrorFrame) {
  LocalWorker local("query");
  ASSERT_TRUE(local.connected.ok()) << local.connected.ToString();

  PrepareColdRequest prepare;
  prepare.slice = SmallMatrix(20, 3, 12);
  const Result<Frame> prepared = local.Call(
      static_cast<uint32_t>(MsgType::kPrepareCold), EncodePrepareCold(prepare));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared.value().type, static_cast<uint32_t>(MsgType::kAck));

  QueryRequest valid;
  valid.k = 10;
  valid.queries = SmallMatrix(2, 3, 13);
  valid.shard_indices = {0};
  const auto query = [&](const QueryRequest& req) {
    return local.Call(static_cast<uint32_t>(MsgType::kQuery),
                      EncodeQuery(req));
  };
  for (const QueryRequest& bad : OutOfRangeQueries(valid)) {
    SCOPED_TRACE("k=" + std::to_string(bad.k) +
                 " route=" + std::to_string(static_cast<uint32_t>(bad.route)));
    const Result<Frame> reply = query(bad);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().type, static_cast<uint32_t>(MsgType::kError));
    EXPECT_EQ(DecodeError(reply.value().payload).code(),
              StatusCode::kIoError);
  }
  const Result<Frame> reply = query(valid);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, static_cast<uint32_t>(MsgType::kQueryReply));
  QueryReply answers;
  ASSERT_TRUE(DecodeQueryReply(reply.value().payload, &answers).ok());
  ASSERT_EQ(answers.answers.size(), 1u);
  EXPECT_EQ(answers.answers[0].result.num_queries(), 2u);
  EXPECT_EQ(answers.answers[0].result.k(), 10);
  local.Stop();
}

TEST(WireFuzzTest, ErrorRoundTrip) {
  const Status want = Status::Unavailable("shard 3 has no live host");
  const Status got = DecodeError(EncodeError(want));
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
  // An Error frame carrying Ok is nonsense on the wire; the decoder
  // treats code 0 the same as any other out-of-range code.
  const Status degenerate = DecodeError(EncodeError(Status::Ok()));
  EXPECT_EQ(degenerate.code(), StatusCode::kIoError)
      << degenerate.ToString();
}

}  // namespace
}  // namespace sweetknn::net
