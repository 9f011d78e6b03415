// The codec workloads: urban-full and urban-sparse4 (intra DBGC, one
// encode + decode per frame) and drive-temporal (I/P streams through
// TemporalEncoder / TemporalDecoder). All timing is single-threaded on the
// main thread; set-up and the verification pass use a 4-thread pool.
//
// The measured phase runs whole cycles through the corpus, each cycle in an
// order drawn from --seed, until --seconds have passed. Every input is thus
// timed equally often, and every timed call is one latency sample. Each
// frame starts on another core than the last (MoveToAnotherCpu).

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "core/error_metrics.h"
#include "core/temporal_codec.h"

namespace dbgc_bench {

using dbgc::ByteBuffer;
using dbgc::CompressParams;
using dbgc::CompressStats;
using dbgc::DbgcCodec;
using dbgc::ErrorStats;
using dbgc::PointCloud;
using dbgc::Result;

namespace {

/// Distinct frames of the urban workloads: one cycle of the measured phase.
constexpr size_t kIntraFrames = 16;
/// Coherent city drives, each its own world, and frames per drive: one
/// group of pictures at the default keyframe interval (1 I, 7 P).
constexpr size_t kDrives = 4;
constexpr size_t kDriveFrames = 8;
constexpr int kKeyframeInterval = 8;
/// Frames of each drive whose nearest-neighbour distortion is measured:
/// its I-frame and one P-frame.
constexpr size_t kDistortionFrames[] = {0, kDriveFrames / 2};

/// What the untimed verification pass established about one input frame.
/// Every timed encode must reproduce `hash`, every timed decode `decoded`.
struct Verified {
  uint64_t hash = 0;
  size_t bytes = 0;
  size_t decoded = 0;
  bool predicted = false;  // A temporal P-frame.
  bool has_error = false;  // `error` was measured.
  bool has_psnr = false;   // `psnr` was measured.
  ErrorStats error;
  double psnr = 0.0;
  std::string failure;  // Empty when the frame verified.
};

Verified VerifyIntra(const DbgcCodec& codec, const PointCloud& pc,
                     bool with_psnr) {
  Verified v;
  CompressStats stats;
  stats.record_point_mapping = true;
  CompressParams params;
  params.q_xyz = kQ;
  params.info = &stats;
  Result<ByteBuffer> bytes = codec.Compress(pc, params);
  if (!bytes.ok()) {
    v.failure = "compress: " + bytes.status().ToString();
    return v;
  }
  Result<PointCloud> decoded = codec.Decompress(bytes.value());
  if (!decoded.ok()) {
    v.failure = "decompress: " + decoded.status().ToString();
    return v;
  }
  Result<ErrorStats> error =
      dbgc::MappedError(pc, decoded.value(), stats.point_mapping);
  if (!error.ok()) {
    v.failure = "point mapping: " + error.status().ToString();
    return v;
  }
  v.hash = Hash(bytes.value());
  v.bytes = bytes.value().size();
  v.decoded = decoded.value().size();
  v.has_error = true;
  v.error = error.value();
  v.has_psnr = with_psnr;
  if (with_psnr) v.psnr = dbgc::D1Psnr(pc, decoded.value());
  if (v.decoded != pc.size()) {
    v.failure = "decoded " + std::to_string(v.decoded) + " of " +
                std::to_string(pc.size()) + " points";
  } else if (v.error.max_euclidean > kSqrt3 * kQ * kBoundSlack) {
    v.failure = "Euclidean error " + std::to_string(v.error.max_euclidean) +
                " m exceeds sqrt(3) q";
  }
  return v;
}

/// Encodes and decodes one drive in stream order from a fresh state and
/// checks every frame: I-frames keep every point, P-frames equal the
/// grid-quantized input (TemporalGridReconstruction). Distortion is
/// measured on the kDistortionFrames.
std::vector<Verified> VerifyDrive(const std::vector<dbgc::StreamFrame>& drive,
                                  const dbgc::TemporalConfig& temporal) {
  std::vector<Verified> out(drive.size());
  dbgc::TemporalEncoder encoder(temporal);
  dbgc::TemporalDecoder decoder;
  CompressParams params;
  params.q_xyz = kQ;
  for (size_t i = 0; i < drive.size(); ++i) {
    Verified& v = out[i];
    const PointCloud& pc = drive[i].cloud;
    Result<ByteBuffer> packet = encoder.EncodeFrame(pc, drive[i].pose, params);
    if (!packet.ok()) {
      v.failure = "encode: " + packet.status().ToString();
      return out;
    }
    Result<PointCloud> decoded = decoder.DecodeFrame(packet.value());
    if (!decoded.ok()) {
      v.failure = "decode: " + decoded.status().ToString();
      return out;
    }
    v.hash = Hash(packet.value());
    v.bytes = packet.value().size();
    v.predicted = packet.value()[0] == dbgc::kTemporalFramePredicted;
    v.decoded = decoded.value().size();
    if (v.predicted) {
      Result<PointCloud> grid =
          dbgc::TemporalGridReconstruction(pc, kQ, temporal.sensor);
      if (!grid.ok() || grid.value().points() != decoded.value().points()) {
        v.failure = "P-frame differs from TemporalGridReconstruction";
      }
    } else if (v.decoded != pc.size()) {
      v.failure = "I-frame decoded " + std::to_string(v.decoded) + " of " +
                  std::to_string(pc.size()) + " points";
    }
    if (std::find(std::begin(kDistortionFrames), std::end(kDistortionFrames),
                  i) != std::end(kDistortionFrames)) {
      v.has_error = v.has_psnr = true;
      v.error = dbgc::NearestNeighborError(pc, decoded.value());
      v.psnr = dbgc::D1Psnr(pc, decoded.value());
      if (!v.predicted && v.error.max_euclidean > kSqrt3 * kQ * kBoundSlack) {
        v.failure = "I-frame nearest-neighbour error exceeds sqrt(3) q";
      }
    }
  }
  return out;
}

/// Checks one verified frame and adds it to the corpus quality.
void AddVerified(const Verified& v, size_t points, const std::string& where,
                 Quality* quality, Report* report) {
  report->Check(v.failure.empty(), where + ": " + v.failure);
  quality->AddFrame(v.predicted, points, v.decoded, v.bytes);
  if (v.has_error) quality->AddError(v.predicted, v.error);
  if (v.has_psnr) quality->AddPsnr(v.predicted, v.psnr);
}

/// One timed encode + decode, and in a traced run the stage breakdown of
/// each call.
struct TimedPair {
  Interval enc, dec;
  StageSeconds enc_stages{}, dec_stages{};
};

/// Accounts timed frame `n`: the codec workloads are one stream, and a
/// frame is delivered when both outputs match the verified ones. A traced
/// run also adds its stage times, its CompressStats (intra-coded frames
/// only) and its spans.
void Account(const RunConfig& config, uint64_t n, const TimedPair& t,
             const Verified& v, bool ok, size_t points, size_t decoded,
             const CompressStats& stats, Measured* m, Report* report,
             SpanLog* spans) {
  ++report->attempted;
  m->tally.AddEncode(v.predicted, t.enc.seconds());
  if (ok) {
    m->tally.Deliver(0, v.predicted, t.dec.end - t.enc.start,
                     t.dec.seconds(), t.dec.start - t.enc.end);
  } else {
    ++report->failed;
    report->Check(false, "timed frame " + std::to_string(n) +
                             " differs from its verified encode/decode");
  }
  if (!config.traced) return;
  m->layers.AddEncode(t.enc_stages, points, t.enc.seconds());
  m->layers.AddDecode(t.dec_stages, decoded);
  if (!v.predicted) m->layers.AddStats(stats, points);
  const int64_t id = static_cast<int64_t>(n);
  const int frame = spans->Add("frame", t.enc.start, t.dec.end, -1, id);
  spans->Add(v.predicted ? "encode_p" : "encode", t.enc.start, t.enc.end,
             frame, id);
  spans->Add(v.predicted ? "decode_p" : "decode", t.dec.start, t.dec.end,
             frame, id);
}

}  // namespace

Measured RunIntra(const RunConfig& config, size_t stride, Report* report,
                  SpanLog* spans) {
  Measured m(1);
  dbgc::ThreadPool pool(kMaxThreads - 1);

  // --- Set-up: the corpus and the codec. ---
  std::vector<PointCloud> frames;
  std::optional<DbgcCodec> codec;
  double gen_seconds = 0.0;
  const int setup_span = spans->Open("setup", -1, -1);
  m.setup_s = TimedSetups([&] {
    frames.clear();
    codec.reset();
    const double start = Now();
    frames = GenerateFrames(pool, dbgc::SceneType::kUrban, kIntraFrames,
                            stride);
    gen_seconds = Now() - start;
    codec.emplace();
  });
  spans->Close(setup_span);
  m.gen_ms_per_frame = 1e3 * gen_seconds / static_cast<double>(kIntraFrames);

  // --- Verification (untimed): bound, kept points, reference hashes. ---
  const int verify_span = spans->Open("verify", -1, -1);
  std::vector<Verified> verified(frames.size());
  ParallelFor(pool, frames.size(), [&](size_t i) {
    verified[i] = VerifyIntra(*codec, frames[i], i % kPsnrStride == 0);
  });
  spans->Close(verify_span);
  for (size_t i = 0; i < frames.size(); ++i) {
    AddVerified(verified[i], frames[i].size(), "frame " + std::to_string(i),
                &m.quality, report);
  }

  // --- Measured phase. ---
  std::mt19937_64 order(config.seed);
  const double start = Now();
  uint64_t n = 0;
  while (Now() - start < config.seconds) {
    for (size_t i : Shuffled(frames.size(), order)) {
      MoveToAnotherCpu();
      const PointCloud& pc = frames[i];
      CompressStats stats;
      CompressParams params;
      params.q_xyz = kQ;
      if (config.traced) params.info = &stats;
      TimedPair t;
      Result<ByteBuffer> bytes = ByteBuffer();
      t.enc = TimeCall(config.traced, &t.enc_stages,
                       [&] { bytes = codec->Compress(pc, params); });
      Result<PointCloud> decoded = PointCloud();
      t.dec = TimeCall(config.traced, &t.dec_stages, [&] {
        if (bytes.ok()) decoded = codec->Decompress(bytes.value());
      });
      const bool ok = bytes.ok() && decoded.ok() &&
                      Hash(bytes.value()) == verified[i].hash &&
                      decoded.value().size() == verified[i].decoded;
      Account(config, n++, t, verified[i], ok, pc.size(),
              decoded.ok() ? decoded.value().size() : 0, stats, &m, report,
              spans);
    }
  }
  m.tally.measured_s = Now() - start;
  return m;
}

Measured RunTemporal(const RunConfig& config, Report* report,
                     SpanLog* spans) {
  Measured m(1);
  dbgc::ThreadPool pool(kMaxThreads - 1);
  dbgc::TemporalConfig temporal;
  temporal.keyframe_interval = kKeyframeInterval;

  // --- Set-up: the drives (one world each, generated in parallel), the
  // encoder and the decoder. ---
  std::vector<std::vector<dbgc::StreamFrame>> drives;
  std::optional<dbgc::TemporalEncoder> encoder;
  std::optional<dbgc::TemporalDecoder> decoder;
  double gen_seconds = 0.0;
  const int setup_span = spans->Open("setup", -1, -1);
  m.setup_s = TimedSetups([&] {
    drives.clear();
    encoder.reset();
    decoder.reset();
    const double start = Now();
    drives.resize(kDrives);
    ParallelFor(pool, kDrives, [&](size_t d) {
      drives[d] = dbgc::SceneGenerator(dbgc::SceneType::kCity, kCorpusSeed + d)
                      .GenerateSequence(kDriveFrames);
    });
    gen_seconds = Now() - start;
    encoder.emplace(temporal);
    decoder.emplace();
  });
  spans->Close(setup_span);
  m.gen_ms_per_frame =
      1e3 * gen_seconds / static_cast<double>(kDrives * kDriveFrames);

  // --- Verification (untimed): every drive in stream order, on the pool. ---
  const int verify_span = spans->Open("verify", -1, -1);
  std::vector<std::vector<Verified>> verified(kDrives);
  ParallelFor(pool, kDrives, [&](size_t d) {
    verified[d] = VerifyDrive(drives[d], temporal);
  });
  spans->Close(verify_span);
  for (size_t d = 0; d < kDrives; ++d) {
    for (size_t i = 0; i < kDriveFrames; ++i) {
      AddVerified(verified[d][i], drives[d][i].cloud.size(),
                  "drive " + std::to_string(d) + " frame " + std::to_string(i),
                  &m.quality, report);
    }
  }

  // --- Measured phase: each drive from a keyframe on a fresh encoder and
  // decoder state. ---
  std::mt19937_64 order(config.seed);
  CompressParams params;
  params.q_xyz = kQ;
  const double start = Now();
  uint64_t n = 0;
  while (Now() - start < config.seconds) {
    for (size_t d : Shuffled(kDrives, order)) {
      encoder->Reset();
      decoder->Reset();
      for (size_t i = 0; i < kDriveFrames; ++i) {
        MoveToAnotherCpu();
        const dbgc::StreamFrame& frame = drives[d][i];
        const Verified& v = verified[d][i];
        CompressStats stats;
        CompressParams frame_params = params;
        if (config.traced) frame_params.info = &stats;
        TimedPair t;
        Result<ByteBuffer> packet = ByteBuffer();
        t.enc = TimeCall(config.traced, &t.enc_stages, [&] {
          packet = encoder->EncodeFrame(frame.cloud, frame.pose, frame_params);
        });
        Result<PointCloud> decoded = PointCloud();
        t.dec = TimeCall(config.traced, &t.dec_stages, [&] {
          if (packet.ok()) decoded = decoder->DecodeFrame(packet.value());
        });
        const bool ok = packet.ok() && decoded.ok() &&
                        Hash(packet.value()) == v.hash &&
                        decoded.value().size() == v.decoded;
        Account(config, n++, t, v, ok, frame.cloud.size(),
                decoded.ok() ? decoded.value().size() : 0, stats, &m, report,
                spans);
      }
    }
  }
  m.tally.measured_s = Now() - start;
  return m;
}

}  // namespace dbgc_bench
