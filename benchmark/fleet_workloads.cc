// The fleet workloads: an open-loop load of N sensor sessions at 10 Hz
// into one SessionManager (3 pool workers, in-flight budget 6, store 4).
// One generator thread (the main thread) submits every frame at its due
// time; with the 3 workers the process runs 4 threads. Given 4 CPUs, the
// generator has a core of its own and spins between frames, so it submits
// on time even when the workers keep the other cores busy.
//
// No encode runs while the load runs: each corpus frame is pre-encoded in
// set-up at all three DegradeLevel variants by a DbgcClient, and a session
// applies every ack's advised level by sending the matching variant next.
// Latency runs from a frame's due time to its on_frame_done callback, so
// generator lateness and every wait on the server count.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/error_metrics.h"
#include "net/client.h"
#include "net/frame_protocol.h"
#include "net/session.h"
#include "obs/metrics.h"

namespace dbgc_bench {

using dbgc::AdmitVerdict;
using dbgc::ByteBuffer;
using dbgc::DegradeLevel;
using dbgc::PointCloud;
using dbgc::Result;

namespace {

/// Distinct sensor frames: the corpus every session draws from.
constexpr size_t kFleetFrames = 8;
constexpr size_t kLevels = 3;  // DegradeLevel: none, coarser_quant, cheap.
constexpr int kWorkers = kMaxThreads - 1;
constexpr size_t kBudget = 6;
constexpr size_t kStoreCapacity = 4;
constexpr double kMaxWarmupS = 2.0;
/// A run whose generator is this late at p95 measured the generator.
constexpr double kMaxGeneratorLagS = 1e-3;
/// How often a pool worker moves to another core (see MoveToAnotherCpu).
constexpr double kWorkerMoveS = 1.0;

/// One pre-encoded frame at one degradation level, and what the
/// verification pass found about it.
struct Variant {
  ByteBuffer payload;  // The codec bitstream the client put on the wire.
  double compress_seconds = 0.0;
  size_t decoded = 0;
  dbgc::ErrorStats error;
  double psnr = 0.0;
  dbgc::CompressStats stats;
  std::string failure;
};

/// One submitted frame. The generator writes the submit fields, one pool
/// thread the completion fields; both are read after Drain().
struct Slot {
  bool submitted = false;
  double due = 0.0;
  double submit = 0.0;
  double acked = 0.0;
  size_t frame = 0;
  size_t level = 0;
  AdmitVerdict verdict = AdmitVerdict::kAccepted;
  DegradeLevel advised = DegradeLevel::kNone;

  bool done = false;
  bool ok = false;
  size_t points = 0;
  double done_at = 0.0;
  double decode_seconds = 0.0;
};

/// The DbgcClient degradation ladder, restated so the verification pass can
/// re-encode with a point mapping. The pass checks that these options
/// reproduce the client's bytes exactly.
dbgc::DbgcOptions VariantOptions(size_t level) {
  dbgc::DbgcOptions options;
  if (level >= 1) options.q_xyz *= 2.0;
  if (level >= 2) options.forced_dense_fraction = 1.0;
  return options;
}

void Verify(const PointCloud& pc, size_t level, bool with_psnr, Variant* v) {
  if (!v->failure.empty()) return;
  const dbgc::DbgcCodec server_codec;  // Streams are self-describing.
  Result<PointCloud> decoded = server_codec.Decompress(v->payload);
  if (!decoded.ok()) {
    v->failure = "decompress: " + decoded.status().ToString();
    return;
  }
  const dbgc::DbgcOptions options = VariantOptions(level);
  dbgc::CompressStats stats;
  stats.record_point_mapping = true;
  dbgc::CompressParams params;
  params.q_xyz = options.q_xyz;
  params.info = &stats;
  Result<ByteBuffer> again = dbgc::DbgcCodec(options).Compress(pc, params);
  if (!again.ok() || !(again.value() == v->payload)) {
    v->failure = "variant options do not reproduce the client's bytes";
    return;
  }
  Result<dbgc::ErrorStats> error =
      dbgc::MappedError(pc, decoded.value(), stats.point_mapping);
  if (!error.ok()) {
    v->failure = "point mapping: " + error.status().ToString();
    return;
  }
  v->decoded = decoded.value().size();
  v->error = error.value();
  if (with_psnr) v->psnr = dbgc::D1Psnr(pc, decoded.value());
  std::vector<uint32_t>().swap(stats.point_mapping);  // Kept per variant.
  v->stats = stats;
  if (v->decoded != pc.size()) {
    v->failure = "decoded " + std::to_string(v->decoded) + " of " +
                 std::to_string(pc.size()) + " points";
  } else if (v->error.max_euclidean >
             kSqrt3 * options.q_xyz * kBoundSlack) {
    v->failure = "Euclidean error exceeds sqrt(3) q of the variant";
  }
}

/// Returns at `when`. With a core of its own (`spin`) the generator spins
/// rather than sleeps: on a shared host an idle virtual CPU can take
/// milliseconds to wake, which made it late. Without one, spinning would
/// take a core from the workers, so it sleeps.
void WaitUntil(double when, bool spin) {
  if (!spin) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(when))));
  }
  while (Now() < when) {
  }
}

/// Counters the fleet publishes, summed over label values.
struct FleetCounters {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t decoded = 0;
  uint64_t decode_errors = 0;

  static FleetCounters Read() {
    const dbgc::obs::MetricsRegistry& registry =
        dbgc::obs::MetricsRegistry::Global();
    FleetCounters c;
    c.accepted = registry.CounterValue("fleet_frames_accepted_total");
    c.rejected = registry.SumCountersWithPrefix("fleet_rejected_total");
    c.decoded = registry.CounterValue("fleet_decoded_total");
    c.decode_errors = registry.SumCountersWithPrefix("decode_error_total");
    return c;
  }
};

}  // namespace

Measured RunFleet(const RunConfig& config, int sessions, Report* report,
                  SpanLog* spans) {
  const size_t num_sessions = static_cast<size_t>(sessions);
  Measured m(num_sessions);
  const double warmup = std::min(kMaxWarmupS, 0.2 * config.seconds);
  const size_t per_session =
      static_cast<size_t>(std::ceil((warmup + config.seconds) /
                                    kFramePeriodS)) +
      1;

  // Declared before the manager: the pool and the completion slots must
  // outlive it, since its destructor drains callbacks that write slots.
  dbgc::ThreadPool pool(kWorkers);
  std::vector<Slot> slots(num_sessions * per_session);
  std::map<uint64_t, size_t> session_index;  // Read-only once frames flow.

  // --- Set-up: the corpus, its pre-encoded variants, the server. ---
  std::vector<PointCloud> frames;
  std::vector<std::array<Variant, kLevels>> variants;
  std::unique_ptr<dbgc::SessionManager> fleet;
  std::vector<uint64_t> sids;
  StageSeconds encode_stages{};
  double gen_seconds = 0.0;
  const int setup_span = spans->Open("setup", -1, -1);
  m.setup_s = TimedSetups([&] {
    fleet.reset();
    sids.clear();
    session_index.clear();
    variants.clear();
    frames.clear();
    const double start = Now();
    frames = GenerateFrames(pool, dbgc::SceneType::kCity, kFleetFrames, 1);
    gen_seconds = Now() - start;

    variants.resize(kFleetFrames);
    const StageSeconds before = RegistryStageSeconds();
    ParallelFor(pool, kFleetFrames * kLevels, [&](size_t j) {
      const size_t f = j / kLevels, level = j % kLevels;
      Variant& v = variants[f][level];
      dbgc::DbgcClient client{dbgc::DbgcOptions()};
      dbgc::FrameAck ack;
      ack.degrade = static_cast<DegradeLevel>(level);
      client.ApplyAck(ack);
      dbgc::ClientFrameReport client_report;
      Result<ByteBuffer> wire = client.ProcessFrame(frames[f], &client_report);
      Result<dbgc::Frame> parsed =
          wire.ok() ? dbgc::FrameProtocol::Parse(wire.value())
                    : Result<dbgc::Frame>(wire.status());
      if (!parsed.ok()) {
        v.failure = "pre-encode: " + parsed.status().ToString();
        return;
      }
      v.payload = std::move(parsed).value().payload;
      v.compress_seconds = client_report.compress_seconds;
    });
    encode_stages = Minus(RegistryStageSeconds(), before);

    dbgc::FleetConfig fleet_config;
    fleet_config.pool = &pool;
    fleet_config.max_sessions = num_sessions;
    fleet_config.global_inflight_budget = kBudget;
    fleet_config.session_store_capacity = kStoreCapacity;
    fleet_config.on_frame_done = [&](const dbgc::FleetFrameReport& r) {
      const double now = Now();
      const auto it = session_index.find(r.session_id);
      if (it == session_index.end() || r.frame_id >= per_session) return;
      Slot& slot = slots[it->second * per_session + r.frame_id];
      slot.done_at = now;
      slot.ok = r.ok;
      slot.points = r.num_points;
      slot.decode_seconds = r.decode_seconds;
      slot.done = true;
      // Under overload the workers never sleep, so the scheduler would keep
      // each on one core for the whole run. Move each about once a second,
      // which spreads it over the cores but the generator's.
      static thread_local double next_move = 0.0;
      if (now >= next_move) {
        MoveToAnotherCpu();
        next_move = now + kWorkerMoveS;
      }
    };
    fleet = std::make_unique<dbgc::SessionManager>(fleet_config);
    for (size_t s = 0; s < num_sessions; ++s) {
      Result<uint64_t> sid = fleet->OpenSession("sensor-" + std::to_string(s));
      report->Check(sid.ok(), "OpenSession failed");
      sids.push_back(sid.ok() ? sid.value() : 0);
      session_index[sids.back()] = s;
    }
  });
  spans->Close(setup_span);
  m.gen_ms_per_frame = 1e3 * gen_seconds / static_cast<double>(kFleetFrames);

  // --- Verification (untimed): every variant decodes to its source point
  // count within its own bound, and the ladder matches the client's. The
  // corpus quality is that of the full-quality variants. ---
  const int verify_span = spans->Open("verify", -1, -1);
  ParallelFor(pool, kFleetFrames * kLevels, [&](size_t j) {
    const size_t f = j / kLevels, level = j % kLevels;
    Verify(frames[f], level, level == 0 && f % kPsnrStride == 0,
           &variants[f][level]);
  });
  spans->Close(verify_span);
  for (size_t f = 0; f < kFleetFrames; ++f) {
    for (size_t level = 0; level < kLevels; ++level) {
      const Variant& v = variants[f][level];
      report->Check(v.failure.empty(),
                    "fleet frame " + std::to_string(f) + " level " +
                        std::to_string(level) + ": " + v.failure);
      m.tally.AddEncode(false, v.compress_seconds);
      if (config.traced) m.layers.AddStats(v.stats, frames[f].size());
    }
    const Variant& full = variants[f][0];
    m.quality.AddFrame(false, frames[f].size(), full.decoded,
                       full.payload.size());
    m.quality.AddError(false, full.error);
    if (f % kPsnrStride == 0) m.quality.AddPsnr(false, full.psnr);
  }
  if (!report->correct()) return m;

  // --- Measured phase: open loop; the first `warmup` seconds are not
  // measured. Frame k of session s is due at t0 + (k + s / N) * period and
  // is corpus frame (offset_s + k) mod kFleetFrames, offset_s drawn from
  // --seed. ---
  std::mt19937_64 order(config.seed);
  std::vector<size_t> offset(num_sessions);
  for (size_t& o : offset) o = order() % kFleetFrames;
  const FleetCounters counters_before = FleetCounters::Read();
  const StageSeconds decode_before = RegistryStageSeconds();
  std::vector<size_t> level(num_sessions, 0);
  // The generator gets a core of its own; each worker leaves it at its
  // first completion, within the warm-up.
  const bool spin = ReserveCpu();
  const double t0 = Now() + 0.05;
  const double measure_from = t0 + warmup;
  const double end = measure_from + config.seconds;
  for (size_t k = 0; k < per_session; ++k) {
    for (size_t s = 0; s < num_sessions; ++s) {
      const double due =
          t0 + kFramePeriodS * (static_cast<double>(k) +
                                static_cast<double>(s) /
                                    static_cast<double>(num_sessions));
      if (due >= end) continue;
      WaitUntil(due, spin);
      Slot& slot = slots[s * per_session + k];
      slot.due = due;
      slot.submit = Now();
      slot.frame = (offset[s] + k) % kFleetFrames;
      slot.level = level[s];
      dbgc::Frame frame;
      frame.frame_id = k;
      frame.payload = variants[slot.frame][slot.level].payload;
      const dbgc::FrameAck ack =
          fleet->SubmitFrame(sids[s], dbgc::FrameProtocol::Serialize(frame));
      slot.acked = Now();
      slot.verdict = ack.verdict;
      slot.advised = ack.degrade;
      slot.submitted = true;
      level[s] = static_cast<size_t>(ack.degrade);
    }
  }
  report->Check(fleet->Drain().ok(), "Drain failed");
  const StageSeconds decode_stages =
      Minus(RegistryStageSeconds(), decode_before);
  const FleetCounters counters_after = FleetCounters::Read();

  // --- Accounting. Whole-run counts are cross-checked against the
  // registry; the metrics use the frames due in the measured window. ---
  uint64_t all_accepted = 0, all_rejected = 0, all_decoded = 0;
  double all_decoded_points = 0.0;
  Samples lag_ms, admit_us;
  m.tally.decode_threads = kWorkers;
  m.tally.measured_s = config.seconds;
  for (size_t s = 0; s < num_sessions; ++s) {
    for (size_t k = 0; k < per_session; ++k) {
      const Slot& slot = slots[s * per_session + k];
      if (!slot.submitted) continue;
      const bool admitted = slot.verdict == AdmitVerdict::kAccepted;
      all_accepted += admitted ? 1 : 0;
      all_rejected += admitted ? 0 : 1;
      if (slot.done && slot.ok) {
        ++all_decoded;
        all_decoded_points += static_cast<double>(slot.points);
      }
      report->Check(slot.done == admitted,
                    "frame completion does not match its admission verdict");
      if (slot.due < measure_from) continue;

      ++report->attempted;
      lag_ms.Add(1e3 * (slot.submit - slot.due));
      admit_us.Add(1e6 * (slot.acked - slot.submit));
      m.tally.advised_coarse += slot.advised == DegradeLevel::kCoarserQuant;
      m.tally.advised_cheap += slot.advised == DegradeLevel::kCheapCodec;
      if (!admitted) {
        m.tally.refused_budget +=
            slot.verdict == AdmitVerdict::kRejectedGlobalBudget;
        m.tally.refused_share +=
            slot.verdict == AdmitVerdict::kRejectedSessionShare;
        continue;
      }
      if (!slot.ok || slot.points != frames[slot.frame].size()) {
        ++report->failed;
        report->Check(false, "accepted frame did not decode to its source "
                             "point count");
        continue;
      }
      const double latency = slot.done_at - slot.due;
      m.tally.Deliver(s, false, latency, slot.decode_seconds,
                      latency - slot.decode_seconds);
    }
  }

  // The benchmark's counts and the server's, over the same frames.
  report->Check(counters_after.accepted - counters_before.accepted ==
                    all_accepted,
                "fleet_frames_accepted_total disagrees with the acks");
  report->Check(counters_after.rejected - counters_before.rejected ==
                    all_rejected,
                "fleet_rejected_total disagrees with the acks");
  report->Check(counters_after.decoded - counters_before.decoded ==
                    all_decoded,
                "fleet_decoded_total disagrees with the completions");
  report->Check(counters_after.decode_errors == counters_before.decode_errors,
                "decode_error_total moved");
  report->Check(lag_ms.Quantile(0.95) <= 1e3 * kMaxGeneratorLagS,
                "generator p95 lateness exceeds 1 ms; the run measured the "
                "generator, not the server");

  std::printf("fleet: %d sessions x %.0f Hz, %.1f s warm-up, %zu frames per "
              "session slot\n",
              sessions, 1.0 / kFramePeriodS, warmup, per_session);
  std::printf("generator lateness: p95 %.3f ms, max %.3f ms; SubmitFrame: "
              "p50 %.1f us, p95 %.1f us\n",
              lag_ms.Quantile(0.95), lag_ms.Quantile(1.0),
              admit_us.Quantile(0.50), admit_us.Quantile(0.95));
  std::printf("goodput: %.1f frames/s decoded\n",
              m.tally.frames[0] / config.seconds);

  if (!config.traced) return m;
  // Encode-side layers describe the set-up pre-encode of every variant;
  // decode-side layers the server's decodes over the whole run.
  double corpus_points = 0.0;
  for (const PointCloud& pc : frames) {
    corpus_points += static_cast<double>(pc.size());
  }
  m.layers.AddEncode(encode_stages,
                     static_cast<size_t>(kLevels * corpus_points),
                     m.tally.encode_s[0]);
  m.layers.AddDecode(decode_stages, static_cast<size_t>(all_decoded_points));

  for (size_t s = 0; s < num_sessions; ++s) {
    for (size_t k = 0; k < per_session; ++k) {
      const Slot& slot = slots[s * per_session + k];
      if (!slot.submitted || slot.due < measure_from) continue;
      const int64_t id = static_cast<int64_t>(s * per_session + k);
      const int frame = spans->Add("frame", slot.due,
                                   slot.done ? slot.done_at : slot.acked, -1,
                                   id);
      spans->Add("submit", slot.submit, slot.acked, frame, id);
      if (slot.done) {
        spans->Add("decode", slot.done_at - slot.decode_seconds, slot.done_at,
                   frame, id);
      }
    }
  }
  return m;
}

}  // namespace dbgc_bench
