// Shared pieces of dbgc_bench (benchmark/README.md): run configuration,
// the fixed input corpus, latency samples, what a run measures, the result
// report, the in-memory span log, and the per-stage accounting that turns
// obs::FrameTrace breakdowns and registry histograms into per-layer metrics.
//
// Metric naming is the contract with BENCHMARK.json: a name without a dot
// ("frame_ms_p50") is an end-to-end metric, a name with one
// ("core.spa_ns_per_pt") is a per-layer metric. An untraced run reports
// the first kind, a traced run the second. Every workload reports every
// metric from the same accounting (Measured); a layer that a workload does
// not exercise reads 0.

#ifndef DBGC_BENCHMARK_BENCH_H_
#define DBGC_BENCHMARK_BENCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/point_cloud.h"
#include "common/thread_pool.h"
#include "core/dbgc_codec.h"
#include "core/error_metrics.h"
#include "lidar/scene_generator.h"
#include "obs/trace.h"

namespace dbgc_bench {

/// Per-dimension error bound of every workload (2 cm, the codec default).
inline constexpr double kQ = 0.02;
/// Capture period of the HDL-64E at 10 Hz: each fleet sensor's send period.
inline constexpr double kFramePeriodS = 0.1;
/// Threads one benchmark process may run at once, so a run fits 4 cores.
inline constexpr int kMaxThreads = 4;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
/// D1 PSNR costs a k-d tree search per point, so it is measured on every
/// kPsnrStride-th corpus frame only.
inline constexpr size_t kPsnrStride = 3;
/// The Euclidean bound the intra codec guarantees: sqrt(3) * q, with room
/// for floating-point rounding.
inline constexpr double kSqrt3 = 1.7320508075688772;
inline constexpr double kBoundSlack = 1.0 + 1e-6;
/// SceneGenerator seed of every workload's corpus. The corpus is fixed, so
/// the size and distortion metrics are exact and equal in every run and
/// their bounds can be tight; --seed only orders the corpus.
inline constexpr uint64_t kCorpusSeed = 20230316;

/// One invocation of a workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = kCorpusSeed;  ///< Orders the corpus (see kCorpusSeed).
  double seconds = 10.0;        ///< Length of the measured phase.
  bool traced = false;          ///< Per-layer run: stage breakdowns, spans.
};

/// Seconds on the steady clock.
double Now();

/// a / b, or 0 when b is 0 (an empty denominator means nothing happened).
inline double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Records the start of main() and the CPUs the process may run on;
/// ProcessStart() returns the start (Now() seconds).
void MarkProcessStart();
double ProcessStart();

/// Moves the calling thread off its CPU, to an idle one the scheduler
/// picks among the others allowed. On a shared host a core runs slower, by
/// up to half, for seconds at a time while another tenant uses its
/// hardware sibling. A busy thread stays on its core, so a run could spend
/// all its frames on a slow one. The codec workloads call this before every
/// timed frame and the fleet's workers about once a second, which spreads
/// each run over every core.
void MoveToAnotherCpu();

/// Gives the calling thread a CPU of its own: pins it to the last CPU the
/// process may use and takes that CPU out of the set MoveToAnotherCpu moves
/// threads within, so a thread that moves never lands on it. Does nothing
/// and returns false when fewer than kMaxThreads CPUs are allowed, since
/// the other threads then need every one. Call it before other threads call
/// MoveToAnotherCpu.
bool ReserveCpu();

/// Latency (or any) sample with linear-interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Quantile q in [0, 1]; 0 for an empty sample.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// What the verification pass measured on the corpus: compressed size and
/// distortion. A pure function of the corpus and the code, so it is the
/// same in every run. Index 0 of each pair is intra-coded frames, index 1
/// temporal P-frames.
struct Quality {
  void AddFrame(bool predicted, size_t points, size_t decoded, size_t bytes);
  /// Errors of a frame; max_err_over_q covers the intra-coded ones, which
  /// carry the point-wise sqrt(3) q bound.
  void AddError(bool predicted, const dbgc::ErrorStats& error);
  void AddPsnr(bool predicted, double psnr);

  double points = 0.0;   ///< Input points of the corpus.
  double decoded = 0.0;  ///< Decoded points.
  std::array<double, 2> frames{}, kind_points{}, bits{};
  std::array<double, 2> psnr_sum{}, psnr_frames{}, max_err{};
  double max_per_dim = 0.0;  ///< Of the intra-coded frames.
};

/// What the measured phase accumulates over the frames it offered. Every
/// timed call is one latency sample.
struct Tally {
  explicit Tally(size_t streams) : delivered(streams, 0.0) {}
  /// An encode that was timed (fleet: the set-up pre-encodes).
  void AddEncode(bool predicted, double seconds);
  /// A frame that arrived decoded and matched its verified result:
  /// `frame_s` from availability (fleet: due time) to decoded, and the part
  /// of it spent neither encoding nor decoding.
  void Deliver(size_t stream, bool predicted, double frame_s,
               double decode_s, double wait_s);

  Samples frame_ms, decode_ms, encode_ms, wait_ms;
  std::vector<double> delivered;  ///< Per stream (fleet session).
  uint64_t refused_budget = 0, refused_share = 0;
  uint64_t advised_coarse = 0, advised_cheap = 0;
  /// Delivered frames, and encode and decode seconds, by frame kind.
  std::array<double, 2> frames{}, encode_s{}, decode_s{};
  double decode_threads = 1.0;
  double measured_s = 0.0;
};

/// Seconds per obs::Stage.
using StageSeconds = std::array<double, dbgc::obs::kStageCount>;

StageSeconds BreakdownSeconds(const dbgc::obs::FrameBreakdown& breakdown);
/// The process-wide stage_seconds{stage=...} sums: every span closed on any
/// thread so far. Deltas of two snapshots give the stage time of work run
/// on threads a FrameTrace cannot see (pool workers, nested traces).
StageSeconds RegistryStageSeconds();
StageSeconds Minus(const StageSeconds& a, const StageSeconds& b);

/// Per-layer totals of a traced run: stage seconds on the encode and decode
/// sides and the CompressStats of the intra-coded frames.
struct LayerTotals {
  StageSeconds encode{};
  StageSeconds decode{};
  double encode_points = 0.0;   ///< Input points of every encode timed.
  double decode_points = 0.0;   ///< Output points of every decode timed.
  double encode_seconds = 0.0;  ///< Wall time of those encodes.

  double stats_points = 0.0;  ///< Input points of frames with stats.
  double dense = 0.0;
  double sparse = 0.0;
  double outliers = 0.0;
  double polylines = 0.0;
  double bytes_dense = 0.0;
  double bytes_sparse = 0.0;
  double bytes_outlier = 0.0;

  void AddEncode(const StageSeconds& stages, size_t points, double seconds);
  void AddDecode(const StageSeconds& stages, size_t points);
  void AddStats(const dbgc::CompressStats& stats, size_t points);
};

/// Everything one run of a workload measured.
struct Measured {
  explicit Measured(size_t streams) : tally(streams) {}
  double setup_s = 0.0;
  double gen_ms_per_frame = 0.0;  ///< Set-up scene generation, wall time.
  Quality quality;
  Tally tally;
  LayerTotals layers;  ///< Traced runs only.
};

/// The result of one run: metrics, operation counts, and correctness.
class Report {
 public:
  /// Records a metric. Names with a '.' are per-layer, the rest are
  /// end-to-end (see the file comment). `exact` marks a value that is a
  /// pure function of the corpus, so every run must agree on it bit for bit.
  void Set(const std::string& name, double value, const std::string& unit,
           bool exact = false);
  /// Records a correctness check; a failed one makes the run incorrect.
  /// The first few failures are printed to stderr.
  void Check(bool ok, const std::string& what);

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted = 0;  ///< Operations in the measured phase.
  uint64_t failed = 0;     ///< Of those, operations that errored.

  /// Prints every metric with its unit, one per line.
  void Print() const;
  /// {"correct", "attempted", "failed", "metrics"} with the end-to-end
  /// metrics (traced == false) or the per-layer ones (traced == true).
  std::string ResultJson(bool traced) const;
  /// Every recorded metric plus run metadata, for benchmark/agree.py.
  std::string FullJson(const RunConfig& config) const;

 private:
  /// {run..., "correct", "attempted", "failed", "metrics"} over the
  /// metrics `include` accepts, or all of them (with "exact" marks) when
  /// it is empty.
  std::string Json(const std::string& run,
                   const std::function<bool(const std::string&)>& include)
      const;

  struct Metric {
    double value;
    std::string unit;
    bool exact;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t check_failures_ = 0;
};

/// Sets every end-to-end metric of `m` but peak_rss_mb, and in a traced
/// run every per-layer metric.
void SetMetrics(const Measured& m, bool traced, Report* report);

/// In-memory spans recorded around the calls the benchmark makes into each
/// layer. Written once at exit; single-threaded (the fleet workload records
/// its spans after the run, from per-frame slots).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Records a finished span [start, end] (Now() seconds). Returns its id,
  /// or -1 when the log is disabled.
  int Add(const char* name, double start, double end, int parent,
          int64_t frame);
  /// Opens a span now; Close(id) ends it.
  int Open(const char* name, int parent, int64_t frame);
  void Close(int id);

  /// Writes the spans with their self time (duration minus the part of it
  /// covered by child spans) and the self time summed per span name.
  bool Write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int64_t frame;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Runs fn(i) for every i in [0, n) on `pool` and the calling thread.
void ParallelFor(dbgc::ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// Frames 0..count-1 of SceneGenerator(type, kCorpusSeed), keeping every
/// `stride`-th point, generated in parallel on `pool`.
std::vector<dbgc::PointCloud> GenerateFrames(dbgc::ThreadPool& pool,
                                             dbgc::SceneType type,
                                             size_t count, size_t stride);

/// 0..n-1 in an order drawn from `rng` (Fisher-Yates, so the same on every
/// platform).
std::vector<size_t> Shuffled(size_t n, std::mt19937_64& rng);

/// Runs `setup` kSetupRepeats times and returns the median wall time. The
/// first repetition is timed from process start, so one-off process costs
/// count. `setup` must release what the previous repetition built first.
double TimedSetups(const std::function<void()>& setup);

/// Times fn(); in a traced run also collects the stage breakdown of the
/// spans it closes on this thread.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};
Interval TimeCall(bool traced, StageSeconds* stages,
                  const std::function<void()>& fn);

/// FNV-1a of a byte buffer (the wire checksum of net/frame_protocol).
uint64_t Hash(const dbgc::ByteBuffer& bytes);

/// Peak resident set size of this process in MB.
double PeakRssMb();

// The workloads (codec_workloads.cc, fleet_workloads.cc). Correctness
// checks and operation counts go to `report`.
Measured RunIntra(const RunConfig& config, size_t stride, Report* report,
                  SpanLog* spans);
Measured RunTemporal(const RunConfig& config, Report* report, SpanLog* spans);
Measured RunFleet(const RunConfig& config, int sessions, Report* report,
                  SpanLog* spans);

}  // namespace dbgc_bench

#endif  // DBGC_BENCHMARK_BENCH_H_
