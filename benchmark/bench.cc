#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "net/frame_protocol.h"
#include "obs/metrics.h"

namespace dbgc_bench {

using dbgc::obs::kStageCount;
using dbgc::obs::Stage;

namespace {

double g_process_start = 0.0;
cpu_set_t g_allowed_cpus;

/// A double with every significant digit, as JSON (non-finite -> null).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

bool IsPerLayer(const std::string& name) {
  return name.find('.') != std::string::npos;
}

double PerPoint(double seconds, double points) {
  return points > 0 ? 1e9 * seconds / points : 0.0;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MarkProcessStart() {
  g_process_start = Now();
  CPU_ZERO(&g_allowed_cpus);
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) != 0) {
    CPU_ZERO(&g_allowed_cpus);
  }
}

double ProcessStart() { return g_process_start; }

void MoveToAnotherCpu() {
  cpu_set_t others = g_allowed_cpus;
  const int here = sched_getcpu();
  if (here >= 0 && here < CPU_SETSIZE) CPU_CLR(here, &others);
  // With no other CPU allowed, stay. Leaving the current CPU out of the
  // mask moves the thread at once; the full mask is then restored, so the
  // scheduler stays free to place it. A failed call leaves the thread where
  // it is, which costs only the spreading.
  if (CPU_COUNT(&others) == 0) return;
  if (sched_setaffinity(0, sizeof(others), &others) != 0) return;
  sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
}

bool ReserveCpu() {
  if (CPU_COUNT(&g_allowed_cpus) < kMaxThreads) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &g_allowed_cpus)) last = cpu;
  }
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(last, &mine);
  if (sched_setaffinity(0, sizeof(mine), &mine) != 0) return false;
  CPU_CLR(last, &g_allowed_cpus);
  return true;
}

// --- Samples ---------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// --- Quality and Tally -----------------------------------------------------

void Quality::AddFrame(bool predicted, size_t points_in, size_t decoded_out,
                       size_t bytes) {
  const size_t k = predicted ? 1 : 0;
  points += static_cast<double>(points_in);
  decoded += static_cast<double>(decoded_out);
  frames[k] += 1.0;
  kind_points[k] += static_cast<double>(points_in);
  bits[k] += 8.0 * static_cast<double>(bytes);
}

void Quality::AddError(bool predicted, const dbgc::ErrorStats& error) {
  const size_t k = predicted ? 1 : 0;
  max_err[k] = std::max(max_err[k], error.max_euclidean);
  if (!predicted) max_per_dim = std::max(max_per_dim, error.max_per_dim);
}

void Quality::AddPsnr(bool predicted, double psnr) {
  const size_t k = predicted ? 1 : 0;
  psnr_sum[k] += psnr;
  psnr_frames[k] += 1.0;
}

void Tally::AddEncode(bool predicted, double seconds) {
  encode_ms.Add(1e3 * seconds);
  encode_s[predicted ? 1 : 0] += seconds;
}

void Tally::Deliver(size_t stream, bool predicted, double frame_s,
                    double decode_seconds, double wait_s) {
  const size_t k = predicted ? 1 : 0;
  delivered[stream] += 1.0;
  frame_ms.Add(1e3 * frame_s);
  decode_ms.Add(1e3 * decode_seconds);
  wait_ms.Add(1e3 * wait_s);
  frames[k] += 1.0;
  decode_s[k] += decode_seconds;
}

// --- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, bool exact) {
  metrics_[name] = Metric{value, unit, exact};
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (check_failures_ < 10) {
    std::fprintf(stderr, "dbgc_bench: check failed: %s\n", what.c_str());
  }
  ++check_failures_;
}

void Report::Print() const {
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string Report::ResultJson(bool traced) const {
  return Json("", [traced](const std::string& name) {
    return IsPerLayer(name) == traced;
  });
}

std::string Report::FullJson(const RunConfig& config) const {
  const std::string run =
      "\"workload\": " + JsonString(config.workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + JsonNumber(config.seconds) +
      ", \"trace\": " + std::to_string(config.traced ? 1 : 0) +
      ", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) + ", ";
  return Json(run, nullptr);
}

std::string Report::Json(
    const std::string& run,
    const std::function<bool(const std::string&)>& include) const {
  std::string out = "{" + run + "\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (include && !include(name)) continue;
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit);
    // The result line keeps exactly {value, unit}; only the full record
    // marks the seed-determined values.
    if (!include && metric.exact) out += ", \"exact\": true";
    out += "}";
  }
  out += "}}";
  return out;
}

// --- SpanLog ---------------------------------------------------------------

int SpanLog::Add(const char* name, double start, double end, int parent,
                 int64_t frame) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, frame});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::Open(const char* name, int parent, int64_t frame) {
  const double now = Now();
  return Add(name, now, now, parent, frame);
}

void SpanLog::Close(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
}

bool SpanLog::Write(const std::string& path,
                    const std::string& workload) const {
  // Children per span, then self time = duration minus the union of the
  // child intervals clipped to the parent.
  std::vector<std::vector<int>> children(spans_.size());
  double origin = spans_.empty() ? 0.0 : spans_[0].start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    origin = std::min(origin, spans_[i].start);
    const int parent = spans_[i].parent;
    if (parent >= 0) children[static_cast<size_t>(parent)].push_back(
        static_cast<int>(i));
  }
  std::vector<double> self(spans_.size());
  std::map<std::string, double> self_by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> covered;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      const double lo = std::max(s.start, child.start);
      const double hi = std::min(s.end, child.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) busy += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) busy += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end - s.start) - busy);
    self_by_name[s.name] += self[i];
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto ns = [origin](double t) {
    return static_cast<long long>(std::llround((t - origin) * 1e9));
  };
  std::fprintf(f, "{\"workload\": %s,\n\"spans\": [\n",
               JsonString(workload).c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"frame\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 i, s.name, ns(s.start), ns(s.end), s.parent,
                 static_cast<long long>(s.frame),
                 static_cast<long long>(std::llround(self[i] * 1e9)),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_ms_by_name\": {");
  bool first = true;
  for (const auto& [name, seconds] : self_by_name) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(name).c_str(),
                 JsonNumber(seconds * 1e3).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// --- Stage accounting ------------------------------------------------------

StageSeconds BreakdownSeconds(const dbgc::obs::FrameBreakdown& breakdown) {
  StageSeconds out{};
  for (size_t s = 0; s < kStageCount; ++s) {
    out[s] = breakdown.seconds(static_cast<Stage>(s));
  }
  return out;
}

StageSeconds RegistryStageSeconds() {
  dbgc::obs::MetricsRegistry& registry =
      dbgc::obs::MetricsRegistry::Global();
  StageSeconds out{};
  for (size_t s = 0; s < kStageCount; ++s) {
    out[s] = registry
                 .GetHistogram(dbgc::obs::LabeledName(
                     "stage_seconds",
                     {{"stage", dbgc::obs::StageName(static_cast<Stage>(s))}}))
                 ->SumSeconds();
  }
  return out;
}

StageSeconds Minus(const StageSeconds& a, const StageSeconds& b) {
  StageSeconds out{};
  for (size_t s = 0; s < kStageCount; ++s) out[s] = a[s] - b[s];
  return out;
}

void LayerTotals::AddEncode(const StageSeconds& stages, size_t points,
                            double seconds) {
  for (size_t s = 0; s < kStageCount; ++s) encode[s] += stages[s];
  encode_points += static_cast<double>(points);
  encode_seconds += seconds;
}

void LayerTotals::AddDecode(const StageSeconds& stages, size_t points) {
  for (size_t s = 0; s < kStageCount; ++s) decode[s] += stages[s];
  decode_points += static_cast<double>(points);
}

void LayerTotals::AddStats(const dbgc::CompressStats& stats, size_t points) {
  stats_points += static_cast<double>(points);
  dense += static_cast<double>(stats.num_dense);
  sparse += static_cast<double>(stats.num_sparse);
  outliers += static_cast<double>(stats.num_outliers);
  polylines += static_cast<double>(stats.num_polylines);
  bytes_dense += static_cast<double>(stats.bytes_dense);
  bytes_sparse += static_cast<double>(stats.bytes_sparse);
  bytes_outlier += static_cast<double>(stats.bytes_outlier);
}

// --- Metrics ---------------------------------------------------------------

void SetMetrics(const Measured& m, bool traced, Report* report) {
  const Quality& q = m.quality;
  const Tally& t = m.tally;
  const double offered = static_cast<double>(report->attempted);

  report->Set("setup_s", m.setup_s, "s");
  report->Set("frame_ms_p50", t.frame_ms.Quantile(0.50), "ms");
  report->Set("frame_ms_p95", t.frame_ms.Quantile(0.95), "ms");
  report->Set("decode_ms_p50", t.decode_ms.Quantile(0.50), "ms");
  report->Set("decode_ms_p95", t.decode_ms.Quantile(0.95), "ms");
  double delivered = 0.0;
  double fewest = t.delivered.empty() ? 0.0 : t.delivered[0];
  for (double d : t.delivered) {
    delivered += d;
    fewest = std::min(fewest, d);
  }
  report->Set("accept_share", Ratio(delivered, offered), "share");
  report->Set("session_min_share",
              Ratio(fewest * static_cast<double>(t.delivered.size()),
                    delivered),
              "share");
  // Distortion is measured on some frames of each kind; each kind's mean
  // counts by its share of the corpus.
  double psnr = 0.0, weight = 0.0;
  for (size_t k = 0; k < 2; ++k) {
    if (q.psnr_frames[k] == 0) continue;
    psnr += q.frames[k] * q.psnr_sum[k] / q.psnr_frames[k];
    weight += q.frames[k];
  }
  report->Set("bpp", Ratio(q.bits[0] + q.bits[1], q.points), "bits/pt",
              /*exact=*/true);
  report->Set("d1_psnr_db", Ratio(psnr, weight), "dB", /*exact=*/true);
  report->Set("max_err_over_q", q.max_err[0] / kQ, "ratio", /*exact=*/true);
  report->Set("points_kept", Ratio(q.decoded, q.points), "share",
              /*exact=*/true);
  if (!traced) return;

  const LayerTotals& l = m.layers;
  const auto enc = [&l](Stage s) {
    return PerPoint(l.encode[static_cast<size_t>(s)], l.encode_points);
  };
  const auto dec = [&l](Stage s) {
    return PerPoint(l.decode[static_cast<size_t>(s)], l.decode_points);
  };
  report->Set("lidar.gen_ms_per_frame", m.gen_ms_per_frame, "ms");
  report->Set("cluster.den_ns_per_pt", enc(Stage::kClustering), "ns/pt");
  report->Set("cluster.dense_share", Ratio(l.dense, l.stats_points), "share");
  report->Set("spatial.oct_ns_per_pt", enc(Stage::kOctree), "ns/pt");
  report->Set("spatial.oct_dec_ns_per_pt", dec(Stage::kOctree), "ns/pt");
  report->Set("spatial.dense_bits_per_pt",
              Ratio(8.0 * l.bytes_dense, l.dense), "bits/pt");
  report->Set("core.cor_ns_per_pt", enc(Stage::kConversion), "ns/pt");
  report->Set("core.org_ns_per_pt", enc(Stage::kOrganization), "ns/pt");
  report->Set("core.spa_ns_per_pt", enc(Stage::kSparse), "ns/pt");
  report->Set("core.out_ns_per_pt", enc(Stage::kOutlier), "ns/pt");
  report->Set("core.cor_dec_ns_per_pt", dec(Stage::kConversion), "ns/pt");
  report->Set("core.spa_dec_ns_per_pt", dec(Stage::kSparse), "ns/pt");
  report->Set("core.out_dec_ns_per_pt", dec(Stage::kOutlier), "ns/pt");
  report->Set("core.outlier_share", Ratio(l.outliers, l.stats_points),
              "share");
  report->Set("core.polylines_per_kpt",
              Ratio(1e3 * l.polylines, l.stats_points), "count/kpt");
  report->Set("core.sparse_bits_per_pt",
              Ratio(8.0 * l.bytes_sparse, l.sparse), "bits/pt");
  report->Set("core.outlier_bits_per_pt",
              Ratio(8.0 * l.bytes_outlier, l.outliers), "bits/pt");
  report->Set("core.max_per_dim_over_q", q.max_per_dim / kQ, "ratio");
  report->Set("entropy.ent_ns_per_pt", enc(Stage::kEntropy), "ns/pt");
  report->Set("codec.encode_ms_p50", t.encode_ms.Quantile(0.50), "ms");
  report->Set("codec.encode_ms_p95", t.encode_ms.Quantile(0.95), "ms");
  report->Set("codec.ser_ns_per_pt", enc(Stage::kSerialize), "ns/pt");
  report->Set("codec.dec_ns_per_pt", dec(Stage::kDecode), "ns/pt");
  double spanned = 0.0;
  for (Stage s : {Stage::kClustering, Stage::kOctree, Stage::kConversion,
                  Stage::kOrganization, Stage::kSparse, Stage::kOutlier}) {
    spanned += l.encode[static_cast<size_t>(s)];
  }
  report->Set("codec.untraced_share",
              1.0 - Ratio(spanned, l.encode_seconds), "share");
  const double decode_s = t.decode_s[0] + t.decode_s[1];
  report->Set("codec.decode_busy_share",
              Ratio(decode_s, t.decode_threads * t.measured_s), "share");

  report->Set("temporal.p_share", Ratio(t.frames[1], t.frames[0] + t.frames[1]),
              "share");
  report->Set("temporal.p_encode_share",
              Ratio(t.encode_s[1], t.encode_s[0] + t.encode_s[1]), "share");
  report->Set("temporal.p_decode_share", Ratio(t.decode_s[1], decode_s),
              "share");
  report->Set("temporal.i_bits_per_pt", Ratio(q.bits[0], q.kind_points[0]),
              "bits/pt");
  report->Set("temporal.p_bits_per_pt", Ratio(q.bits[1], q.kind_points[1]),
              "bits/pt");
  report->Set("temporal.p_max_err_over_q", q.max_err[1] / kQ, "ratio");

  report->Set("net.wait_ms_p50", t.wait_ms.Quantile(0.50), "ms");
  report->Set("net.wait_ms_p95", t.wait_ms.Quantile(0.95), "ms");
  const auto share = [offered](uint64_t n) {
    return Ratio(static_cast<double>(n), offered);
  };
  report->Set("net.reject_budget_share", share(t.refused_budget), "share");
  report->Set("net.reject_session_share", share(t.refused_share), "share");
  report->Set("net.coarse_share", share(t.advised_coarse), "share");
  report->Set("net.cheap_share", share(t.advised_cheap), "share");
}

// --- Helpers ---------------------------------------------------------------

void ParallelFor(dbgc::ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  const dbgc::Status status =
      pool.ParallelFor(0, n, 1, [&fn](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) fn(i);
      });
  if (!status.ok()) {
    std::fprintf(stderr, "dbgc_bench: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

std::vector<dbgc::PointCloud> GenerateFrames(dbgc::ThreadPool& pool,
                                             dbgc::SceneType type,
                                             size_t count, size_t stride) {
  const dbgc::SceneGenerator generator(type, kCorpusSeed);
  std::vector<dbgc::PointCloud> frames(count);
  ParallelFor(pool, count, [&](size_t i) {
    const dbgc::PointCloud full =
        generator.Generate(static_cast<uint32_t>(i));
    if (stride == 1) {
      frames[i] = full;
      return;
    }
    frames[i].Reserve((full.size() + stride - 1) / stride);
    for (size_t p = 0; p < full.size(); p += stride) frames[i].Add(full[p]);
  });
  return frames;
}

std::vector<size_t> Shuffled(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

double TimedSetups(const std::function<void()>& setup) {
  Samples seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double start = rep == 0 ? ProcessStart() : Now();
    setup();
    seconds.Add(Now() - start);
  }
  return seconds.Quantile(0.5);
}

Interval TimeCall(bool traced, StageSeconds* stages,
                  const std::function<void()>& fn) {
  std::optional<dbgc::obs::FrameTrace> trace;
  if (traced) trace.emplace();
  Interval interval;
  interval.start = Now();
  fn();
  interval.end = Now();
  if (trace) *stages = BreakdownSeconds(trace->breakdown());
  return interval;
}

uint64_t Hash(const dbgc::ByteBuffer& bytes) {
  return dbgc::FrameProtocol::Checksum(bytes.data(), bytes.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace dbgc_bench
