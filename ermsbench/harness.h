#pragma once

// Shared machinery of the repository benchmark: wall-clock spans around
// calls into each layer, the metric catalogue, the episode loop and the one
// result line. Everything here lives outside the program: the simulation
// never reads a clock, so tracing cannot change what it computes (every
// workload checks that by comparing plain and traced outcome digests).

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ermsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Identifies the source tree the binary was built from (git describe or a
  /// content hash); recorded in the provenance line, never interpreted.
  std::string source_id{"unknown"};
};

/// The layers the traced run puts spans around. Spans nest (a feed push
/// fired by an audit flush inside a read_file call inside a simulation
/// step); each layer's self time excludes its children.
enum class Layer : std::uint8_t {
  kFeedPush,    // judge::AccessStatsFeed::on_audit_batch
  kCepEvict,    // judge::AccessStatsFeed::advance_to
  kJudgeSweep,  // core::ErmsManager::evaluate
  kReadIssue,   // hdfs::Cluster::read_file
  kWriteIssue,  // hdfs::Cluster::write_file
  kFailNode,    // hdfs::Cluster::fail_node
  kSimStep,     // sim::Simulation::step
  kSnapshot,    // snapshot save + restore
  kEcEncode,    // ec::ErasureCodec::encode
  kEcRepair,    // ec::ErasureCodec::plan_repair + repair
  kCount,
};

/// Nested wall-clock spans, one thread. enter/leave pairs must balance.
class Tracer {
 public:
  void enter(Layer layer);
  /// Closes the innermost span and returns its duration in seconds.
  double leave();

  [[nodiscard]] double total_s(Layer layer) const { return at(total_s_, layer); }
  [[nodiscard]] double self_s(Layer layer) const { return at(self_s_, layer); }
  [[nodiscard]] std::uint64_t calls(Layer layer) const { return at(calls_, layer); }
  /// Self time summed over every layer except `excluded`.
  [[nodiscard]] double self_s_except(Layer excluded) const;

 private:
  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  template <typename T>
  static T at(const std::array<T, kLayers>& a, Layer layer) {
    return a[static_cast<std::size_t>(layer)];
  }
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::array<double, kLayers> total_s_{};
  std::array<double, kLayers> self_s_{};
  std::array<std::uint64_t, kLayers> calls_{};
};

/// RAII span; a no-op when `tracer` is null (the plain run).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->enter(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->leave();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Wall seconds of one calibration slice: a fixed, seed-free piece of CPU
/// work (xorshift chains indexing an L1-sized table, a miniature event
/// loop) that takes about kCalNominalS on an unloaded core. The program
/// never runs it; the harness runs one after every unit of measured work,
/// so each unit has a sample of how fast the host let this process run.
[[nodiscard]] double calibration_slice_s();
inline constexpr double kCalNominalS = 1e-3;

/// One benchmark metric. `plain` metrics are measured in untraced episodes
/// (in a traced run they come from the plain episodes it interleaves);
/// the others only exist in traced episodes.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool plain;
};

/// Reported by every workload with --trace 0.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by every workload with --trace 1; a layer a workload does not
/// exercise reports 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Outcome of one episode: set up a world from the seed, drive it, check it.
struct Episode {
  double setup_s{0.0};
  /// Operations completed in the measured phase.
  double ops{0.0};
  /// Wall seconds of the measured phase, summed over its units of work (a
  /// control period, an ingest batch, one codec call).
  double work_s{0.0};
  /// Wall seconds of each calibration slice run between those units.
  std::vector<double> cal_samples;

  /// Records a unit of measured work and runs its calibration slice.
  void add_unit(double seconds) {
    work_s += seconds;
    cal_samples.push_back(calibration_slice_s());
  }
  /// Wall seconds spent in calibration slices.
  [[nodiscard]] double cal_s() const;

  /// ops / work_s: what the program did per wall-second.
  [[nodiscard]] double wall_rate() const { return work_s > 0.0 ? ops / work_s : 0.0; }
  /// wall_rate() rescaled to a host on which a calibration slice takes
  /// kCalNominalS, by the episode's median slice. Other tenants of a shared
  /// host slow this process in phases of seconds to minutes; a phase slows
  /// the units and the slices between them alike, so the ratio cancels most
  /// of it (README.md, "Stability", has the measurements).
  [[nodiscard]] double calibrated_rate() const;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Deterministic outcome digest (counters, byte totals, log lengths).
  std::uint64_t digest{0};
  /// Named figures, by metric name (see per_layer_metrics()).
  std::map<std::string, double> values;
  /// Output checks that did not hold; empty when the episode is correct.
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

using EpisodeFn = std::function<Episode(const Options&, Tracer*)>;

/// Describes a workload for the provenance line: sizing and knob values.
using Params = std::vector<std::pair<std::string, std::string>>;

/// Runs episodes of `fn` until `options.seconds` have elapsed (at least
/// kMinPlainEpisodes plain ones; a traced run alternates plain and traced
/// episodes and runs at least one traced), checks them, prints every metric
/// and the result line. Episode k draws its inputs from its own seed — the
/// run's seed for k = 0, then a reproducible mix of (seed, k) — so a run's
/// figures span several inputs of one seed; throughput and set-up time are
/// medians over the plain episodes. Returns the process exit code: 0 when
/// every output check held, 1 otherwise.
inline constexpr std::size_t kMinPlainEpisodes = 3;
int run_episodes(const Options& options, const Params& params, const EpisodeFn& fn);

/// FNV-1a over 64-bit words — the outcome digest.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Median and nearest-rank quantile of a sample (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Process resident set size now / at its peak, in bytes (0 if unknown).
[[nodiscard]] std::uint64_t current_rss_bytes();
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace ermsbench
