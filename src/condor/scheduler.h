#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "classad/classad.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "util/ids.h"
#include "util/log.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::condor {

struct JobTag {};
using JobId = util::StrongId<JobTag>;

/// ERMS schedules urgent work (replica increase, erasure *de*coding)
/// immediately and deferrable work (replica decrease, erasure encoding)
/// "when the HDFS cluster is idle" (paper §III.A).
enum class JobClass { kImmediate, kWhenIdle };

enum class JobStatus {
  kQueued,
  kRunning,
  kCompleted,
  kFailed,       // executor reported failure and no rollback was registered
  kRolledBack,   // executor failed, rollback ran
  kCancelled,
};

[[nodiscard]] constexpr const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kRolledBack:
      return "rolled_back";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

/// A queued task, described by a ClassAd (attribute `Cmd` selects the
/// executor; the rest are task parameters like File / TargetReplication).
struct Job {
  JobId id;
  classad::ClassAd ad;
  JobClass sched_class{JobClass::kImmediate};
  int priority{0};
  JobStatus status{JobStatus::kQueued};
  /// Times the executor has been started (1 = first run, >1 = retries).
  std::uint32_t attempts{0};
  sim::SimTime submitted;
  sim::SimTime started;
  sim::SimTime finished;
};

/// Append-only user-log record ("the Condor log mechanism is used to record
/// all replication manager tasks and erasure coding tasks" — §III.A).
/// kRetry marks a failed execution that was requeued with backoff rather
/// than terminated.
struct JobLogRecord {
  enum class Kind {
    kSubmit,
    kExecute,
    kTerminateOk,
    kTerminateFail,
    kRollback,
    kCancel,
    kRetry
  };
  Kind kind;
  sim::SimTime time;
  JobId job;
  std::string cmd;
};

/// Job statuses recovered by replaying a log after a scheduler crash: the
/// last record per job wins (kRetry maps back to kQueued). At any log
/// prefix the result matches the live scheduler's statuses at that time.
std::map<JobId, JobStatus> recover_statuses(const std::vector<JobLogRecord>& log);

/// Mini-Condor: a priority job queue with two scheduling classes, pluggable
/// executors per command, rollback-on-failure, an append-only job log, and a
/// machine-ad registry with ClassAd matchmaking.
///
/// Dispatch starts the highest-priority startable queued job, FIFO by JobId
/// on ties; a retried job keeps its id. Queued jobs live in indexes ordered
/// that way, one per class, so a dispatch reads two heads instead of
/// walking every job ever submitted. Retries wait in a backoff index by
/// their gate time and join their class index once due.
class Scheduler {
 public:
  /// Executors run asynchronously on the simulation clock and report success.
  using Executor = std::function<void(const classad::ClassAd&, std::function<void(bool)>)>;
  /// Invoked when the job's executor fails, to undo partial work.
  using Rollback = std::function<void(const classad::ClassAd&, std::function<void()>)>;
  using TerminateFn = std::function<void(const Job&)>;
  /// Probe deciding whether kWhenIdle jobs may start now.
  using IdleProbe = std::function<bool()>;

  struct Config {
    std::uint32_t max_running = 4;
    /// How often to re-test the idle probe while deferred jobs wait.
    sim::SimDuration idle_poll = sim::seconds(5.0);
    /// Failed executions are requeued up to this many times before the job
    /// terminates (rollback/kFailed). 0 preserves fail-fast semantics.
    std::uint32_t max_retries = 0;
    /// Delay before a retried job becomes startable again; doubles per
    /// attempt, capped at retry_backoff_cap.
    sim::SimDuration retry_backoff = sim::seconds(2.0);
    sim::SimDuration retry_backoff_cap = sim::minutes(2.0);
    /// Wall-clock budget per execution attempt; an attempt still running
    /// after this is treated as failed (retried or terminated). 0 disables.
    sim::SimDuration job_timeout{};
  };

  explicit Scheduler(sim::Simulation& simulation);
  Scheduler(sim::Simulation& simulation, Config config,
            util::Logger& logger = util::Logger::null_logger());

  /// Register the executor (and optional rollback) for a `Cmd` value.
  void register_command(const std::string& cmd, Executor executor, Rollback rollback = nullptr);

  void set_idle_probe(IdleProbe probe) { idle_probe_ = std::move(probe); }

  /// Submit a job ad (must carry a string `Cmd` attribute). `on_terminate`
  /// fires once when the job reaches a terminal status.
  JobId submit(classad::ClassAd ad, JobClass sched_class, int priority = 0,
               TerminateFn on_terminate = nullptr);

  /// Cancel a queued job (running jobs cannot be cancelled). Returns true on
  /// success.
  bool cancel(JobId id);

  [[nodiscard]] const Job* find(JobId id) const;
  [[nodiscard]] std::vector<JobId> jobs_in_status(JobStatus status) const;
  [[nodiscard]] std::size_t queued_count() const {
    return ready_[0].size() + ready_[1].size() + backoff_.size();
  }
  [[nodiscard]] std::size_t running_count() const { return running_; }
  [[nodiscard]] const std::vector<JobLogRecord>& log() const { return log_; }

  // ----- machine ads (datanode registry) ---------------------------------
  /// Advertise or refresh a machine ad under `name` — ERMS uses this "to
  /// detect when datanodes are commissioned or decommissioned" (§III.A).
  void advertise(const std::string& name, classad::ClassAd ad);
  /// Drop a machine ad; returns true if it existed.
  bool invalidate(const std::string& name);
  [[nodiscard]] const classad::ClassAd* machine(const std::string& name) const;
  /// Names of machines whose ads satisfy `constraint` (a ClassAd expression
  /// evaluated against each machine ad).
  [[nodiscard]] std::vector<std::string> query_machines(const std::string& constraint) const;
  [[nodiscard]] std::size_t machine_count() const { return machines_.size(); }

  // ----- observability ---------------------------------------------------
  /// Attach (nullptr detaches) a metrics registry: per-terminal-status job
  /// counters, queue/running gauges, and queue-wait / execution-span
  /// histograms. Ids resolve once; detached costs one null test per event.
  void set_metrics(obs::MetricsRegistry* metrics);
  /// Attach (nullptr detaches) an action trace; records kJobRetry events.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

  /// True while a deferred-job idle poll is pending on the simulation
  /// clock — part of the snapshot quiescence predicate (a pending poll is a
  /// live event the snapshot could not re-arm faithfully).
  [[nodiscard]] bool idle_poll_pending() const { return idle_poll_scheduled_; }

  /// Snapshot support (src/snapshot/): job table (terminal jobs only — save
  /// requires an idle scheduler), user log, machine ads, id sequence and
  /// counters. Executors/rollbacks/probes are re-registered by the owner.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  struct Entry {
    Job job;
    TerminateFn on_terminate;
    /// Bumped on every start/finish/retry; callbacks captured with an older
    /// epoch (late executor completions, stale timeout watchdogs) are
    /// ignored instead of tripping finish()'s kRunning invariant.
    std::uint64_t epoch{0};
    /// Retried jobs are not startable before this time (backoff gate).
    sim::SimTime not_before;
    sim::EventHandle timeout;
  };

  /// Dispatch order within a class index: higher priority first, then
  /// lower JobId.
  struct ReadyKey {
    int priority;
    JobId id;
    friend bool operator<(const ReadyKey& a, const ReadyKey& b) {
      return a.priority != b.priority ? a.priority > b.priority : a.id < b.id;
    }
  };

  void append_log(JobLogRecord::Kind kind, const Job& job);
  /// Index a job that just became kQueued (submit or retry).
  void enqueue(const Entry& entry);
  /// Drop a kQueued job from its index (start or cancel).
  void dequeue(const Entry& entry);
  std::set<ReadyKey>& ready(JobClass c) { return ready_[static_cast<std::size_t>(c)]; }
  void pump();
  void start(Entry& entry);
  void finish(JobId id, JobStatus status);
  /// A running attempt failed (executor false or watchdog fired): retry
  /// with backoff while attempts remain, otherwise rollback/terminate.
  void handle_failure(JobId id);
  void schedule_idle_poll();

  /// Highest-priority startable queued job (FIFO within a priority). Moves
  /// retries whose backoff has passed into their class index first.
  [[nodiscard]] std::optional<JobId> next_startable();

  sim::Simulation& sim_;
  Config config_;
  util::Logger& log_sink_;
  /// Every job ever submitted, terminal ones included (the snapshot saves
  /// them); dispatch reads only the indexes below.
  std::map<JobId, Entry> entries_;
  /// Queued jobs startable now, indexed by JobClass.
  std::array<std::set<ReadyKey>, 2> ready_;
  /// Queued retries still in backoff, by (not_before, JobId).
  std::set<std::pair<sim::SimTime, JobId>> backoff_;
  /// Queued when-idle jobs, ready or in backoff (backoff_ mixes classes).
  std::size_t queued_when_idle_{0};
  std::vector<JobLogRecord> log_;
  std::map<std::string, Executor> executors_;
  std::map<std::string, Rollback> rollbacks_;
  std::map<std::string, classad::ClassAd> machines_;
  IdleProbe idle_probe_;
  util::IdGenerator<JobId> ids_{1};
  std::uint32_t running_{0};
  bool idle_poll_scheduled_{false};
  std::uint64_t retries_{0};
  std::uint64_t timeouts_{0};

  struct ObsIds {
    obs::CounterId submitted, completed, failed, rolled_back, cancelled, retried;
    obs::GaugeId queued, running;
    obs::HistogramId queue_wait_seconds, exec_seconds;
  };
  obs::MetricsRegistry* metrics_{nullptr};
  obs::TraceRing* trace_{nullptr};
  ObsIds obs_ids_;
};

}  // namespace erms::condor
