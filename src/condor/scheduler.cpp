#include "condor/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "classad/parser.h"
#include "snapshot/codec.h"

namespace erms::condor {

namespace {

// ERMS job and machine ads hold only literal values (built with insert_*),
// so (name, typed value) pairs round-trip them exactly.
void save_ad(snapshot::Writer& w, const classad::ClassAd& ad) {
  const std::vector<std::string> names = ad.attribute_names();
  w.u64(names.size());
  for (const std::string& name : names) {
    const classad::Value v = ad.evaluate(name);
    w.str(name);
    w.u8(static_cast<std::uint8_t>(v.type()));
    switch (v.type()) {
      case classad::Value::Type::kBool:
        w.u8(v.as_bool() ? 1 : 0);
        break;
      case classad::Value::Type::kInt:
        w.i64(v.as_int());
        break;
      case classad::Value::Type::kReal:
        w.f64(v.as_real());
        break;
      case classad::Value::Type::kString:
        w.str(v.as_string());
        break;
      default:
        break;  // undefined/error carry no payload
    }
  }
}

classad::ClassAd load_ad(snapshot::Reader& r) {
  classad::ClassAd ad;
  const std::uint64_t n = r.u64();
  if (!r.require(n <= r.remaining(), "classad attribute count")) return ad;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::string name = r.str();
    const auto type = static_cast<classad::Value::Type>(r.u8());
    switch (type) {
      case classad::Value::Type::kBool:
        ad.insert_bool(name, r.u8() != 0);
        break;
      case classad::Value::Type::kInt:
        ad.insert_int(name, r.i64());
        break;
      case classad::Value::Type::kReal:
        ad.insert_real(name, r.f64());
        break;
      case classad::Value::Type::kString:
        ad.insert_string(name, r.str());
        break;
      case classad::Value::Type::kUndefined:
      case classad::Value::Type::kError:
        break;
      default:
        r.fail(snapshot::ErrorCode::kBadSection, "unknown classad value type");
        return ad;
    }
  }
  return ad;
}

}  // namespace

std::map<JobId, JobStatus> recover_statuses(const std::vector<JobLogRecord>& log) {
  std::map<JobId, JobStatus> statuses;
  for (const JobLogRecord& rec : log) {
    switch (rec.kind) {
      case JobLogRecord::Kind::kSubmit:
        statuses[rec.job] = JobStatus::kQueued;
        break;
      case JobLogRecord::Kind::kExecute:
        statuses[rec.job] = JobStatus::kRunning;
        break;
      case JobLogRecord::Kind::kTerminateOk:
        statuses[rec.job] = JobStatus::kCompleted;
        break;
      case JobLogRecord::Kind::kTerminateFail:
        statuses[rec.job] = JobStatus::kFailed;
        break;
      case JobLogRecord::Kind::kRollback:
        statuses[rec.job] = JobStatus::kRolledBack;
        break;
      case JobLogRecord::Kind::kCancel:
        statuses[rec.job] = JobStatus::kCancelled;
        break;
      case JobLogRecord::Kind::kRetry:
        statuses[rec.job] = JobStatus::kQueued;
        break;
    }
  }
  return statuses;
}

Scheduler::Scheduler(sim::Simulation& simulation)
    : Scheduler(simulation, Config{}, util::Logger::null_logger()) {}

Scheduler::Scheduler(sim::Simulation& simulation, Config config, util::Logger& logger)
    : sim_(simulation), config_(config), log_sink_(logger) {}

void Scheduler::register_command(const std::string& cmd, Executor executor, Rollback rollback) {
  executors_[cmd] = std::move(executor);
  if (rollback) {
    rollbacks_[cmd] = std::move(rollback);
  }
}

void Scheduler::append_log(JobLogRecord::Kind kind, const Job& job) {
  JobLogRecord rec;
  rec.kind = kind;
  rec.time = sim_.now();
  rec.job = job.id;
  rec.cmd = job.ad.get_string("Cmd").value_or("?");
  log_.push_back(std::move(rec));
}

JobId Scheduler::submit(classad::ClassAd ad, JobClass sched_class, int priority,
                        TerminateFn on_terminate) {
  const JobId id = ids_.next();
  Entry entry;
  entry.job.id = id;
  entry.job.ad = std::move(ad);
  entry.job.sched_class = sched_class;
  entry.job.priority = priority;
  entry.job.submitted = sim_.now();
  entry.on_terminate = std::move(on_terminate);
  append_log(JobLogRecord::Kind::kSubmit, entry.job);
  enqueue(entry);
  entries_.emplace(id, std::move(entry));
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.submitted);
    metrics_->set(obs_ids_.queued, static_cast<double>(queued_count()));
  }
  // Pump from a fresh event so submit() itself never re-enters callbacks.
  sim_.schedule_after(sim::micros(0), [this] { pump(); });
  return id;
}

bool Scheduler::cancel(JobId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end() || it->second.job.status != JobStatus::kQueued) {
    return false;
  }
  dequeue(it->second);
  it->second.job.status = JobStatus::kCancelled;
  it->second.job.finished = sim_.now();
  append_log(JobLogRecord::Kind::kCancel, it->second.job);
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.cancelled);
    metrics_->set(obs_ids_.queued, static_cast<double>(queued_count()));
  }
  if (it->second.on_terminate) {
    const Job job = it->second.job;
    TerminateFn fn = std::move(it->second.on_terminate);
    sim_.schedule_after(sim::micros(0), [fn = std::move(fn), job] { fn(job); });
  }
  return true;
}

const Job* Scheduler::find(JobId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.job;
}

std::vector<JobId> Scheduler::jobs_in_status(JobStatus status) const {
  std::vector<JobId> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.job.status == status) {
      out.push_back(id);
    }
  }
  return out;
}

void Scheduler::enqueue(const Entry& entry) {
  const Job& job = entry.job;
  if (entry.not_before > sim_.now()) {
    backoff_.emplace(entry.not_before, job.id);
  } else {
    ready(job.sched_class).insert(ReadyKey{job.priority, job.id});
  }
  queued_when_idle_ += job.sched_class == JobClass::kWhenIdle ? 1 : 0;
}

void Scheduler::dequeue(const Entry& entry) {
  const Job& job = entry.job;
  if (backoff_.erase({entry.not_before, job.id}) == 0) {
    ready(job.sched_class).erase(ReadyKey{job.priority, job.id});
  }
  queued_when_idle_ -= job.sched_class == JobClass::kWhenIdle ? 1 : 0;
}

std::optional<JobId> Scheduler::next_startable() {
  while (!backoff_.empty() && backoff_.begin()->first <= sim_.now()) {
    const Job& job = entries_.at(backoff_.begin()->second).job;
    ready(job.sched_class).insert(ReadyKey{job.priority, job.id});
    backoff_.erase(backoff_.begin());
  }
  const std::set<ReadyKey>& immediate = ready(JobClass::kImmediate);
  const std::set<ReadyKey>& when_idle = ready(JobClass::kWhenIdle);
  const ReadyKey* best = immediate.empty() ? nullptr : &*immediate.begin();
  if (!when_idle.empty() && (best == nullptr || *when_idle.begin() < *best) &&
      (!idle_probe_ || idle_probe_())) {
    best = &*when_idle.begin();
  }
  return best == nullptr ? std::nullopt : std::optional<JobId>(best->id);
}

void Scheduler::pump() {
  while (running_ < config_.max_running) {
    const auto id = next_startable();
    if (!id) {
      break;
    }
    start(entries_.at(*id));
  }
  // If deferred jobs remain queued, poll the idle probe periodically.
  if (queued_when_idle_ > 0) {
    schedule_idle_poll();
  }
}

void Scheduler::schedule_idle_poll() {
  if (idle_poll_scheduled_) {
    return;
  }
  idle_poll_scheduled_ = true;
  sim_.schedule_after(config_.idle_poll, [this] {
    idle_poll_scheduled_ = false;
    pump();
  });
}

void Scheduler::start(Entry& entry) {
  Job& job = entry.job;
  assert(job.status == JobStatus::kQueued);
  dequeue(entry);
  const auto cmd = job.ad.get_string("Cmd");
  const auto exec_it = cmd ? executors_.find(*cmd) : executors_.end();
  job.status = JobStatus::kRunning;
  job.started = sim_.now();
  ++job.attempts;
  ++entry.epoch;
  append_log(JobLogRecord::Kind::kExecute, job);
  ++running_;
  if (metrics_ != nullptr) {
    metrics_->observe(obs_ids_.queue_wait_seconds, (job.started - job.submitted).seconds());
    metrics_->set(obs_ids_.queued, static_cast<double>(queued_count()));
    metrics_->set(obs_ids_.running, static_cast<double>(running_));
  }
  if (log_sink_.enabled(util::LogLevel::kDebug)) {
    log_sink_.log(util::LogLevel::kDebug, "condor",
                  "start job " + std::to_string(job.id.value()) + " cmd=" +
                      cmd.value_or("?"));
  }
  if (exec_it == executors_.end()) {
    // No executor for the command: retrying cannot help, terminate directly.
    const JobId id = job.id;
    sim_.schedule_after(sim::micros(0), [this, id] { finish(id, JobStatus::kFailed); });
    return;
  }
  const JobId id = job.id;
  const std::uint64_t epoch = entry.epoch;
  if (config_.job_timeout > sim::SimDuration{}) {
    entry.timeout = sim_.schedule_after(config_.job_timeout, [this, id, epoch] {
      const auto it = entries_.find(id);
      if (it == entries_.end() || it->second.epoch != epoch ||
          it->second.job.status != JobStatus::kRunning) {
        return;
      }
      ++timeouts_;
      if (log_sink_.enabled(util::LogLevel::kWarn)) {
        log_sink_.log(util::LogLevel::kWarn, "condor",
                      "job " + std::to_string(id.value()) + " attempt timed out");
      }
      handle_failure(id);
    });
  }
  exec_it->second(job.ad, [this, id, epoch](bool ok) {
    const auto it = entries_.find(id);
    if (it == entries_.end() || it->second.epoch != epoch ||
        it->second.job.status != JobStatus::kRunning) {
      return;  // attempt was already retired (timeout watchdog won the race)
    }
    if (ok) {
      finish(id, JobStatus::kCompleted);
      return;
    }
    handle_failure(id);
  });
}

void Scheduler::handle_failure(JobId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return;
  }
  Entry& entry = it->second;
  Job& job = entry.job;
  if (job.status != JobStatus::kRunning) {
    return;
  }
  entry.timeout.cancel();
  if (job.attempts <= config_.max_retries) {
    // Requeue with capped exponential backoff; the next start() re-runs the
    // executor, which re-targets through current cluster state.
    ++entry.epoch;
    ++retries_;
    job.status = JobStatus::kQueued;
    sim::SimDuration backoff = config_.retry_backoff;
    for (std::uint32_t i = 1; i < job.attempts && backoff < config_.retry_backoff_cap; ++i) {
      backoff = backoff * 2;
    }
    if (backoff > config_.retry_backoff_cap) {
      backoff = config_.retry_backoff_cap;
    }
    entry.not_before = sim_.now() + backoff;
    enqueue(entry);
    append_log(JobLogRecord::Kind::kRetry, job);
    assert(running_ > 0);
    --running_;
    if (metrics_ != nullptr) {
      metrics_->add(obs_ids_.retried);
      metrics_->set(obs_ids_.queued, static_cast<double>(queued_count()));
      metrics_->set(obs_ids_.running, static_cast<double>(running_));
    }
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::ActionKind::kJobRetry;
      ev.at = sim_.now();
      ev.job = static_cast<std::int64_t>(job.id.value());
      ev.count = job.attempts;
      ev.queue_wait = backoff;
      ev.outcome = job.ad.get_string("Cmd").value_or("?");
      trace_->record(std::move(ev));
    }
    if (log_sink_.enabled(util::LogLevel::kWarn)) {
      log_sink_.log(util::LogLevel::kWarn, "condor",
                    "retry job " + std::to_string(job.id.value()) + " attempt " +
                        std::to_string(job.attempts) + " backoff " +
                        std::to_string(backoff.seconds()) + "s");
    }
    sim_.schedule_after(backoff, [this] { pump(); });
    pump();  // the freed slot can run another job immediately
    return;
  }
  // Out of retries: roll back if the command registered a rollback ("If
  // these tasks failed, they could rollback automatically" — §III.A).
  const auto cmd = job.ad.get_string("Cmd");
  const auto rb_it = cmd ? rollbacks_.find(*cmd) : rollbacks_.end();
  if (rb_it == rollbacks_.end()) {
    finish(id, JobStatus::kFailed);
    return;
  }
  rb_it->second(job.ad, [this, id] { finish(id, JobStatus::kRolledBack); });
}

void Scheduler::finish(JobId id, JobStatus status) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    return;
  }
  Job& job = it->second.job;
  assert(job.status == JobStatus::kRunning);
  it->second.timeout.cancel();
  ++it->second.epoch;
  job.status = status;
  job.finished = sim_.now();
  switch (status) {
    case JobStatus::kCompleted:
      append_log(JobLogRecord::Kind::kTerminateOk, job);
      break;
    case JobStatus::kRolledBack:
      append_log(JobLogRecord::Kind::kRollback, job);
      break;
    default:
      append_log(JobLogRecord::Kind::kTerminateFail, job);
      break;
  }
  assert(running_ > 0);
  --running_;
  if (metrics_ != nullptr) {
    switch (status) {
      case JobStatus::kCompleted:
        metrics_->add(obs_ids_.completed);
        break;
      case JobStatus::kRolledBack:
        metrics_->add(obs_ids_.rolled_back);
        break;
      default:
        metrics_->add(obs_ids_.failed);
        break;
    }
    metrics_->observe(obs_ids_.exec_seconds, (job.finished - job.started).seconds());
    metrics_->set(obs_ids_.running, static_cast<double>(running_));
  }
  if (it->second.on_terminate) {
    it->second.on_terminate(job);
  }
  pump();
}

void Scheduler::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  obs_ids_ = {};
  if (metrics == nullptr) {
    return;
  }
  obs_ids_.submitted = metrics->counter("condor.jobs.submitted");
  obs_ids_.completed = metrics->counter("condor.jobs.completed");
  obs_ids_.failed = metrics->counter("condor.jobs.failed");
  obs_ids_.rolled_back = metrics->counter("condor.jobs.rolled_back");
  obs_ids_.cancelled = metrics->counter("condor.jobs.cancelled");
  obs_ids_.retried = metrics->counter("condor.jobs.retried");
  obs_ids_.queued = metrics->gauge("condor.jobs.queued");
  obs_ids_.running = metrics->gauge("condor.jobs.running");
  obs_ids_.queue_wait_seconds = metrics->histogram("condor.queue_wait.seconds", 0.0, 600.0, 60);
  obs_ids_.exec_seconds = metrics->histogram("condor.exec.seconds", 0.0, 600.0, 60);
}

void Scheduler::advertise(const std::string& name, classad::ClassAd ad) {
  machines_[name] = std::move(ad);
}

bool Scheduler::invalidate(const std::string& name) { return machines_.erase(name) > 0; }

const classad::ClassAd* Scheduler::machine(const std::string& name) const {
  const auto it = machines_.find(name);
  return it == machines_.end() ? nullptr : &it->second;
}

std::vector<std::string> Scheduler::query_machines(const std::string& constraint) const {
  const classad::ExprPtr expr = classad::parse_expr(constraint);
  std::vector<std::string> out;
  for (const auto& [name, ad] : machines_) {
    const classad::Value v = ad.evaluate_expr(*expr);
    if (v.is_bool() && v.as_bool()) {
      out.push_back(name);
    }
  }
  return out;
}

void Scheduler::save_state(snapshot::Writer& w) const {
  // The snapshot layer saves only at quiescence: nothing queued, nothing
  // running, no idle poll pending — every surviving job is terminal, so its
  // on_terminate has already fired and the closure need not travel.
  assert(running_ == 0 && queued_count() == 0 && !idle_poll_scheduled_);
  w.u64(entries_.size());
  for (const auto& [id, entry] : entries_) {
    const Job& job = entry.job;
    w.u64(job.id.value());
    save_ad(w, job.ad);
    w.u8(static_cast<std::uint8_t>(job.sched_class));
    w.i64(job.priority);
    w.u8(static_cast<std::uint8_t>(job.status));
    w.u32(job.attempts);
    w.i64(job.submitted.micros());
    w.i64(job.started.micros());
    w.i64(job.finished.micros());
  }
  w.u64(log_.size());
  for (const JobLogRecord& rec : log_) {
    w.u8(static_cast<std::uint8_t>(rec.kind));
    w.i64(rec.time.micros());
    w.u64(rec.job.value());
    w.str(rec.cmd);
  }
  w.u64(machines_.size());
  for (const auto& [name, ad] : machines_) {
    w.str(name);
    save_ad(w, ad);
  }
  w.u64(ids_.peek());
  w.u64(retries_);
  w.u64(timeouts_);
}

void Scheduler::load_state(snapshot::Reader& r) {
  std::map<JobId, Entry> entries;
  const std::uint64_t njobs = r.u64();
  if (!r.require(njobs <= r.remaining(), "job table size")) return;
  for (std::uint64_t i = 0; i < njobs && r.ok(); ++i) {
    Entry entry;
    Job& job = entry.job;
    job.id = JobId{r.u64()};
    job.ad = load_ad(r);
    const std::uint8_t sched_class = r.u8();
    const std::int64_t priority = r.i64();
    if (sched_class > static_cast<std::uint8_t>(JobClass::kWhenIdle)) {
      r.fail(snapshot::ErrorCode::kBadSection, "job class out of range");
      return;
    }
    if (priority < std::numeric_limits<int>::min() ||
        priority > std::numeric_limits<int>::max()) {
      r.fail(snapshot::ErrorCode::kBadSection, "job priority out of range");
      return;
    }
    job.sched_class = static_cast<JobClass>(sched_class);
    job.priority = static_cast<int>(priority);
    job.status = static_cast<JobStatus>(r.u8());
    job.attempts = r.u32();
    job.submitted = sim::SimTime{r.i64()};
    job.started = sim::SimTime{r.i64()};
    job.finished = sim::SimTime{r.i64()};
    if (!r.require(job.status == JobStatus::kCompleted || job.status == JobStatus::kFailed ||
                       job.status == JobStatus::kRolledBack ||
                       job.status == JobStatus::kCancelled,
                   "non-terminal job in snapshot")) {
      return;
    }
    entries.emplace(job.id, std::move(entry));
  }
  std::vector<JobLogRecord> log;
  const std::uint64_t nlog = r.u64();
  if (!r.require(nlog <= r.remaining(), "job log size")) return;
  log.reserve(nlog);
  for (std::uint64_t i = 0; i < nlog && r.ok(); ++i) {
    JobLogRecord rec;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(JobLogRecord::Kind::kRetry)) {
      r.fail(snapshot::ErrorCode::kBadSection, "job log record kind out of range");
      return;
    }
    rec.kind = static_cast<JobLogRecord::Kind>(kind);
    rec.time = sim::SimTime{r.i64()};
    rec.job = JobId{r.u64()};
    rec.cmd = r.str();
    log.push_back(std::move(rec));
  }
  std::map<std::string, classad::ClassAd> machines;
  const std::uint64_t nmachines = r.u64();
  if (!r.require(nmachines <= r.remaining(), "machine ad count")) return;
  for (std::uint64_t i = 0; i < nmachines && r.ok(); ++i) {
    std::string name = r.str();
    machines.emplace(std::move(name), load_ad(r));
  }
  const std::uint64_t next_id = r.u64();
  const std::uint64_t retries = r.u64();
  const std::uint64_t timeouts = r.u64();
  if (!r.ok()) return;
  // Only terminal jobs load, so nothing is queued.
  entries_ = std::move(entries);
  for (std::set<ReadyKey>& index : ready_) index.clear();
  backoff_.clear();
  queued_when_idle_ = 0;
  log_ = std::move(log);
  machines_ = std::move(machines);
  ids_.reset(next_id);
  retries_ = retries;
  timeouts_ = timeouts;
}

}  // namespace erms::condor
