#include <gtest/gtest.h>

#include "classad/parser.h"
#include "condor/scheduler.h"
#include "sim/simulation.h"

namespace erms::condor {
namespace {

classad::ClassAd job_ad(const std::string& cmd) {
  classad::ClassAd ad;
  ad.insert_string("Cmd", cmd);
  return ad;
}

struct Fixture {
  sim::Simulation sim;
  Scheduler sched{sim};
};

TEST(Scheduler, RunsImmediateJob) {
  Fixture f;
  int ran = 0;
  f.sched.register_command("noop",
                           [&](const classad::ClassAd&, std::function<void(bool)> done) {
                             ++ran;
                             done(true);
                           });
  JobStatus final_status{};
  const JobId id = f.sched.submit(job_ad("noop"), JobClass::kImmediate, 0,
                                  [&](const Job& j) { final_status = j.status; });
  f.sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(final_status, JobStatus::kCompleted);
  EXPECT_EQ(f.sched.find(id)->status, JobStatus::kCompleted);
}

TEST(Scheduler, UnknownCommandFails) {
  Fixture f;
  JobStatus final_status{};
  f.sched.submit(job_ad("missing"), JobClass::kImmediate, 0,
                 [&](const Job& j) { final_status = j.status; });
  f.sim.run();
  EXPECT_EQ(final_status, JobStatus::kFailed);
}

TEST(Scheduler, MissingCmdAttributeFails) {
  Fixture f;
  JobStatus final_status{};
  f.sched.submit(classad::ClassAd{}, JobClass::kImmediate, 0,
                 [&](const Job& j) { final_status = j.status; });
  f.sim.run();
  EXPECT_EQ(final_status, JobStatus::kFailed);
}

TEST(Scheduler, PriorityOrdersStarts) {
  Fixture f;
  Scheduler::Config cfg;
  cfg.max_running = 1;
  Scheduler sched{f.sim, cfg};
  std::vector<int> order;
  sched.register_command("task",
                         [&](const classad::ClassAd& ad, std::function<void(bool)> done) {
                           order.push_back(static_cast<int>(*ad.get_int("N")));
                           // Finish after 1s so queued jobs wait.
                           f.sim.schedule_after(sim::seconds(1.0), [done] { done(true); });
                         });
  for (int i = 0; i < 3; ++i) {
    classad::ClassAd ad = job_ad("task");
    ad.insert_int("N", i);
    sched.submit(std::move(ad), JobClass::kImmediate, i);  // rising priority
  }
  f.sim.run();
  // The pump runs after all three submissions land (submit defers it), so
  // starts follow pure priority order.
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(Scheduler, MaxRunningThrottles) {
  Fixture f;
  Scheduler::Config cfg;
  cfg.max_running = 2;
  Scheduler sched{f.sim, cfg};
  int concurrent = 0;
  int peak = 0;
  sched.register_command("slow",
                         [&](const classad::ClassAd&, std::function<void(bool)> done) {
                           peak = std::max(peak, ++concurrent);
                           f.sim.schedule_after(sim::seconds(1.0), [&, done] {
                             --concurrent;
                             done(true);
                           });
                         });
  for (int i = 0; i < 6; ++i) {
    sched.submit(job_ad("slow"), JobClass::kImmediate);
  }
  f.sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sched.jobs_in_status(JobStatus::kCompleted).size(), 6u);
}

TEST(Scheduler, WhenIdleWaitsForProbe) {
  Fixture f;
  bool idle = false;
  f.sched.set_idle_probe([&] { return idle; });
  double ran_at = -1.0;
  f.sched.register_command("bg",
                           [&](const classad::ClassAd&, std::function<void(bool)> done) {
                             ran_at = f.sim.now().seconds();
                             done(true);
                           });
  f.sched.submit(job_ad("bg"), JobClass::kWhenIdle);
  f.sim.schedule_after(sim::seconds(60.0), [&] { idle = true; });
  f.sim.run_until(sim::SimTime{sim::seconds(200.0).micros()});
  // Started only after the probe flipped (>= 60s, found by the 5s poll).
  ASSERT_GE(ran_at, 60.0);
  EXPECT_LE(ran_at, 70.0);
}

TEST(Scheduler, ImmediateJobsIgnoreIdleProbe) {
  Fixture f;
  f.sched.set_idle_probe([] { return false; });
  bool ran = false;
  f.sched.register_command("now",
                           [&](const classad::ClassAd&, std::function<void(bool)> done) {
                             ran = true;
                             done(true);
                           });
  f.sched.submit(job_ad("now"), JobClass::kImmediate);
  f.sim.run_until(sim::SimTime{sim::seconds(1.0).micros()});
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RollbackOnFailure) {
  Fixture f;
  bool rolled_back = false;
  f.sched.register_command(
      "flaky",
      [](const classad::ClassAd&, std::function<void(bool)> done) { done(false); },
      [&](const classad::ClassAd&, std::function<void()> finished) {
        rolled_back = true;
        finished();
      });
  JobStatus final_status{};
  f.sched.submit(job_ad("flaky"), JobClass::kImmediate, 0,
                 [&](const Job& j) { final_status = j.status; });
  f.sim.run();
  EXPECT_TRUE(rolled_back);
  EXPECT_EQ(final_status, JobStatus::kRolledBack);
}

TEST(Scheduler, FailureWithoutRollbackIsFailed) {
  Fixture f;
  f.sched.register_command(
      "bad", [](const classad::ClassAd&, std::function<void(bool)> done) { done(false); });
  JobStatus final_status{};
  f.sched.submit(job_ad("bad"), JobClass::kImmediate, 0,
                 [&](const Job& j) { final_status = j.status; });
  f.sim.run();
  EXPECT_EQ(final_status, JobStatus::kFailed);
}

TEST(Scheduler, CancelQueuedJob) {
  Fixture f;
  Scheduler::Config cfg;
  cfg.max_running = 1;
  Scheduler sched{f.sim, cfg};
  sched.register_command("slow",
                         [&](const classad::ClassAd&, std::function<void(bool)> done) {
                           f.sim.schedule_after(sim::seconds(10.0), [done] { done(true); });
                         });
  sched.submit(job_ad("slow"), JobClass::kImmediate);
  const JobId second = sched.submit(job_ad("slow"), JobClass::kImmediate);
  // Cancel before the first job finishes.
  f.sim.schedule_after(sim::seconds(1.0), [&] { EXPECT_TRUE(sched.cancel(second)); });
  f.sim.run();
  EXPECT_EQ(sched.find(second)->status, JobStatus::kCancelled);
  EXPECT_FALSE(sched.cancel(second));  // already terminal
}

TEST(Scheduler, JobTimestampsOrdered) {
  Fixture f;
  f.sched.register_command("noop",
                           [&](const classad::ClassAd&, std::function<void(bool)> done) {
                             f.sim.schedule_after(sim::seconds(2.0), [done] { done(true); });
                           });
  const JobId id = f.sched.submit(job_ad("noop"), JobClass::kImmediate);
  f.sim.run();
  const Job* job = f.sched.find(id);
  ASSERT_NE(job, nullptr);
  EXPECT_LE(job->submitted, job->started);
  EXPECT_LT(job->started, job->finished);
  EXPECT_NEAR((job->finished - job->started).seconds(), 2.0, 1e-6);
}

// ---------- job log & replay ----------

TEST(JobLog, RecordsLifecycle) {
  Fixture f;
  f.sched.register_command("noop", [](const classad::ClassAd&,
                                      std::function<void(bool)> done) { done(true); });
  const JobId id = f.sched.submit(job_ad("noop"), JobClass::kImmediate);
  f.sim.run();
  const auto& log = f.sched.log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, JobLogRecord::Kind::kSubmit);
  EXPECT_EQ(log[1].kind, JobLogRecord::Kind::kExecute);
  EXPECT_EQ(log[2].kind, JobLogRecord::Kind::kTerminateOk);
  EXPECT_EQ(log[0].job, id);
  EXPECT_EQ(log[0].cmd, "noop");
}

TEST(JobLog, ReplayReconstructsStatuses) {
  Fixture f;
  f.sched.register_command("ok", [](const classad::ClassAd&,
                                    std::function<void(bool)> done) { done(true); });
  f.sched.register_command(
      "fail",
      [](const classad::ClassAd&, std::function<void(bool)> done) { done(false); },
      [](const classad::ClassAd&, std::function<void()> fin) { fin(); });
  const JobId a = f.sched.submit(job_ad("ok"), JobClass::kImmediate);
  const JobId b = f.sched.submit(job_ad("fail"), JobClass::kImmediate);
  const JobId c = f.sched.submit(job_ad("ok"), JobClass::kImmediate);
  f.sim.run();
  const auto statuses = recover_statuses(f.sched.log());
  EXPECT_EQ(statuses.at(a), JobStatus::kCompleted);
  EXPECT_EQ(statuses.at(b), JobStatus::kRolledBack);
  EXPECT_EQ(statuses.at(c), JobStatus::kCompleted);
  // Replay agrees with live state for every job.
  for (const auto& [id, status] : statuses) {
    EXPECT_EQ(f.sched.find(id)->status, status);
  }
}

// ---------- retry / backoff / timeout ----------

TEST(Retry, FailedJobRetriesWithBackoffThenSucceeds) {
  sim::Simulation sim;
  Scheduler::Config cfg;
  cfg.max_retries = 3;
  cfg.retry_backoff = sim::seconds(2.0);
  Scheduler sched{sim, cfg};
  int calls = 0;
  sched.register_command("flaky",
                         [&](const classad::ClassAd&, std::function<void(bool)> done) {
                           ++calls;
                           done(calls >= 3);
                         });
  JobStatus final_status{};
  const JobId id = sched.submit(job_ad("flaky"), JobClass::kImmediate, 0,
                                [&](const Job& j) { final_status = j.status; });
  sim.run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(final_status, JobStatus::kCompleted);
  EXPECT_EQ(sched.find(id)->attempts, 3u);
  EXPECT_EQ(sched.retries(), 2u);

  // The log shows the retries, and the backoff doubles: attempt 2 at
  // +2 s, attempt 3 at +2+4 s.
  std::vector<sim::SimTime> executes;
  std::size_t retry_records = 0;
  for (const JobLogRecord& rec : sched.log()) {
    if (rec.kind == JobLogRecord::Kind::kExecute) {
      executes.push_back(rec.time);
    }
    retry_records += rec.kind == JobLogRecord::Kind::kRetry ? 1 : 0;
  }
  ASSERT_EQ(executes.size(), 3u);
  EXPECT_EQ(retry_records, 2u);
  EXPECT_NEAR((executes[1] - executes[0]).seconds(), 2.0, 0.1);
  EXPECT_NEAR((executes[2] - executes[1]).seconds(), 4.0, 0.1);
}

TEST(Retry, BackoffIsCapped) {
  sim::Simulation sim;
  Scheduler::Config cfg;
  cfg.max_retries = 5;
  cfg.retry_backoff = sim::seconds(2.0);
  cfg.retry_backoff_cap = sim::seconds(5.0);
  Scheduler sched{sim, cfg};
  sched.register_command("fail", [](const classad::ClassAd&,
                                    std::function<void(bool)> done) { done(false); });
  sched.submit(job_ad("fail"), JobClass::kImmediate);
  sim.run();
  std::vector<sim::SimTime> executes;
  for (const JobLogRecord& rec : sched.log()) {
    if (rec.kind == JobLogRecord::Kind::kExecute) {
      executes.push_back(rec.time);
    }
  }
  ASSERT_EQ(executes.size(), 6u);  // 1 + 5 retries — bounded, no runaway
  // Later gaps saturate at the cap instead of doubling forever.
  EXPECT_NEAR((executes[5] - executes[4]).seconds(), 5.0, 0.1);
  EXPECT_EQ(sched.retries(), 5u);
}

TEST(Retry, ExhaustedRetriesRollBack) {
  sim::Simulation sim;
  Scheduler::Config cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff = sim::seconds(1.0);
  Scheduler sched{sim, cfg};
  int rollbacks = 0;
  sched.register_command(
      "fail",
      [](const classad::ClassAd&, std::function<void(bool)> done) { done(false); },
      [&](const classad::ClassAd&, std::function<void()> fin) {
        ++rollbacks;
        fin();
      });
  JobStatus final_status{};
  const JobId id = sched.submit(job_ad("fail"), JobClass::kImmediate, 0,
                                [&](const Job& j) { final_status = j.status; });
  sim.run();
  EXPECT_EQ(final_status, JobStatus::kRolledBack);
  EXPECT_EQ(sched.find(id)->attempts, 3u);  // 1 + 2 retries
  EXPECT_EQ(rollbacks, 1) << "rollback fires once, after the last attempt";
}

TEST(Retry, TimeoutWatchdogRetiresHungAttempts) {
  sim::Simulation sim;
  Scheduler::Config cfg;
  cfg.max_retries = 1;
  cfg.retry_backoff = sim::seconds(2.0);
  cfg.job_timeout = sim::seconds(5.0);
  Scheduler sched{sim, cfg};
  // The executor hangs forever; completions are stashed to replay late.
  std::vector<std::function<void(bool)>> stuck;
  sched.register_command("hang",
                         [&](const classad::ClassAd&, std::function<void(bool)> done) {
                           stuck.push_back(std::move(done));
                         });
  JobStatus final_status{};
  const JobId id = sched.submit(job_ad("hang"), JobClass::kImmediate, 0,
                                [&](const Job& j) { final_status = j.status; });
  sim.run();
  // attempt 1 times out at 5 s, retries at 7 s, attempt 2 times out at 12 s.
  EXPECT_EQ(final_status, JobStatus::kFailed);
  EXPECT_EQ(sched.timeouts(), 2u);
  EXPECT_EQ(sched.retries(), 1u);
  EXPECT_NEAR(sim.now().seconds(), 12.0, 0.1);
  // A late executor completion from a retired attempt must be ignored.
  ASSERT_EQ(stuck.size(), 2u);
  for (auto& done : stuck) {
    done(true);
  }
  sim.run();
  EXPECT_EQ(sched.find(id)->status, JobStatus::kFailed);
}

TEST(JobLog, RecoverStatusesMatchesLiveThroughRetries) {
  // The crash-recovery differential: replaying the log at a mid-run cutoff
  // and at the end must reproduce the live scheduler's statuses exactly,
  // across completions, retries, rollbacks, plain failures, and cancels.
  sim::Simulation sim;
  Scheduler::Config cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff = sim::seconds(1.0);
  cfg.max_running = 8;
  Scheduler sched{sim, cfg};
  int flaky_calls = 0;
  sched.register_command("ok", [](const classad::ClassAd&,
                                  std::function<void(bool)> done) { done(true); });
  sched.register_command("flaky",
                         [&](const classad::ClassAd&, std::function<void(bool)> done) {
                           ++flaky_calls;
                           done(flaky_calls >= 3);
                         });
  sched.register_command(
      "fail_rb",
      [](const classad::ClassAd&, std::function<void(bool)> done) { done(false); },
      [](const classad::ClassAd&, std::function<void()> fin) { fin(); });
  sched.register_command("fail", [](const classad::ClassAd&,
                                    std::function<void(bool)> done) { done(false); });
  sched.submit(job_ad("ok"), JobClass::kImmediate);
  sched.submit(job_ad("flaky"), JobClass::kImmediate);
  sched.submit(job_ad("fail_rb"), JobClass::kImmediate);
  sched.submit(job_ad("fail"), JobClass::kImmediate);
  const JobId cancelled = sched.submit(job_ad("ok"), JobClass::kWhenIdle, -5);
  sched.set_idle_probe([] { return false; });  // keep it queued
  sched.cancel(cancelled);

  // Mid-run cutoff: retries still in flight.
  sim.run_until(sim::SimTime{sim::seconds(1.5).micros()});
  for (const auto& [id, status] : recover_statuses(sched.log())) {
    ASSERT_NE(sched.find(id), nullptr);
    EXPECT_EQ(sched.find(id)->status, status) << "mid-run divergence, job " << id.value();
  }

  sim.run();
  const auto statuses = recover_statuses(sched.log());
  EXPECT_EQ(statuses.size(), 5u);
  for (const auto& [id, status] : statuses) {
    ASSERT_NE(sched.find(id), nullptr);
    EXPECT_EQ(sched.find(id)->status, status) << "final divergence, job " << id.value();
  }
  EXPECT_EQ(statuses.at(cancelled), JobStatus::kCancelled);
}

// ---------- machine ads ----------

TEST(Machines, AdvertiseAndQuery) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    classad::ClassAd ad;
    ad.insert_int("Node", i);
    ad.insert_string("State", i < 2 ? "active" : "standby");
    f.sched.advertise("dn" + std::to_string(i), std::move(ad));
  }
  EXPECT_EQ(f.sched.machine_count(), 4u);
  const auto active = f.sched.query_machines("State == \"active\"");
  EXPECT_EQ(active, (std::vector<std::string>{"dn0", "dn1"}));
  const auto standby = f.sched.query_machines("State == \"standby\" && Node > 2");
  EXPECT_EQ(standby, (std::vector<std::string>{"dn3"}));
}

TEST(Machines, AdvertiseRefreshes) {
  Fixture f;
  classad::ClassAd ad;
  ad.insert_string("State", "standby");
  f.sched.advertise("dn0", ad);
  EXPECT_TRUE(f.sched.query_machines("State == \"active\"").empty());
  ad.insert_string("State", "active");
  f.sched.advertise("dn0", ad);
  EXPECT_EQ(f.sched.query_machines("State == \"active\"").size(), 1u);
}

TEST(Machines, BadConstraintThrows) {
  Fixture f;
  f.sched.advertise("dn0", classad::ClassAd{});
  EXPECT_THROW(f.sched.query_machines("State == "), classad::ParseError);
}

TEST(Machines, NonBooleanConstraintMatchesNothing) {
  Fixture f;
  classad::ClassAd ad;
  ad.insert_int("Node", 1);
  f.sched.advertise("dn0", ad);
  EXPECT_TRUE(f.sched.query_machines("Node").empty());        // int, not bool
  EXPECT_TRUE(f.sched.query_machines("Missing == 1").empty());  // undefined
}

TEST(Scheduler, TerminateCallbackCanSubmitFollowUp) {
  // ERMS's executors chain jobs from terminate callbacks; re-entrancy into
  // the scheduler must be safe.
  Fixture f;
  f.sched.register_command("noop", [](const classad::ClassAd&,
                                      std::function<void(bool)> done) { done(true); });
  int completed = 0;
  f.sched.submit(job_ad("noop"), JobClass::kImmediate, 0, [&](const Job&) {
    ++completed;
    f.sched.submit(job_ad("noop"), JobClass::kImmediate, 0,
                   [&](const Job&) { ++completed; });
  });
  f.sim.run();
  EXPECT_EQ(completed, 2);
}

TEST(Machines, Invalidate) {
  Fixture f;
  f.sched.advertise("dn0", classad::ClassAd{});
  EXPECT_TRUE(f.sched.invalidate("dn0"));
  EXPECT_FALSE(f.sched.invalidate("dn0"));
  EXPECT_EQ(f.sched.machine(std::string("dn0")), nullptr);
}

}  // namespace
}  // namespace erms::condor
