#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace erms::sim {

/// Discrete-event simulation driver: a virtual clock plus the event queue.
/// All simulated components hold a reference to one Simulation and schedule
/// callbacks on it; `run()` advances the clock event by event.
class Simulation {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule_after(SimDuration delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, EventQueue::Callback fn) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(fn));
  }

  /// Reserve a queue position now for an event scheduled later (see
  /// EventQueue::reserve_seq).
  [[nodiscard]] std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// schedule_at() with a sequence number from reserve_seq().
  EventHandle schedule_at_reserved(SimTime at, std::uint64_t seq,
                                   EventQueue::Callback fn) {
    return queue_.schedule_reserved(at < now_ ? now_ : at, seq, std::move(fn));
  }

  /// Register `fn` to run before every read of the event queue: before each
  /// event is popped and before run_until() moves the clock to its
  /// deadline. A component that defers work until the clock is about to
  /// move (the fabric's rate pass) settles it here. Returns an id for
  /// remove_pre_read_hook().
  std::uint64_t add_pre_read_hook(std::function<void()> fn);
  void remove_pre_read_hook(std::uint64_t id);

  /// Run one event. Returns false if the queue was empty.
  bool step();

  /// Run until the queue drains or `stop()` is called.
  void run();

  /// Run until the virtual clock reaches `deadline` (events at exactly
  /// `deadline` are executed). The clock is advanced to `deadline` even if
  /// the queue drains earlier.
  void run_until(SimTime deadline);

  /// Ask a running `run()`/`run_until()` loop to return after the current
  /// event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Snapshot support: restore the clock and event counter verbatim. Pending
  /// events are closures and cannot be serialized — a restored run starts
  /// with an empty queue and every component re-arms its own events, which
  /// is why snapshots are only taken at quiescent points (DESIGN.md §16).
  void restore_clock(SimTime now, std::uint64_t events_executed) {
    now_ = now;
    events_executed_ = events_executed;
    stopped_ = false;
  }

 private:
  struct Hook {
    std::uint64_t id;
    std::function<void()> fn;
  };

  void run_pre_read_hooks() {
    for (const Hook& hook : hooks_) {
      hook.fn();
    }
  }

  /// Pop and run the earliest event. Returns false if the queue was empty.
  bool fire_next();

  SimTime now_{};
  EventQueue queue_;
  std::vector<Hook> hooks_;
  std::uint64_t next_hook_id_{0};
  bool stopped_{false};
  std::uint64_t events_executed_{0};
};

}  // namespace erms::sim
