#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/time.h"

namespace erms::sim {

/// Handle to a scheduled event; lets the owner cancel it before it fires.
/// Cancellation is lazy: the queue entry stays until popped, then is skipped.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly or on
  /// a default-constructed handle.
  void cancel() {
    if (auto state = state_.lock()) {
      *state = true;
    }
  }

  /// True while the event is still pending (scheduled, not fired, not
  /// cancelled through another copy of the handle).
  [[nodiscard]] bool pending() const {
    auto state = state_.lock();
    return state != nullptr && !*state;
  }

 private:
  friend class EventQueue;
  explicit EventHandle(std::weak_ptr<bool> state) : state_(std::move(state)) {}
  std::weak_ptr<bool> state_;
};

/// Time-ordered event queue. Ties are broken by insertion sequence so runs
/// are deterministic for a fixed seed. Cancelled entries are skipped lazily;
/// `empty()`/`next_time()` first drain any cancelled entries at the front.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` at absolute time `at`. Returns a cancellation handle.
  EventHandle schedule(SimTime at, Callback fn);

  /// Take the sequence number the next schedule() would use. An event
  /// scheduled later with schedule_reserved() and this number sorts among
  /// same-time events as if it had been scheduled now. An unused
  /// reservation leaves a gap in the numbering and changes no order.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at `at` with a number from reserve_seq().
  EventHandle schedule_reserved(SimTime at, std::uint64_t seq, Callback fn);

  [[nodiscard]] bool empty();

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Pop and return the earliest pending event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback fn;
  };
  Fired pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return b.time < a.time;
      }
      return b.seq < a.seq;
    }
  };

  void drop_cancelled();

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_{0};
};

}  // namespace erms::sim
