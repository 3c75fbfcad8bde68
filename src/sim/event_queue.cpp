#include "sim/event_queue.h"

#include <cassert>

namespace erms::sim {

EventHandle EventQueue::schedule(SimTime at, Callback fn) {
  return schedule_reserved(at, next_seq_++, std::move(fn));
}

EventHandle EventQueue::schedule_reserved(SimTime at, std::uint64_t seq, Callback fn) {
  assert(seq < next_seq_);
  auto cancelled = std::make_shared<bool>(false);
  EventHandle handle{cancelled};
  queue_.push(Entry{at, seq, std::move(fn), std::move(cancelled)});
  return handle;
}

void EventQueue::drop_cancelled() {
  while (!queue_.empty() && *queue_.top().cancelled) {
    queue_.pop();
  }
}

bool EventQueue::empty() {
  drop_cancelled();
  return queue_.empty();
}

SimTime EventQueue::next_time() {
  drop_cancelled();
  assert(!queue_.empty());
  return queue_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  assert(!queue_.empty());
  // priority_queue::top() is const; the entry is about to be discarded so the
  // move through const_cast is safe and avoids copying the std::function.
  Entry& top = const_cast<Entry&>(queue_.top());
  // Mark fired so outstanding handles report !pending().
  *top.cancelled = true;
  Fired fired{top.time, std::move(top.fn)};
  queue_.pop();
  return fired;
}

}  // namespace erms::sim
