#include "sim/simulation.h"

namespace erms::sim {

std::uint64_t Simulation::add_pre_read_hook(std::function<void()> fn) {
  const std::uint64_t id = next_hook_id_++;
  hooks_.push_back(Hook{id, std::move(fn)});
  return id;
}

void Simulation::remove_pre_read_hook(std::uint64_t id) {
  std::erase_if(hooks_, [id](const Hook& hook) { return hook.id == id; });
}

bool Simulation::fire_next() {
  if (queue_.empty()) {
    return false;
  }
  EventQueue::Fired fired = queue_.pop();
  now_ = fired.time;
  ++events_executed_;
  fired.fn();
  return true;
}

bool Simulation::step() {
  run_pre_read_hooks();
  return fire_next();
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime deadline) {
  stopped_ = false;
  while (true) {
    // Hooks also run before the final clock jump, stopped or not, so no
    // deferred work sees the clock move under it.
    run_pre_read_hooks();
    if (stopped_ || queue_.empty() || queue_.next_time() > deadline) {
      break;
    }
    fire_next();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace erms::sim
