#pragma once

#include <cstdint>

#include "harness.h"

namespace erms::judge {
class AccessStatsFeed;
}

namespace ermsbench {

// Each entry point runs its workload's episodes and prints the result line
// (see run_episodes); the return value is the process exit code. README.md
// says what each workload stresses and why it was chosen.
int run_replay_uniform(const Options& options);
int run_lifecycle_skewed(const Options& options);
int run_writes_failures(const Options& options);
int run_ec_bytes(const Options& options);

/// Live window groups of the Data Judge's four standing queries, counted
/// through the feed's visitors.
std::uint64_t window_groups(const erms::judge::AccessStatsFeed& feed);

}  // namespace ermsbench
