// ermsbench — the repository benchmark binary. ermsbench/run.py builds and
// runs it; it can also be run directly:
//
//   ermsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>]
//   ermsbench --list-metrics
//
// Prints episode lines, a provenance line, every metric with its unit, and
// as its last line one JSON result object. Exits 1 when an output check
// fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ermsbench --workload replay_uniform|lifecycle_skewed|"
               "writes_failures|ec_bytes --seed N --seconds S --trace 0|1 [--source ID]\n"
               "       ermsbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  for (const auto& m : ermsbench::end_to_end_metrics()) {
    std::printf("end_to_end %.*s %.*s\n", static_cast<int>(m.name.size()), m.name.data(),
                static_cast<int>(m.unit.size()), m.unit.data());
  }
  for (const auto& m : ermsbench::per_layer_metrics()) {
    std::printf("per_layer %.*s %.*s\n", static_cast<int>(m.name.size()), m.name.data(),
                static_cast<int>(m.unit.size()), m.unit.data());
  }
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  ermsbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      o.seed = n;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0.0)) {
        return usage();
      }
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      o.trace = n == 1;
    } else if (arg == "--source") {
      o.source_id = value;
    } else {
      return usage();
    }
  }
  if (o.workload == "replay_uniform") {
    return ermsbench::run_replay_uniform(o);
  }
  if (o.workload == "lifecycle_skewed") {
    return ermsbench::run_lifecycle_skewed(o);
  }
  if (o.workload == "writes_failures") {
    return ermsbench::run_writes_failures(o);
  }
  if (o.workload == "ec_bytes") {
    return ermsbench::run_ec_bytes(o);
  }
  return usage();
}
