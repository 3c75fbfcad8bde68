// ec_bytes: the byte-level codec kernels. In the simulated workloads erasure
// coding moves flows and metadata, never bytes, so this is the only place
// the gf_region kernels run. Every episode encodes stripes of seeded bytes
// with each cold-band code (k = 8, the paper's 4-parity budget), erases one
// shard per stripe and repairs it through the code's own repair plan, and
// checks the rebuilt bytes against the original.
//
// The codecs run serially. On a shared host the pool's parallel speed-up
// comes and goes with the neighbours' load (measured: 2.5x with an idle
// host, none with a busy one), which would swamp any change to the kernels.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "ec/codec_registry.h"
#include "ec/gf_region.h"
#include "sim/random.h"
#include "workloads.h"

namespace ermsbench {
namespace {

namespace ec = erms::ec;

constexpr std::size_t kDataShards = 8;
constexpr std::size_t kShardBytes = std::size_t{1} << 20;
constexpr std::size_t kStripes = 8;

struct CodecCase {
  const char* name;
  ec::CodecSpec spec;
};

const CodecCase kCodecs[] = {
    {"rs", ec::CodecSpec{ec::CodecKind::kRs, 4, 0, 0}},
    {"azure_lrc", ec::CodecSpec{ec::CodecKind::kAzureLrc, 0, 2, 2}},
    {"hh_xor_plus", ec::CodecSpec{ec::CodecKind::kHitchhikerXorPlus, 4, 0, 0}},
};

/// Sampled fingerprint of a shard: its length and its first and last words.
void fingerprint(Digest& d, const ec::ErasureCodec::Shard& s) {
  d.add(s.size());
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  if (s.size() >= sizeof head) {
    std::memcpy(&head, s.data(), sizeof head);
    std::memcpy(&tail, s.data() + s.size() - sizeof tail, sizeof tail);
  }
  d.add(head).add(tail);
}

Episode ec_episode(const Options& o, Tracer* tracer) {
  Episode ep;
  const auto setup_start = Clock::now();
  std::vector<std::unique_ptr<ec::ErasureCodec>> codecs;
  for (const CodecCase& c : kCodecs) {
    codecs.push_back(ec::make_codec(c.spec, kDataShards));
  }
  const auto gen_start = Clock::now();
  erms::sim::Rng rng{o.seed};
  std::vector<std::vector<ec::ErasureCodec::Shard>> stripes(
      kStripes, std::vector<ec::ErasureCodec::Shard>(kDataShards,
                                                     ec::ErasureCodec::Shard(kShardBytes)));
  for (auto& stripe : stripes) {
    for (auto& shard : stripe) {
      for (std::size_t i = 0; i < kShardBytes; i += sizeof(std::uint64_t)) {
        const std::uint64_t w = rng.next_u64();
        std::memcpy(shard.data() + i, &w, sizeof w);
      }
    }
  }
  ep.setup_s = seconds_since(setup_start);
  const double gen_s = seconds_since(gen_start);

  Digest digest;
  double encode_s = 0.0;
  double repair_s = 0.0;
  std::uint64_t mismatches = 0;
  const auto run_start = Clock::now();
  for (std::size_t c = 0; c < codecs.size(); ++c) {
    const ec::ErasureCodec& codec = *codecs[c];
    const std::size_t total = codec.total_shards();
    double enc_s = 0.0;
    double rep_s = 0.0;
    double read_shards = 0.0;
    for (std::size_t s = 0; s < kStripes; ++s) {
      auto t0 = Clock::now();
      std::vector<ec::ErasureCodec::Shard> shards;
      {
        const Span span(tracer, Layer::kEcEncode);
        shards = codec.encode(stripes[s]);
      }
      const double encode_call_s = seconds_since(t0);
      ep.add_unit(encode_call_s);
      enc_s += encode_call_s;
      for (const auto& p : shards) {
        fingerprint(digest, p);
      }
      // Full stripe: data shards first, then the parities just computed.
      shards.insert(shards.begin(), stripes[s].begin(), stripes[s].end());
      const std::size_t lost = (s * 5 + o.seed) % total;
      const ec::ErasureCodec::Shard original = std::move(shards[lost]);
      shards[lost].clear();
      std::vector<bool> present(total, true);
      present[lost] = false;
      bool ok = false;
      t0 = Clock::now();
      {
        const Span span(tracer, Layer::kEcRepair);
        const auto plan = codec.plan_repair(lost, present);
        if (plan.has_value()) {
          ok = codec.repair(shards, lost, *plan);
          read_shards += plan->shard_equivalents();
        }
      }
      const double repair_call_s = seconds_since(t0);
      ep.add_unit(repair_call_s);
      rep_s += repair_call_s;
      const bool exact = ok && shards[lost] == original;
      mismatches += exact ? 0 : 1;
      ep.check(exact, std::string(kCodecs[c].name) + " repair is not byte-exact");
      ep.attempted += 2;  // one stripe encode, one shard repair
      ep.failed += exact ? 0 : 1;
    }
    const std::string name = kCodecs[c].name;
    const double data_mb = static_cast<double>(kStripes * kDataShards * kShardBytes) / 1e6;
    const double repaired_mb = static_cast<double>(kStripes * kShardBytes) / 1e6;
    ep.values["ec.encode_mb_s." + name] = data_mb / enc_s;
    ep.values["ec.repair_mb_s." + name] = repaired_mb / rep_s;
    ep.values["ec.repair_read_shards." + name] = read_shards / static_cast<double>(kStripes);
    encode_s += enc_s;
    repair_s += rep_s;
  }
  const double wall_s = seconds_since(run_start) - ep.cal_s();
  const double codecs_n = static_cast<double>(codecs.size());
  ep.ops = static_cast<double>(ep.attempted - ep.failed);
  ep.values["ec_encode_mb_s"] =
      codecs_n * static_cast<double>(kStripes * kDataShards * kShardBytes) / 1e6 / encode_s;
  ep.values["ec_repair_mb_s"] =
      codecs_n * static_cast<double>(kStripes * kShardBytes) / 1e6 / repair_s;
  ep.values["fail_ratio"] =
      static_cast<double>(ep.failed) / static_cast<double>(std::max<std::uint64_t>(1, ep.attempted));
  ep.values["bench.gen_s"] = gen_s;
  if (tracer != nullptr) {
    ep.values["bench.attributed_share"] =
        (tracer->self_s(Layer::kEcEncode) + tracer->self_s(Layer::kEcRepair)) / wall_s;
  }
  ep.digest = digest.add(mismatches).add(ep.attempted).value();
  return ep;
}

}  // namespace

int run_ec_bytes(const Options& options) {
  const Params params = {
      {"data_shards", std::to_string(kDataShards)},
      {"shard_bytes", std::to_string(kShardBytes)},
      {"stripes_per_codec", std::to_string(kStripes)},
      {"codecs", "rs(8,4) azure_lrc(8,2,2) hh_xor_plus(8,4)"},
      {"codec_threads", "1"},
      {"ec_kernel", std::string(ec::kernel_name(ec::active_kernel()))},
  };
  return run_episodes(options, params, ec_episode);
}

}  // namespace ermsbench
