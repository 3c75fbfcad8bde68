#include "cep/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "cep/event.h"
#include "snapshot/codec.h"

namespace erms::cep {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_bytes(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of the routing attribute's typed value; events missing the attribute
/// all land on shard 0.
std::uint64_t route_hash(const SlotValue* v) {
  if (v == nullptr) {
    return 0;
  }
  switch (v->kind) {
    case SlotValue::Kind::kString:
      return hash_bytes(v->s.data(), v->s.size());
    case SlotValue::Kind::kInt:
      return splitmix64(static_cast<std::uint64_t>(v->i));
    case SlotValue::Kind::kReal: {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v->r));
      std::memcpy(&bits, &v->r, sizeof(bits));
      return splitmix64(bits);
    }
    case SlotValue::Kind::kBool:
      return v->b ? 1 : 0;
    case SlotValue::Kind::kNull:
      return 0;
  }
  return 0;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions opts)
    : attrs_(std::make_shared<SymbolTable>(/*fold_case=*/true)),
      streams_(std::make_shared<SymbolTable>(/*fold_case=*/false)),
      batch_events_(std::max<std::size_t>(1, opts.batch_events)),
      pool_(opts.pool) {
  std::size_t n = opts.shards;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Engine>(attrs_, streams_));
  }
  pending_.resize(n);
  route_slot_ = attrs_->intern(opts.route_by);
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(0);
    pool_ = owned_pool_.get();
  }
}

ShardedEngine::~ShardedEngine() { flush(); }

QueryId ShardedEngine::register_query(Query query, Listener listener) {
  flush();
  QueryId id{};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const QueryId got = shards_[s]->register_query(query, listener);
    if (s == 0) {
      id = got;
    } else {
      assert(got == id && "shard query ids diverged");
      (void)got;
    }
  }
  return id;
}

bool ShardedEngine::remove_query(QueryId id) {
  flush();
  bool removed = false;
  for (auto& shard : shards_) {
    removed = shard->remove_query(id) || removed;
  }
  return removed;
}

std::size_t ShardedEngine::query_count() const { return shards_.front()->query_count(); }

void ShardedEngine::set_use_fast_path(bool on) {
  for (auto& shard : shards_) {
    shard->set_use_fast_path(on);
  }
}

std::size_t ShardedEngine::route(const SlottedEvent& e) const {
  if (shards_.size() == 1) {
    return 0;
  }
  return static_cast<std::size_t>(route_hash(e.get(route_slot_)) % shards_.size());
}

void ShardedEngine::push_slotted(const SlottedEvent& event) {
  ++events_;
  const std::size_t s = route(event);
  pending_[s].append(event);
  ++pending_count_;
  if (!has_pending_ || event.time > pending_max_time_) {
    pending_max_time_ = event.time;
    has_pending_ = true;
  }
  if (pending_[s].size() >= batch_events_) {
    flush();
  }
}

void ShardedEngine::push_batch(const EventBatch& batch) {
  // Same semantics as push_slotted per event — including the mid-batch
  // flush whenever a shard's pending batch fills — but the whole span is
  // routed in one call, so the feed pays one virtual dispatch per batch.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SlottedEvent& event = batch[i];
    ++events_;
    const std::size_t s = route(event);
    pending_[s].append(event);
    ++pending_count_;
    if (!has_pending_ || event.time > pending_max_time_) {
      pending_max_time_ = event.time;
      has_pending_ = true;
    }
    if (pending_[s].size() >= batch_events_) {
      flush();
    }
  }
}

void ShardedEngine::push(const Event& event) {
  convert_scratch_.reset(event.time, streams_->intern(event.type));
  for (const std::string& name : event.attrs.attribute_names()) {
    const classad::Value v = event.attrs.evaluate(name);
    const Slot slot = attrs_->intern(name);
    switch (v.type()) {
      case classad::Value::Type::kBool:
        convert_scratch_.set_bool(slot, v.as_bool());
        break;
      case classad::Value::Type::kInt:
        convert_scratch_.set_int(slot, v.as_int());
        break;
      case classad::Value::Type::kReal:
        convert_scratch_.set_real(slot, v.as_real());
        break;
      case classad::Value::Type::kString:
        convert_scratch_.set_string(slot, v.as_string());
        break;
      default:
        break;
    }
  }
  push_slotted(convert_scratch_);
}

void ShardedEngine::flush() {
  if (!has_pending_) {
    return;
  }
  const sim::SimTime max_time = pending_max_time_;
  pool_->parallel_for(shards_.size(), [this, max_time](std::size_t s) {
    Engine& eng = *shards_[s];
    eng.push_batch(pending_[s]);
    // Mirror the scalar engine: every query's time window has seen the
    // batch's high-water time, whether or not this shard got an event.
    eng.advance_to(max_time);
  });
  for (EventBatch& batch : pending_) {
    batch.clear();
  }
  pending_count_ = 0;
  has_pending_ = false;
}

void ShardedEngine::advance_to(sim::SimTime now) {
  flush();
  for (auto& shard : shards_) {
    shard->advance_to(now);
  }
}

std::vector<Engine::RawGroup> ShardedEngine::merged_raw(QueryId id, GroupOrder order) {
  flush();
  std::vector<Engine::RawGroup> merged;
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return merged;
  }
  std::unordered_map<std::string, std::size_t> index;
  for (auto& shard : shards_) {
    for (Engine::RawGroup& g : shard->raw_snapshot(id)) {
      const auto [it, inserted] = index.emplace(g.key, merged.size());
      if (inserted) {
        merged.push_back(std::move(g));
        continue;
      }
      Engine::RawGroup& dst = merged[it->second];
      dst.count += g.count;
      for (std::size_t i = 0; i < q->select.size(); ++i) {
        Engine::RawAggregate& a = dst.aggs[i];
        const Engine::RawAggregate& b = g.aggs[i];
        a.sum += b.sum;
        a.non_null += b.non_null;
        if (b.has_extreme) {
          if (!a.has_extreme) {
            a.extreme = b.extreme;
            a.has_extreme = true;
          } else if (q->select[i].kind == Aggregate::Kind::kMin) {
            a.extreme = std::min(a.extreme, b.extreme);
          } else {
            a.extreme = std::max(a.extreme, b.extreme);
          }
        }
      }
    }
  }
  if (order == GroupOrder::kSorted) {
    std::sort(merged.begin(), merged.end(), [](const Engine::RawGroup& a,
                                               const Engine::RawGroup& b) {
      return a.key < b.key;
    });
  }
  return merged;
}

std::vector<ResultRow> ShardedEngine::snapshot(QueryId id) {
  std::vector<ResultRow> out;
  const std::vector<Engine::RawGroup> merged = merged_raw(id);
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return out;
  }
  out.reserve(merged.size());
  for (const Engine::RawGroup& g : merged) {
    out.push_back(Engine::render_row(*q, g));
  }
  return out;
}

void ShardedEngine::for_each_group(QueryId id, const GroupVisitor& fn, GroupOrder order) {
  // With kSorted, merged_raw sums per-shard counts and sorts by joined key,
  // so the visit order and counts are byte-identical to the scalar
  // engine's. kUnordered skips the sort and visits in merge order. Shards
  // intern separately, so each key is rebuilt from its rendered values under
  // the scalar engine's canonical rule; string columns carry no id.
  std::vector<std::uint64_t> words;
  for (const Engine::RawGroup& g : merged_raw(id, order)) {
    words.assign(g.key_values.size(), 0);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < g.key_values.size(); ++i) {
      if (const auto v = canonical_int(g.key_values[i])) {
        words[i] = static_cast<std::uint64_t>(*v);
      } else {
        mask |= 1U << i;
      }
    }
    fn(GroupKeyView{words.data(), mask, words.size()}, g.count);
  }
}

std::optional<ResultRow> ShardedEngine::group_row(QueryId id,
                                                  const std::vector<std::string>& key) {
  flush();
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return std::nullopt;
  }
  std::optional<Engine::RawGroup> merged;
  for (auto& shard : shards_) {
    std::optional<Engine::RawGroup> g = shard->raw_group(id, key);
    if (!g) {
      continue;
    }
    if (!merged) {
      merged = std::move(g);
      continue;
    }
    merged->count += g->count;
    for (std::size_t i = 0; i < q->select.size(); ++i) {
      Engine::RawAggregate& a = merged->aggs[i];
      const Engine::RawAggregate& b = g->aggs[i];
      a.sum += b.sum;
      a.non_null += b.non_null;
      if (b.has_extreme) {
        if (!a.has_extreme) {
          a.extreme = b.extreme;
          a.has_extreme = true;
        } else if (q->select[i].kind == Aggregate::Kind::kMin) {
          a.extreme = std::min(a.extreme, b.extreme);
        } else {
          a.extreme = std::max(a.extreme, b.extreme);
        }
      }
    }
  }
  if (!merged) {
    return std::nullopt;
  }
  return Engine::render_row(*q, *merged);
}

void ShardedEngine::save_state(snapshot::Writer& w) {
  flush();
  w.u64(shards_.size());
  for (const auto& shard : shards_) {
    shard->save_state(w);
  }
  w.u64(events_);
}

void ShardedEngine::load_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.require(n == shards_.size(), "engine shard count")) return;
  for (const auto& shard : shards_) {
    shard->load_state(r);
    if (!r.ok()) return;
  }
  events_ = r.u64();
}

}  // namespace erms::cep
