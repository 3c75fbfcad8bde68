#include "cep/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "cep/event.h"
#include "snapshot/codec.h"

namespace erms::cep {

namespace {

/// murmur3's 64-bit finaliser.
std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// 64-bit hash of a typed key: its words and string mask.
std::uint64_t hash_key(const std::uint64_t* words, std::size_t width, std::uint32_t mask) {
  std::uint64_t h = mask;
  for (std::size_t i = 0; i < width; ++i) {
    h = (h ^ words[i]) * 0x9E3779B97F4A7C15ULL;
  }
  return fmix64(h);
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += '\x1f';
    }
    out += parts[i];
  }
  return out;
}

}  // namespace

std::optional<std::int64_t> canonical_int(std::string_view text) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, v);
  if (parsed.ec != std::errc{} || parsed.ptr != end) {
    return std::nullopt;
  }
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  if (std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)) != text) {
    return std::nullopt;  // "07", "-0" and the like parse but render differently
  }
  return v;
}

std::uint32_t Engine::StringTable::find(std::string_view text) const {
  const auto it = index_.find(text);
  return it == index_.end() ? kNone : it->second;
}

std::uint32_t Engine::StringTable::intern(std::string_view text) {
  const auto it = index_.find(text);
  if (it != index_.end()) {
    return it->second;
  }
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(text_.size());
    text_.push_back(nullptr);
    refs_.push_back(0);
  }
  const auto ins = index_.emplace(std::string(text), id).first;
  text_[id] = &ins->first;  // node-based map: the key's address is stable
  return id;
}

void Engine::StringTable::release(std::uint32_t id) {
  assert(refs_[id] > 0 && "releasing an unreferenced string");
  if (--refs_[id] == 0) {
    index_.erase(*text_[id]);
    text_[id] = nullptr;
    free_.push_back(id);
  }
}

void Engine::StringTable::save(snapshot::Writer& w) const {
  w.u64(text_.size());
  for (const std::string* t : text_) {
    w.u8(t != nullptr ? 1 : 0);
    if (t != nullptr) {
      w.str(*t);
    }
  }
  w.u64(free_.size());
  for (const std::uint32_t id : free_) w.u32(id);
}

void Engine::StringTable::load(snapshot::Reader& r) {
  index_.clear();
  text_.clear();
  refs_.clear();
  free_.clear();
  const std::uint64_t n = r.u64();
  if (!r.require(n <= r.remaining() && n < kNone, "string table size")) return;
  text_.assign(n, nullptr);
  refs_.assign(n, 0);
  for (std::uint64_t id = 0; id < n && r.ok(); ++id) {
    const std::uint8_t live = r.u8();
    if (live > 1) {
      r.fail(snapshot::ErrorCode::kBadSection, "engine: string table flag");
      return;
    }
    if (live == 0) {
      continue;
    }
    std::string text = r.str();
    if (canonical_int(text)) {
      r.fail(snapshot::ErrorCode::kBadSection, "engine: string table holds an int");
      return;
    }
    const auto [it, inserted] = index_.emplace(std::move(text), static_cast<std::uint32_t>(id));
    if (!inserted) {
      r.fail(snapshot::ErrorCode::kBadSection, "engine: duplicate string table entry");
      return;
    }
    text_[id] = &it->first;
  }
  const std::uint64_t nfree = r.u64();
  if (!r.require(nfree <= r.remaining() / 4 + 1, "string freelist size")) return;
  std::vector<bool> seen(text_.size(), false);
  for (std::uint64_t i = 0; i < nfree && r.ok(); ++i) {
    const std::uint32_t id = r.u32();
    if (id >= text_.size() || text_[id] != nullptr || seen[id]) {
      r.fail(snapshot::ErrorCode::kBadSection, "engine: string freelist entry");
      return;
    }
    seen[id] = true;
    free_.push_back(id);
  }
  if (r.ok() && free_.size() + index_.size() != text_.size()) {
    r.fail(snapshot::ErrorCode::kBadSection, "engine: string freelist misses a free id");
  }
}

bool Engine::StringTable::adopt_refs(std::vector<std::uint32_t> refs) {
  for (std::size_t id = 0; id < text_.size(); ++id) {
    if (text_[id] != nullptr && refs[id] == 0) {
      return false;
    }
  }
  refs_ = std::move(refs);
  return true;
}

Engine::Engine()
    : Engine(std::make_shared<SymbolTable>(/*fold_case=*/true),
             std::make_shared<SymbolTable>(/*fold_case=*/false)) {}

Engine::Engine(std::shared_ptr<SymbolTable> attrs, std::shared_ptr<SymbolTable> streams)
    : attrs_(std::move(attrs)), streams_(std::move(streams)) {}

QueryId Engine::register_query(Query query, Listener listener) {
  if (query.group_by.size() > kMaxGroupBy) {
    throw std::invalid_argument("GROUP BY lists " + std::to_string(query.group_by.size()) +
                                " attributes; at most " + std::to_string(kMaxGroupBy) +
                                " are supported");
  }
  const QueryId id = ids_.next();
  QueryState qs;
  qs.id = id;
  qs.plan = CompiledQuery::compile(query, *attrs_, *streams_);
  qs.width = query.group_by.size();
  qs.minmax = std::find(qs.plan.agg_is_minmax.begin(), qs.plan.agg_is_minmax.end(), true) !=
              qs.plan.agg_is_minmax.end();
  qs.query = std::move(query);
  qs.listener = std::move(listener);
  queries_.push_back(std::move(qs));
  return id;
}

bool Engine::remove_query(QueryId id) {
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if (it->id == id) {
      for (std::uint32_t s = 0; s < it->slots.size(); ++s) {
        if (it->slots[s].count > 0) {
          erase_group(*it, s);  // releases the group's strings
        }
      }
      queries_.erase(it);
      return true;
    }
  }
  return false;
}

Engine::QueryState* Engine::find_query(QueryId id) {
  for (QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

const Engine::QueryState* Engine::find_query(QueryId id) const {
  for (const QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

const Query* Engine::query(QueryId id) const {
  const QueryState* qs = find_query(id);
  return qs == nullptr ? nullptr : &qs->query;
}

bool Engine::event_matches(QueryState& qs, const SlottedEvent& e) {
  const CompiledQuery& plan = qs.plan;
  if (plan.stream != kNoSlot && plan.stream != e.stream) {
    return false;
  }
  if (plan.where == CompiledQuery::WhereMode::kNone) {
    return true;
  }
  if (plan.where == CompiledQuery::WhereMode::kFast && use_fast_path_) {
    for (const FastPred& p : plan.preds) {
      if (!eval_fast_pred(p, e)) {
        return false;
      }
    }
    return true;
  }
  // Compatibility adapter: rebuild a ClassAd view and run the expression.
  classad::ClassAd ad;
  to_classad(e, *attrs_, ad);
  const classad::Value v = ad.evaluate_expr(*qs.query.where);
  return v.is_bool() && v.as_bool();
}

std::uint32_t Engine::make_key(const QueryState& qs, const SlottedEvent& e,
                               std::uint64_t* words, bool intern) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < qs.width; ++i) {
    const SlotValue* v = e.get(qs.plan.group_slots[i]);
    if (v != nullptr && v->kind == SlotValue::Kind::kInt) {
      words[i] = static_cast<std::uint64_t>(v->i);
      continue;
    }
    // Any other value keys by its text, rendered as group keys always were:
    // absent as "", reals via %g, bools as true/false.
    char buf[48];
    std::string_view text;
    if (v != nullptr) {
      switch (v->kind) {
        case SlotValue::Kind::kString:
          text = v->s;
          break;
        case SlotValue::Kind::kReal:
          text = std::string_view(
              buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%g", v->r)));
          break;
        case SlotValue::Kind::kBool:
          text = v->b ? "true" : "false";
          break;
        default:
          break;
      }
    }
    if (const auto n = canonical_int(text)) {
      words[i] = static_cast<std::uint64_t>(*n);
      continue;
    }
    mask |= 1U << i;
    if (intern) {
      words[i] = strings_.intern(text);
    }
  }
  return mask;
}

bool Engine::lookup_key(const std::vector<std::string>& key, std::uint64_t* words,
                        std::uint32_t& mask) const {
  mask = 0;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (const auto n = canonical_int(key[i])) {
      words[i] = static_cast<std::uint64_t>(*n);
      continue;
    }
    const std::uint32_t id = strings_.find(key[i]);
    if (id == StringTable::kNone) {
      return false;
    }
    mask |= 1U << i;
    words[i] = id;
  }
  return true;
}

void Engine::rehash(QueryState& qs, std::size_t min_buckets) {
  std::size_t cap = 16;
  while (cap < min_buckets) {
    cap <<= 1;
  }
  qs.buckets.assign(cap, kEmptyBucket);
  const std::size_t mask = cap - 1;
  for (std::size_t s = 0; s < qs.slots.size(); ++s) {
    GroupState& g = qs.slots[s];
    if (g.count == 0) {
      continue;  // freelisted slot
    }
    std::size_t i = g.hash & mask;
    while (qs.buckets[i] != kEmptyBucket) {
      i = (i + 1) & mask;
    }
    qs.buckets[i] = static_cast<std::uint32_t>(s);
    g.bucket = static_cast<std::uint32_t>(i);
  }
  qs.bucket_used = qs.live_groups;
}

std::uint32_t Engine::find_slot(const QueryState& qs, const std::uint64_t* words,
                                std::uint32_t mask, std::uint64_t h) const {
  if (qs.buckets.empty()) {
    return kEmptyBucket;
  }
  const std::size_t bmask = qs.buckets.size() - 1;
  for (std::size_t i = h & bmask;; i = (i + 1) & bmask) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kEmptyBucket) {
      return kEmptyBucket;
    }
    if (b != kTombBucket) {
      const GroupState& g = qs.slots[b];
      if (g.hash == h && g.str_mask == mask &&
          std::equal(words, words + qs.width, qs.key_words.data() + b * qs.width)) {
        return b;
      }
    }
  }
}

std::uint32_t Engine::resolve_group(QueryState& qs, const std::uint64_t* words,
                                    std::uint32_t mask, const std::uint64_t h) {
  if (qs.buckets.empty()) {
    rehash(qs, 16);
  }
  std::size_t bmask = qs.buckets.size() - 1;
  std::size_t i = h & bmask;
  std::size_t insert_at = static_cast<std::size_t>(-1);  // first tombstone seen
  for (;;) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kEmptyBucket) {
      break;
    }
    if (b == kTombBucket) {
      if (insert_at == static_cast<std::size_t>(-1)) {
        insert_at = i;
      }
    } else {
      const GroupState& g = qs.slots[b];
      if (g.hash == h && g.str_mask == mask &&
          std::equal(words, words + qs.width, qs.key_words.data() + b * qs.width)) {
        return b;
      }
    }
    i = (i + 1) & bmask;
  }
  const bool fills_empty = insert_at == static_cast<std::size_t>(-1);
  if (fills_empty && (qs.bucket_used + 1) * 2 > qs.buckets.size()) {
    // Keep the table at most half full of live+tombstone buckets. Sizing off
    // the live count alone sheds accumulated tombstones, so a churn-heavy
    // steady state rehashes the same-sized table every ~live/2 erases —
    // amortized O(1) per operation.
    rehash(qs, (qs.live_groups + 1) * 4);
    bmask = qs.buckets.size() - 1;
    i = h & bmask;
    while (qs.buckets[i] != kEmptyBucket) {
      i = (i + 1) & bmask;
    }
    insert_at = i;   // rehash reset bucket_used to the live count
    ++qs.bucket_used;
  } else if (fills_empty) {
    insert_at = i;
    ++qs.bucket_used;
  }
  // Take a recycled slot if one is free, else grow the pool by one.
  const std::size_t na = qs.plan.numeric_aggs;
  std::uint32_t slot;
  if (!qs.free_slots.empty()) {
    slot = qs.free_slots.back();
    qs.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(qs.slots.size());
    qs.slots.emplace_back();
    qs.key_words.resize(qs.key_words.size() + qs.width);
    qs.sums.resize(qs.sums.size() + na);
    qs.non_null.resize(qs.non_null.size() + na);
    if (qs.minmax) {
      qs.mono.resize(qs.mono.size() + na);
      qs.next_seq.push_back(0);
    }
  }
  GroupState& g = qs.slots[slot];
  g.hash = h;
  g.bucket = static_cast<std::uint32_t>(insert_at);
  g.count = 0;
  g.str_mask = mask;
  std::copy(words, words + qs.width, qs.key_words.begin() + slot * qs.width);
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    strings_.retain(static_cast<std::uint32_t>(words[std::countr_zero(m)]));
  }
  std::fill_n(qs.sums.begin() + slot * na, na, 0.0);
  std::fill_n(qs.non_null.begin() + slot * na, na, 0);
  if (qs.minmax) {
    for (std::size_t k = 0; k < na; ++k) {
      qs.mono[slot * na + k].clear();
    }
    qs.next_seq[slot] = 0;
  }
  ++qs.live_groups;
  qs.buckets[insert_at] = slot;
  return slot;
}

void Engine::erase_group(QueryState& qs, std::uint32_t slot) {
  const GroupState& g = qs.slots[slot];
  assert(qs.buckets[g.bucket] == slot && "group's cached bucket index is stale");
  qs.buckets[g.bucket] = kTombBucket;
  --qs.live_groups;
  qs.free_slots.push_back(slot);
  for (std::uint32_t m = g.str_mask; m != 0; m &= m - 1) {
    strings_.release(
        static_cast<std::uint32_t>(qs.key_words[slot * qs.width + std::countr_zero(m)]));
  }
}

void Engine::insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot) {
  ++qs.slots[slot].count;
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    const std::size_t base = slot * plan.numeric_aggs;
    std::uint64_t seq = 0;
    if (qs.minmax) {
      seq = qs.next_seq[slot]++;
      qs.ring_seq.push_back(seq);
    }
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const SlotValue* v = e.get(plan.agg_slots[i]);
      double val = std::nan("");
      if (v != nullptr && v->is_number()) {
        const double n = v->as_number();
        if (!std::isnan(n)) {
          val = n;
          qs.sums[base + ni] += n;
          ++qs.non_null[base + ni];
          if (plan.agg_is_minmax[i]) {
            util::RingBuffer<MonoEntry>& dq = qs.mono[base + ni];
            if (qs.query.select[i].kind == Aggregate::Kind::kMin) {
              while (!dq.empty() && dq.back().value > n) {
                dq.pop_back();
              }
            } else {
              while (!dq.empty() && dq.back().value < n) {
                dq.pop_back();
              }
            }
            dq.push_back(MonoEntry{n, seq});
          }
        }
      }
      qs.ring_values.push_back(val);
    }
  }
  qs.ring.push_back(WindowEntry{e.time.micros(), slot});
}

void Engine::evict_front(QueryState& qs) {
  const WindowEntry ent = qs.ring.front();
  qs.ring.pop_front();
  GroupState& g = qs.slots[ent.slot];
  assert(g.count > 0 && "evicting from a missing group");
  --g.count;
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    const std::size_t base = ent.slot * plan.numeric_aggs;
    std::uint64_t seq = 0;
    if (qs.minmax) {
      seq = qs.ring_seq.front();
      qs.ring_seq.pop_front();
    }
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const double val = qs.ring_values.front();
      qs.ring_values.pop_front();
      if (!std::isnan(val)) {
        qs.sums[base + ni] -= val;
        --qs.non_null[base + ni];
        if (plan.agg_is_minmax[i]) {
          util::RingBuffer<MonoEntry>& dq = qs.mono[base + ni];
          if (!dq.empty() && dq.front().seq == seq) {
            dq.pop_front();
          }
        }
      }
    }
  }
  if (g.count == 0) {
    erase_group(qs, ent.slot);
  }
}

void Engine::evict_time(QueryState& qs, sim::SimTime now) {
  if (qs.query.window.kind != WindowSpec::Kind::kTime) {
    return;
  }
  const std::int64_t cutoff = (now - qs.query.window.duration).micros();
  // Eviction's cache miss is the victim's GroupState line (the ring entries
  // themselves are contiguous). Keep the next few victims' lines in flight
  // so a burst of expiries doesn't stall once per entry.
  constexpr std::size_t kAhead = 4;
  std::size_t primed = 0;  // entries [0, primed) of the ring are prefetched
  while (!qs.ring.empty() && qs.ring.front().time_us <= cutoff) {
    while (primed < kAhead && primed < qs.ring.size() &&
           qs.ring[primed].time_us <= cutoff) {
      __builtin_prefetch(&qs.slots[qs.ring[primed].slot]);
      ++primed;
    }
    evict_front(qs);
    if (primed > 0) {
      --primed;
    }
  }
}

void Engine::notify(QueryState& qs, std::uint32_t slot) {
  if (!qs.listener) {
    return;
  }
  if (qs.slots[slot].count == 0) {
    return;  // the group was fully evicted by a LENGTH window before notify
  }
  const ResultRow row = render_row(qs.query, export_group(qs, slot));
  if (qs.query.having) {
    const classad::Value v = row.values.evaluate_expr(*qs.query.having);
    if (!v.is_bool() || !v.as_bool()) {
      return;
    }
  }
  qs.listener(row);
}

void Engine::add_event(QueryState& qs, const SlottedEvent& e, const std::uint64_t* words,
                       std::uint32_t mask, std::uint64_t hash) {
  const std::uint32_t slot = resolve_group(qs, words, mask, hash);
  insert_event(qs, e, slot);
  if (qs.query.window.kind == WindowSpec::Kind::kLength) {
    while (qs.ring.size() > qs.query.window.count) {
      evict_front(qs);
    }
  }
  notify(qs, slot);
}

void Engine::push_one(QueryState& qs, const SlottedEvent& event) {
  // Time advances for every query's window, matching or not.
  evict_time(qs, event.time);
  if (!event_matches(qs, event)) {
    return;
  }
  std::array<std::uint64_t, kMaxGroupBy> words;
  const std::uint32_t mask = make_key(qs, event, words.data(), /*intern=*/true);
  add_event(qs, event, words.data(), mask, hash_key(words.data(), qs.width, mask));
}

void Engine::push_slotted(const SlottedEvent& event) {
  ++events_processed_;
  for (QueryState& qs : queries_) {
    push_one(qs, event);
  }
}

void Engine::push_batch(const EventBatch& batch) {
  events_processed_ += batch.size();
  // Query-major: queries share no window state, so running the whole batch
  // through one query before the next gives the per-event path's groups,
  // counts and pool order while keeping each query's plan, buckets and ring
  // hot in cache. Only listener firing order differs within a batch, and
  // with string keys the ids the shared string table hands out: an id is
  // only ever compared with live ids of the same table, so rows and visit
  // orders do not depend on which id a string got.
  for (QueryState& qs : queries_) {
    push_batch_query(qs, batch);
  }
}

void Engine::push_batch_query(QueryState& qs, const EventBatch& batch) {
  const std::size_t n = batch.size();
  if (n < kPipeDepth * 2) {
    for (std::size_t i = 0; i < n; ++i) {
      push_one(qs, batch[i]);
    }
    return;
  }
  // A matched event costs two dependent cache misses in resolve_group: the
  // bucket line (h & mask into a multi-MB array), then the GroupState line
  // it points at. This pipeline hides both behind later events' pure work.
  //
  //   fetch(i):  match test, key words, hash — all functions of the event
  //              and the immutable plan only — then prefetch the bucket line
  //              for the hash. Keys with string columns skip the hint: their
  //              ids are only settled when retire() interns them.
  //   probe(i):  peek the head bucket (its line is arriving by now) and
  //              prefetch the GroupState it names. The peek is only a hint:
  //              retire() may rehash or erase between probe and retirement,
  //              so retirement re-probes from scratch — a stale prefetch
  //              wastes a line, never correctness.
  //   retire(i): every mutation, in event order — evict_time, interning a
  //              string key (ids freed by that eviction may be reused), full
  //              resolve_group, insert_event, LENGTH eviction, notify.
  //              Identical call sequence to push_one, so query state stays
  //              byte-identical.
  constexpr std::size_t kMask = kPipeDepth - 1;
  constexpr std::size_t kProbeLag = kPipeDepth / 2;
  const auto fetch = [&](std::size_t i) {
    const SlottedEvent& e = batch[i];
    PipeSlot& p = pipe_[i & kMask];
    p.matched = event_matches(qs, e);
    if (!p.matched) {
      return;
    }
    p.mask = make_key(qs, e, p.words.data(), /*intern=*/false);
    if (p.mask == 0) {
      p.hash = hash_key(p.words.data(), qs.width, 0);
      if (!qs.buckets.empty()) {
        __builtin_prefetch(&qs.buckets[p.hash & (qs.buckets.size() - 1)]);
      }
    }
    // Warm the likely eviction victims too: by the time this event retires,
    // retirement will have consumed a few ring entries, so prefetch a little
    // way in. (Bursts are short — often one victim per event — so the
    // in-loop lookahead in evict_time alone starts every burst cold.)
    const std::size_t live = qs.ring.size();
    if (live > kPipeDepth) {
      __builtin_prefetch(&qs.slots[qs.ring[kPipeDepth - 2].slot]);
    }
  };
  const auto probe = [&](std::size_t i) {
    const PipeSlot& p = pipe_[i & kMask];
    if (!p.matched || p.mask != 0 || qs.buckets.empty()) {
      return;
    }
    const std::uint32_t b = qs.buckets[p.hash & (qs.buckets.size() - 1)];
    if (b < qs.slots.size()) {  // excludes the empty/tombstone sentinels
      __builtin_prefetch(&qs.slots[b]);
    }
  };
  const auto retire = [&](std::size_t i) {
    const SlottedEvent& e = batch[i];
    evict_time(qs, e.time);
    PipeSlot& p = pipe_[i & kMask];
    if (!p.matched) {
      return;
    }
    if (p.mask != 0) {
      p.mask = make_key(qs, e, p.words.data(), /*intern=*/true);
      p.hash = hash_key(p.words.data(), qs.width, p.mask);
    }
    add_event(qs, e, p.words.data(), p.mask, p.hash);
  };
  // retire() runs first each step so slot (t & kMask) is free before
  // fetch(t) overwrites it.
  for (std::size_t t = 0; t < n + kPipeDepth; ++t) {
    if (t >= kPipeDepth) {
      retire(t - kPipeDepth);
    }
    if (t < n) {
      fetch(t);
    }
    if (t >= kProbeLag && t - kProbeLag < n) {
      probe(t - kProbeLag);
    }
  }
}

void Engine::push(const Event& event) {
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
        break;  // UNDEFINED / ERROR attributes stay absent
    }
  }
  push_slotted(convert_scratch_);
}

void Engine::advance_to(sim::SimTime now) {
  for (QueryState& qs : queries_) {
    evict_time(qs, now);
  }
}

std::vector<std::string> Engine::render_key(const QueryState& qs, std::uint32_t slot) const {
  std::vector<std::string> out;
  out.reserve(qs.width);
  for (std::size_t c = 0; c < qs.width; ++c) {
    const std::uint64_t w = qs.key_words[slot * qs.width + c];
    if (((qs.slots[slot].str_mask >> c) & 1U) != 0) {
      out.push_back(strings_.text(static_cast<std::uint32_t>(w)));
      continue;
    }
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(w));
    out.emplace_back(buf, res.ptr);
  }
  return out;
}

Engine::RawGroup Engine::export_group(const QueryState& qs, std::uint32_t slot) const {
  RawGroup out;
  out.key_values = render_key(qs, slot);
  out.key = join(out.key_values);
  out.count = qs.slots[slot].count;
  out.aggs.resize(qs.query.select.size());
  const std::size_t base = slot * qs.plan.numeric_aggs;
  for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
    const std::int32_t ni = qs.plan.agg_numeric_index[i];
    if (ni < 0) {
      continue;
    }
    RawAggregate& agg = out.aggs[i];
    agg.sum = qs.sums[base + ni];
    agg.non_null = qs.non_null[base + ni];
    if (qs.plan.agg_is_minmax[i] && !qs.mono[base + ni].empty()) {
      agg.extreme = qs.mono[base + ni].front().value;
      agg.has_extreme = true;
    }
  }
  return out;
}

ResultRow Engine::render_row(const Query& q, const RawGroup& g) {
  ResultRow row;
  for (std::size_t i = 0; i < q.group_by.size(); ++i) {
    row.values.insert_string(q.group_by[i], g.key_values[i]);
  }
  for (std::size_t i = 0; i < q.select.size(); ++i) {
    const Aggregate& agg = q.select[i];
    switch (agg.kind) {
      case Aggregate::Kind::kCount:
        row.values.insert_int(agg.alias, static_cast<std::int64_t>(g.count));
        break;
      case Aggregate::Kind::kSum:
        row.values.insert_real(agg.alias, g.aggs[i].sum);
        break;
      case Aggregate::Kind::kAvg:
        if (g.aggs[i].non_null > 0) {
          row.values.insert_real(agg.alias,
                                 g.aggs[i].sum / static_cast<double>(g.aggs[i].non_null));
        }
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        if (g.aggs[i].has_extreme) {
          row.values.insert_real(agg.alias, g.aggs[i].extreme);
        }
        break;
    }
  }
  return row;
}

std::vector<Engine::RawGroup> Engine::raw_snapshot(QueryId id) const {
  std::vector<RawGroup> out;
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return out;
  }
  out.reserve(qs->live_groups);
  for (std::uint32_t s = 0; s < qs->slots.size(); ++s) {
    if (qs->slots[s].count > 0) {
      out.push_back(export_group(*qs, s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RawGroup& a, const RawGroup& b) { return a.key < b.key; });
  return out;
}

std::optional<Engine::RawGroup> Engine::raw_group(QueryId id,
                                                  const std::vector<std::string>& key) const {
  const QueryState* qs = find_query(id);
  if (qs == nullptr || key.size() != qs->width) {
    return std::nullopt;
  }
  std::array<std::uint64_t, kMaxGroupBy> words;
  std::uint32_t mask = 0;
  if (!lookup_key(key, words.data(), mask)) {
    return std::nullopt;
  }
  const std::uint32_t slot =
      find_slot(*qs, words.data(), mask, hash_key(words.data(), qs->width, mask));
  if (slot == kEmptyBucket) {
    return std::nullopt;
  }
  return export_group(*qs, slot);
}

std::vector<ResultRow> Engine::snapshot(QueryId id) {
  std::vector<ResultRow> out;
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return out;
  }
  std::vector<RawGroup> raw = raw_snapshot(id);
  out.reserve(raw.size());
  for (const RawGroup& g : raw) {
    out.push_back(render_row(qs->query, g));
  }
  return out;
}

void Engine::for_each_group(QueryId id, const GroupVisitor& fn, GroupOrder order) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return;
  }
  const auto visit = [&](std::uint32_t s) {
    const GroupState& g = qs->slots[s];
    fn(GroupKeyView{qs->key_words.data() + s * qs->width, g.str_mask, qs->width}, g.count);
  };
  if (order == GroupOrder::kUnordered) {
    // Pool order: deterministic for a given event history, no render, no
    // sort, no allocation — for consumers that scatter into dense arrays.
    for (std::uint32_t s = 0; s < qs->slots.size(); ++s) {
      if (qs->slots[s].count > 0) {
        visit(s);
      }
    }
    return;
  }
  // Sort by joined rendered key so scalar and sharded iteration agree exactly.
  std::vector<std::pair<std::string, std::uint32_t>> sorted;
  sorted.reserve(qs->live_groups);
  for (std::uint32_t s = 0; s < qs->slots.size(); ++s) {
    if (qs->slots[s].count > 0) {
      sorted.emplace_back(join(render_key(*qs, s)), s);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  for (const auto& entry : sorted) {
    visit(entry.second);
  }
}

std::optional<ResultRow> Engine::group_row(QueryId id, const std::vector<std::string>& key) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return std::nullopt;
  }
  const auto raw = raw_group(id, key);
  if (!raw) {
    return std::nullopt;
  }
  return render_row(qs->query, *raw);
}

// ---------------------------------------------------------------------------
// Snapshot support. The layout is serialised verbatim — string table, bucket
// table, slot pool with its key words, freelist, ring contents — rather than
// replayed, so probe sequences, slot and string-id reuse order and therefore
// every subsequent visit order are identical to the uninterrupted run.
// Doubles travel as raw bit patterns. Hashes and counters derivable from the
// rest (slot hashes, live and used bucket counts, string references) are
// recomputed on load, which doubles as a consistency check.
// ---------------------------------------------------------------------------

void Engine::save_state(snapshot::Writer& w) {
  w.u64(queries_.size());
  strings_.save(w);
  for (const QueryState& qs : queries_) {
    const std::size_t na = qs.plan.numeric_aggs;
    w.u64(qs.id.value());
    w.u32(static_cast<std::uint32_t>(na));
    w.u32(static_cast<std::uint32_t>(qs.width));

    w.u64(qs.ring.size());
    for (std::size_t i = 0; i < qs.ring.size(); ++i) {
      w.i64(qs.ring[i].time_us);
      w.u32(qs.ring[i].slot);
    }
    for (std::size_t i = 0; i < qs.ring_seq.size(); ++i) w.u64(qs.ring_seq[i]);
    for (std::size_t i = 0; i < qs.ring_values.size(); ++i) w.f64(qs.ring_values[i]);

    w.u64(qs.buckets.size());
    for (const std::uint32_t b : qs.buckets) w.u32(b);

    w.u64(qs.slots.size());
    for (const GroupState& g : qs.slots) {
      w.u64(g.count);
      w.u32(g.bucket);
      w.u32(g.str_mask);
    }
    for (const std::uint64_t word : qs.key_words) w.u64(word);
    for (const double s : qs.sums) w.f64(s);
    for (const std::uint64_t n : qs.non_null) w.u64(n);
    for (const std::uint64_t s : qs.next_seq) w.u64(s);
    for (const util::RingBuffer<MonoEntry>& dq : qs.mono) {
      w.u64(dq.size());
      for (std::size_t i = 0; i < dq.size(); ++i) {
        w.f64(dq[i].value);
        w.u64(dq[i].seq);
      }
    }

    w.u64(qs.free_slots.size());
    for (const std::uint32_t s : qs.free_slots) w.u32(s);
  }
  w.u64(ids_.peek());
  w.u64(events_processed_);
}

void Engine::load_query(QueryState& qs, snapshot::Reader& r, std::vector<std::uint32_t>& refs) {
  const auto bad = [&r](const char* what) {
    r.fail(snapshot::ErrorCode::kBadSection, std::string("engine: ") + what);
  };
  const std::uint64_t id = r.u64();
  if (!r.require(id == qs.id.value(), "engine query id")) return;
  const std::size_t na = qs.plan.numeric_aggs;
  if (!r.require(r.u32() == na, "query aggregate shape")) return;
  if (!r.require(r.u32() == qs.width, "query group-by width")) return;

  // Window: entries, then per-entry sequence numbers (min/max queries) and
  // aggregate inputs, their counts implied by the plan.
  const std::uint64_t ring_n = r.u64();
  if (!r.require(ring_n <= r.remaining() / 12 + 1, "window ring size")) return;
  qs.ring.clear();
  qs.ring_seq.clear();
  qs.ring_values.clear();
  for (std::uint64_t i = 0; i < ring_n && r.ok(); ++i) {
    const std::int64_t t = r.i64();
    qs.ring.push_back(WindowEntry{t, r.u32()});
  }
  for (std::uint64_t i = 0; qs.minmax && i < ring_n && r.ok(); ++i) {
    qs.ring_seq.push_back(r.u64());
  }
  for (std::uint64_t i = 0; i < ring_n * na && r.ok(); ++i) {
    qs.ring_values.push_back(r.f64());
  }

  const std::uint64_t nbuckets = r.u64();
  if (!r.require(nbuckets <= r.remaining() / 4 + 1, "bucket table size")) return;
  if (nbuckets != 0 && (nbuckets < 16 || !std::has_single_bit(nbuckets))) {
    return bad("bucket table size is not a power of two");
  }
  qs.buckets.assign(nbuckets, kEmptyBucket);
  for (std::uint64_t i = 0; i < nbuckets && r.ok(); ++i) {
    qs.buckets[i] = r.u32();
  }

  // Pool: slot headers, then key words and aggregate state sized from the
  // plan, not from the file.
  const std::uint64_t nslots = r.u64();
  if (!r.require(nslots <= r.remaining() / 16 + 1 && nslots < kTombBucket, "slot pool size")) {
    return;
  }
  qs.slots.assign(nslots, GroupState{});
  for (GroupState& g : qs.slots) {
    if (!r.ok()) return;
    g.count = r.u64();
    g.bucket = r.u32();
    g.str_mask = r.u32();
  }
  if (!r.require(nslots * qs.width <= r.remaining() / 8 + 1, "key word count")) return;
  qs.key_words.assign(nslots * qs.width, 0);
  for (std::uint64_t& word : qs.key_words) word = r.u64();
  qs.sums.assign(nslots * na, 0.0);
  for (double& s : qs.sums) s = r.f64();
  qs.non_null.assign(nslots * na, 0);
  for (std::uint64_t& n : qs.non_null) n = r.u64();
  qs.next_seq.assign(qs.minmax ? nslots : 0, 0);
  for (std::uint64_t& s : qs.next_seq) s = r.u64();
  qs.mono.clear();
  qs.mono.resize(qs.minmax ? nslots * na : 0);
  for (util::RingBuffer<MonoEntry>& dq : qs.mono) {
    const std::uint64_t dn = r.u64();
    if (!r.require(dn <= r.remaining() / 16 + 1, "min/max queue size")) return;
    for (std::uint64_t j = 0; j < dn && r.ok(); ++j) {
      const double value = r.f64();
      dq.push_back(MonoEntry{value, r.u64()});
    }
  }
  const std::uint64_t nfree = r.u64();
  if (!r.require(nfree <= r.remaining() / 4 + 1, "freelist size")) return;
  qs.free_slots.clear();
  for (std::uint64_t i = 0; i < nfree && r.ok(); ++i) {
    qs.free_slots.push_back(r.u32());
  }
  if (!r.ok()) return;

  // Cross-references. Eviction trusts ring slots and counts, probing trusts
  // buckets (and needs an empty one to stop), group creation trusts the
  // freelist, and rendering trusts string ids.
  std::vector<std::uint64_t> entries(nslots, 0);
  for (std::size_t i = 0; i < qs.ring.size(); ++i) {
    if (qs.ring[i].slot >= nslots) return bad("window entry names no slot");
    ++entries[qs.ring[i].slot];
  }
  const std::uint32_t width_bits =
      qs.width >= 32 ? 0xFFFFFFFFu : (std::uint32_t{1} << qs.width) - 1;
  std::size_t live = 0;
  for (std::uint32_t s = 0; s < nslots; ++s) {
    GroupState& g = qs.slots[s];
    if (g.count != entries[s]) return bad("group count disagrees with its window entries");
    if ((g.str_mask & ~width_bits) != 0) return bad("string mask bit above the key width");
    if (g.count == 0) {
      continue;
    }
    ++live;
    const std::uint64_t* words = qs.key_words.data() + s * qs.width;
    for (std::uint32_t m = g.str_mask; m != 0; m &= m - 1) {
      const std::uint64_t sid = words[std::countr_zero(m)];
      if (!strings_.is_live(sid)) return bad("key names no string");
      ++refs[sid];
    }
    g.hash = hash_key(words, qs.width, g.str_mask);
  }
  std::size_t named = 0;
  std::size_t tombs = 0;
  for (std::size_t i = 0; i < qs.buckets.size(); ++i) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kTombBucket) {
      ++tombs;
    } else if (b != kEmptyBucket) {
      if (b >= nslots || qs.slots[b].count == 0 || qs.slots[b].bucket != i) {
        return bad("bucket names no live slot that points back");
      }
      ++named;  // a slot points back to one bucket, so it is named at most once
    }
  }
  if (named != live) return bad("live slot missing from the bucket table");
  if (!qs.buckets.empty() && (live + tombs) * 2 > qs.buckets.size()) {
    return bad("bucket table over half full");
  }
  std::vector<bool> freed(nslots, false);
  for (const std::uint32_t s : qs.free_slots) {
    if (s >= nslots || qs.slots[s].count != 0 || freed[s]) return bad("freelist entry");
    freed[s] = true;
  }
  if (qs.free_slots.size() != nslots - live) return bad("freelist misses a dead slot");
  qs.live_groups = live;
  qs.bucket_used = live + tombs;
}

void Engine::load_state(snapshot::Reader& r) {
  const std::uint64_t nq = r.u64();
  if (!r.require(nq == queries_.size(), "engine query count")) return;
  strings_.load(r);
  std::vector<std::uint32_t> refs(strings_.id_bound(), 0);
  for (QueryState& qs : queries_) {
    if (!r.ok()) return;
    load_query(qs, r, refs);
  }
  if (!r.ok()) return;
  if (!strings_.adopt_refs(std::move(refs))) {
    r.fail(snapshot::ErrorCode::kBadSection, "engine: string no group holds");
    return;
  }
  ids_.reset(r.u64());
  events_processed_ = r.u64();
}

}  // namespace erms::cep
