#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cep/compiled_query.h"
#include "cep/query.h"
#include "cep/slotted_event.h"
#include "util/ids.h"
#include "util/ring_buffer.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::cep {

struct QueryTag {};
using QueryId = util::StrongId<QueryTag>;

/// Iteration order for group visitation. kSorted visits groups in the order
/// of their keys rendered as text and joined with '\x1f' — identical between
/// the scalar and sharded engines, for consumers whose behaviour depends on
/// visit order. kUnordered visits in whatever order the engine stores groups
/// (deterministic for a given event history, but engine-specific), skipping
/// the per-visit render and sort — the right choice for consumers that
/// scatter counts into dense arrays.
enum class GroupOrder : std::uint8_t { kSorted, kUnordered };

/// The int64 whose std::to_chars rendering is exactly `text` ("7", "-7";
/// not "07", "+7", "-0", "7.0" or out-of-range digits), else nullopt. This
/// is the engine's canonical key rule: such a string and that int are the
/// same GROUP BY value.
[[nodiscard]] std::optional<std::int64_t> canonical_int(std::string_view text);

/// A group's typed key: one 64-bit word per GROUP BY column. A column whose
/// value renders as an int64 holds that int; any other column holds an id
/// into the engine's string table (is_int is false).
class GroupKeyView {
 public:
  GroupKeyView(const std::uint64_t* words, std::uint32_t str_mask, std::size_t width)
      : words_(words), str_mask_(str_mask), width_(width) {}

  [[nodiscard]] std::size_t size() const { return width_; }
  [[nodiscard]] bool is_int(std::size_t i) const { return ((str_mask_ >> i) & 1U) == 0; }
  /// The column's int value; meaningful only when is_int(i).
  [[nodiscard]] std::int64_t int_at(std::size_t i) const {
    return static_cast<std::int64_t>(words_[i]);
  }

 private:
  const std::uint64_t* words_;
  std::uint32_t str_mask_;
  std::size_t width_;
};

/// Interface shared by the scalar Engine and the ShardedEngine so consumers
/// (the Data Judge's feed, ErmsManager) can be wired to either. Methods are
/// non-const because a sharded implementation must drain pending batches
/// before answering reads.
class EngineBase {
 public:
  /// Called whenever a group's row satisfies HAVING after an update. Rows
  /// are also readable at any time via snapshot().
  using Listener = std::function<void(const ResultRow&)>;

  virtual ~EngineBase() = default;

  /// Register a continuous query; the listener may be null (poll-only).
  /// Throws std::invalid_argument when GROUP BY lists more than kMaxGroupBy
  /// attributes.
  virtual QueryId register_query(Query query, Listener listener) = 0;
  QueryId register_query(Query query) { return register_query(std::move(query), nullptr); }

  /// Remove a query and its state. Returns false if unknown.
  virtual bool remove_query(QueryId id) = 0;

  /// Push one event into every matching query (compatibility path: converts
  /// to slotted form first).
  virtual void push(const Event& event) = 0;

  /// Push a slotted event. The event is consumed during the call (or copied
  /// into a pending batch); callers may reuse it immediately.
  virtual void push_slotted(const SlottedEvent& event) = 0;

  /// Push a whole batch of slotted events, equivalent to push_slotted on
  /// each in order. Engines may reorder work internally (e.g. processing the
  /// batch query-major) as long as every query's resulting state matches the
  /// per-event path; only listener firing order may differ within a batch.
  virtual void push_batch(const EventBatch& batch) = 0;

  /// Advance time without an event: evict expired window entries (time
  /// windows only). Judges call this before reading snapshots.
  virtual void advance_to(sim::SimTime now) = 0;

  /// Current result rows of a query (one per group), in group-key order.
  [[nodiscard]] virtual std::vector<ResultRow> snapshot(QueryId id) = 0;

  /// A single group's row, if that group currently exists. `key` holds the
  /// group-by attribute values rendered as strings, in group-by order.
  [[nodiscard]] virtual std::optional<ResultRow> group_row(
      QueryId id, const std::vector<std::string>& key) = 0;

  /// Visit every group of `id` as (typed key, window event count). Unlike
  /// snapshot(), this renders no text and allocates no ClassAds (kUnordered
  /// allocates nothing at all).
  using GroupVisitor = std::function<void(const GroupKeyView& key, std::uint64_t count)>;
  virtual void for_each_group(QueryId id, const GroupVisitor& fn, GroupOrder order) = 0;

  [[nodiscard]] virtual std::size_t query_count() const = 0;
  [[nodiscard]] virtual std::uint64_t events_processed() const = 0;

  /// The engine's attribute / stream interners. Producers resolve their
  /// attribute slots once (e.g. audit::AuditSlots) and then fill slotted
  /// events with no string handling at all.
  [[nodiscard]] virtual SymbolTable& attr_symbols() = 0;
  [[nodiscard]] virtual SymbolTable& stream_symbols() = 0;

  /// Snapshot support (src/snapshot/): serialise / restore all window and
  /// group state. load_state expects an engine with the identical query set
  /// already registered (the feed re-registers its standing queries at
  /// construction) and fails the Reader with kStateMismatch otherwise.
  /// Aggregate running sums are stored as raw double bit patterns, so a
  /// restored engine renders byte-identical rows.
  virtual void save_state(snapshot::Writer& w) = 0;
  virtual void load_state(snapshot::Reader& r) = 0;
};

/// The CEP engine: continuous queries over pushed event streams with sliding
/// windows, group-by aggregation and HAVING-triggered listeners. ERMS feeds
/// it parsed HDFS audit-log events and reads back per-file / per-block /
/// per-datanode access counts (paper §III.C).
///
/// Internally each query runs a compiled plan over slotted events. A group's
/// key is typed: one 64-bit word per GROUP BY column, holding the value when
/// it renders as an int64 (canonical_int) and otherwise an id into an
/// engine-wide string table that live groups refcount; freed ids are reused
/// LIFO. Two events share a group iff their columns render to the same text,
/// exactly as when keys were rendered strings, but the hot path hashes words
/// and never renders text. Text is rendered only where it is read: snapshot
/// rows, listeners, group_row, sorted visits and the sharded merge.
///
/// Group state lives in a slot pool behind an open-addressing bucket table
/// (4-byte buckets, linear probing on a 64-bit mix of the key words,
/// tombstones on erase). A slot is 24 bytes ({hash, count, bucket, string
/// mask}) plus its key words in one flat array per query; sums, non-null
/// counts and min/max state exist only for queries with numeric aggregates,
/// so a count(*) query allocates nothing per group. Window entries are
/// {time, slot}: eviction touches the group directly with no hash lookup,
/// and erased slots go on a freelist reused by the next group — high-churn
/// workloads (a uniform stream over millions of files) stop allocating once
/// the pool reaches the window's working-set size. Windows hold only the
/// per-entry aggregate inputs in flat ring buffers (not event copies), and
/// min/max use monotonic queues (rings) instead of multisets.
class Engine final : public EngineBase {
 public:
  Engine();
  /// Construct with shared symbol tables (ShardedEngine gives every shard
  /// the same tables so slots agree across shards).
  Engine(std::shared_ptr<SymbolTable> attrs, std::shared_ptr<SymbolTable> streams);

  using EngineBase::register_query;
  QueryId register_query(Query query, Listener listener) override;
  bool remove_query(QueryId id) override;
  void push(const Event& event) override;
  void push_slotted(const SlottedEvent& event) override;
  void push_batch(const EventBatch& batch) override;
  void advance_to(sim::SimTime now) override;
  [[nodiscard]] std::vector<ResultRow> snapshot(QueryId id) override;
  [[nodiscard]] std::optional<ResultRow> group_row(
      QueryId id, const std::vector<std::string>& key) override;
  void for_each_group(QueryId id, const GroupVisitor& fn, GroupOrder order) override;
  [[nodiscard]] std::size_t query_count() const override { return queries_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const override { return events_processed_; }
  [[nodiscard]] SymbolTable& attr_symbols() override { return *attrs_; }
  [[nodiscard]] SymbolTable& stream_symbols() override { return *streams_; }
  void save_state(snapshot::Writer& w) override;
  /// Besides the shape checks, rejects (kBadSection) any section whose
  /// cross-references a later push or eviction would trust: ring entries,
  /// counts, buckets, freelist and string ids must describe one consistent
  /// pool. On failure the engine is left half-loaded for the caller to
  /// discard.
  void load_state(snapshot::Reader& r) override;

  /// Force WHERE evaluation through the ClassAd adapter even when a fast
  /// plan exists — the differential tests prove both paths byte-identical.
  void set_use_fast_path(bool on) { use_fast_path_ = on; }
  [[nodiscard]] bool use_fast_path() const { return use_fast_path_; }

  /// Distinct strings currently held by live groups' keys.
  [[nodiscard]] std::size_t interned_strings() const { return strings_.live(); }

  /// Raw (pre-rendering) aggregate state, exported so ShardedEngine can
  /// merge groups that span shards before rendering rows.
  struct RawAggregate {
    double sum{0.0};
    std::uint64_t non_null{0};
    double extreme{0.0};  // current min or max, valid when has_extreme
    bool has_extreme{false};
  };
  struct RawGroup {
    std::string key;  // group-by values joined with '\x1f'
    std::vector<std::string> key_values;
    std::uint64_t count{0};
    std::vector<RawAggregate> aggs;  // parallel to Query::select
  };

  /// All groups of a query in key order (empty if unknown query).
  [[nodiscard]] std::vector<RawGroup> raw_snapshot(QueryId id) const;
  /// One group by its rendered group-by values, if present.
  [[nodiscard]] std::optional<RawGroup> raw_group(
      QueryId id, const std::vector<std::string>& key) const;
  /// The registered query, or nullptr.
  [[nodiscard]] const Query* query(QueryId id) const;

  /// Render a merged raw group the same way snapshot() renders rows.
  [[nodiscard]] static ResultRow render_row(const Query& q, const RawGroup& g);

 private:
  /// The string GROUP BY values of live groups. Each string column of a live
  /// group holds one reference; the last release frees the id, and intern
  /// reuses freed ids LIFO, so the table is bounded by the window.
  class StringTable {
   public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    /// Id of `text`, or kNone. Never mutates.
    [[nodiscard]] std::uint32_t find(std::string_view text) const;
    /// Id of `text`, adding it (unreferenced) when absent.
    std::uint32_t intern(std::string_view text);
    void retain(std::uint32_t id) { ++refs_[id]; }
    void release(std::uint32_t id);
    [[nodiscard]] const std::string& text(std::uint32_t id) const { return *text_[id]; }
    [[nodiscard]] bool is_live(std::uint64_t id) const {
      return id < text_.size() && text_[id] != nullptr;
    }
    [[nodiscard]] std::size_t live() const { return index_.size(); }
    [[nodiscard]] std::size_t id_bound() const { return text_.size(); }
    void save(snapshot::Writer& w) const;
    /// Restore texts and the free order, rejecting duplicates, canonical
    /// ints (never interned) and a freelist that is not exactly the free
    /// ids. References are recounted by the caller from the loaded groups.
    void load(snapshot::Reader& r);
    /// Install recounted references (one per live group's string column);
    /// false when a live id has none.
    [[nodiscard]] bool adopt_refs(std::vector<std::uint32_t> refs);

   private:
    struct Hash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const {
        return std::hash<std::string_view>{}(s);
      }
    };
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> index_;
    std::vector<const std::string*> text_;  // by id; null when free
    std::vector<std::uint32_t> refs_;       // by id
    std::vector<std::uint32_t> free_;       // freed ids, reused LIFO
  };

  /// One min/max candidate in a group's monotonic queue.
  struct MonoEntry {
    double value;
    std::uint64_t seq;
  };
  /// A group in the query's slot pool; its key words are at
  /// key_words[slot * width]. A slot is live iff count > 0 (groups are
  /// created together with their first window entry and erased when the last
  /// one evicts).
  struct GroupState {
    std::uint64_t hash{0};       // hash_key of the words and mask, for rehash
    std::uint64_t count{0};
    std::uint32_t bucket{0};     // index of the bucket pointing at this slot
    std::uint32_t str_mask{0};   // bit i set: word i is a string-table id
  };
  /// One window entry: everything eviction needs, instead of an event copy.
  struct WindowEntry {
    std::int64_t time_us;
    std::uint32_t slot;  // the entry's group in the query's slot pool
  };
  static constexpr std::uint32_t kEmptyBucket = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombBucket = 0xFFFFFFFEu;
  struct QueryState {
    QueryId id;
    Query query;
    CompiledQuery plan;
    Listener listener;
    std::size_t width{0};   // GROUP BY columns = key words per slot
    bool minmax{false};     // some aggregate is min or max
    util::RingBuffer<WindowEntry> ring;
    util::RingBuffer<double> ring_values;  // plan.numeric_aggs doubles per entry
    // Open-addressing group table: buckets hold pool-slot indices (or the
    // empty/tombstone sentinels); the pool owns the GroupStates.
    std::vector<std::uint32_t> buckets;  // capacity always a power of two
    std::vector<GroupState> slots;
    std::vector<std::uint64_t> key_words;  // width words per slot
    std::vector<std::uint32_t> free_slots;
    std::size_t live_groups{0};
    std::size_t bucket_used{0};  // live + tombstones
    // Numeric aggregates, plan.numeric_aggs per slot; empty for count-only.
    std::vector<double> sums;
    std::vector<std::uint64_t> non_null;
    // Min/max state; empty unless `minmax`. An entry's group-local sequence
    // number tells eviction whether it owns the queue front.
    std::vector<util::RingBuffer<MonoEntry>> mono;  // plan.numeric_aggs per slot
    std::vector<std::uint64_t> next_seq;      // per slot
    util::RingBuffer<std::uint64_t> ring_seq;  // per window entry
  };

  [[nodiscard]] QueryState* find_query(QueryId id);
  [[nodiscard]] const QueryState* find_query(QueryId id) const;

  [[nodiscard]] bool event_matches(QueryState& qs, const SlottedEvent& e);
  /// Write `e`'s canonical key into `words` and return its string mask.
  /// String columns get ids only when `intern`; otherwise their words are
  /// left unset (the pipeline's fetch stage only needs int-only keys).
  std::uint32_t make_key(const QueryState& qs, const SlottedEvent& e, std::uint64_t* words,
                         bool intern);
  /// Canonical key of rendered group-by values, never interning; false when
  /// a string is not in the table (so no group can match).
  [[nodiscard]] bool lookup_key(const std::vector<std::string>& key, std::uint64_t* words,
                                std::uint32_t& mask) const;
  /// Pool slot of the key, creating the group on a miss. Grows/rehashes
  /// the bucket table as needed.
  std::uint32_t resolve_group(QueryState& qs, const std::uint64_t* words, std::uint32_t mask,
                              std::uint64_t hash);
  /// Pool slot of the key without mutating (kEmptyBucket on miss).
  [[nodiscard]] std::uint32_t find_slot(const QueryState& qs, const std::uint64_t* words,
                                        std::uint32_t mask, std::uint64_t hash) const;
  void rehash(QueryState& qs, std::size_t min_buckets);
  /// Tombstone `slot`'s bucket, release its strings and return the slot to
  /// the freelist.
  void erase_group(QueryState& qs, std::uint32_t slot);
  void insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot);
  void evict_front(QueryState& qs);
  void evict_time(QueryState& qs, sim::SimTime now);
  void push_one(QueryState& qs, const SlottedEvent& event);
  /// Add a matched event under its interned key: resolve (creating) the
  /// group, insert, LENGTH eviction, notify.
  void add_event(QueryState& qs, const SlottedEvent& e, const std::uint64_t* words,
                 std::uint32_t mask, std::uint64_t hash);
  /// Run a whole batch through one query with a bounded software pipeline:
  /// the pure per-event work (match test, key words, hash) runs ahead and
  /// prefetches the bucket and group-state cache lines, while every mutation
  /// is applied in event order — byte-identical state to push_one per event.
  void push_batch_query(QueryState& qs, const EventBatch& batch);
  void notify(QueryState& qs, std::uint32_t slot);
  /// A group's key as text, one string per GROUP BY column.
  [[nodiscard]] std::vector<std::string> render_key(const QueryState& qs,
                                                    std::uint32_t slot) const;
  [[nodiscard]] RawGroup export_group(const QueryState& qs, std::uint32_t slot) const;
  void load_query(QueryState& qs, snapshot::Reader& r, std::vector<std::uint32_t>& refs);

  std::shared_ptr<SymbolTable> attrs_;
  std::shared_ptr<SymbolTable> streams_;
  std::vector<QueryState> queries_;
  StringTable strings_;
  util::IdGenerator<QueryId> ids_{1};
  std::uint64_t events_processed_{0};
  bool use_fast_path_{true};
  /// In-flight pipeline state for push_batch_query: one slot per event still
  /// between the fetch stage and retirement.
  static constexpr std::size_t kPipeDepth = 8;  // power of two
  struct PipeSlot {
    std::array<std::uint64_t, kMaxGroupBy> words;
    std::uint64_t hash{0};
    std::uint32_t mask{0};
    bool matched{false};
  };

  SlottedEvent convert_scratch_;  // scratch for push(const Event&)
  std::array<PipeSlot, kPipeDepth> pipe_;  // push_batch_query scratch
};

}  // namespace erms::cep
