// Contexts and hooks: the one-way state synchronization between the main
// program and its watchdog (paper §3.1 "State Synchronization").
//
// Hook sites in the main program replicate values *into* a CheckContext (deep
// copy), so checkers never mutate main-program state (the isolation of §5.1).
// Writes go through typed keys, stage in a thread-local batch, and become
// visible together at MarkReady(); the driver runs no checker whose context
// is not READY (the paper's canonical spurious-report example).
//
// One protocol guards the storage (docs/CONTEXT_API.md "Read path"): one
// sequence word per context is both the writer claim and the readers'
// seqlock. MarkReady claims it (even -> odd), stores the whole batch, and
// releases it, so a batch is atomic by construction. Readers copy
// optimistically and re-check the word; after bounded failed attempts a
// reader claims it too, so snapshots stay live under saturating writers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace wdg {

using CtxValue = std::variant<int64_t, double, bool, std::string>;

std::string CtxValueToString(const CtxValue& value);

// Declared value type of a context key. kAny keys carry whole CtxValues
// (untyped: AutoWatchdog-generated checkers, dump/restore).
enum class CtxType : uint8_t { kInt, kDouble, kBool, kString, kAny };

namespace internal {
template <typename T>
constexpr CtxType kCtxTypeOf = std::is_same_v<T, int64_t>       ? CtxType::kInt
                               : std::is_same_v<T, double>      ? CtxType::kDouble
                               : std::is_same_v<T, bool>        ? CtxType::kBool
                               : std::is_same_v<T, std::string> ? CtxType::kString
                                                                : CtxType::kAny;

// Typed view of a stored variant: exact-type match, except ints widen to
// double. Shared by CheckContext::Get and CtxSnapshot::Get.
template <typename T>
std::optional<T> ExtractTyped(const CtxValue& value) {
  if constexpr (std::is_same_v<T, CtxValue>) {
    return value;
  } else {
    if (const T* typed = std::get_if<T>(&value)) {
      return *typed;
    }
    if constexpr (std::is_same_v<T, double>) {
      if (const int64_t* i = std::get_if<int64_t>(&value)) {
        return static_cast<double>(*i);
      }
    }
    return std::nullopt;
  }
}
}  // namespace internal

// Process-wide intern table: key name -> (slot index, declared type). Slots
// are assigned once and never recycled, so a key handle works on any
// context. Lookups are lock-free: entries are append-only, published with
// release stores, and never moved or destroyed. Only inserts lock.
class KeyRegistry {
 public:
  static constexpr uint32_t kMaxKeys = 2048;  // contexts size storage by use

  static KeyRegistry& Instance();
  // Interns `name`, returning its stable slot. The first registration with a
  // concrete type fixes the declared type; kAny interns never override it.
  // Aborts, naming the key, once all kMaxKeys slots are taken.
  uint32_t Intern(std::string_view name, CtxType type);
  // For names from outside input (dump restore): nullopt when full.
  std::optional<uint32_t> TryIntern(std::string_view name, CtxType type);
  // Slot for an already-interned name, or nullopt (lookups never register).
  std::optional<uint32_t> Find(std::string_view name) const;
  // Valid forever: entries are never destroyed or moved.
  const std::string& NameOf(uint32_t slot) const;
  CtxType TypeOf(uint32_t slot) const;
  uint32_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  KeyRegistry() = default;
  struct Entry {
    Entry(std::string n, CtxType t, uint32_t s) : name(std::move(n)), type(t), slot(s) {}
    const std::string name;
    std::atomic<CtxType> type;
    const uint32_t slot;
  };
  static constexpr uint32_t kBuckets = 4096;  // 2x kMaxKeys, power of two

  // Linear-probe lookup; nullptr on miss. Safe concurrently with inserts:
  // probing stops at the first null bucket and inserts only fill nulls.
  Entry* Probe(std::string_view name) const;
  std::mutex write_mu_;  // serializes interns; lookups never take it
  std::array<std::atomic<Entry*>, kBuckets> buckets_{};
  std::array<std::atomic<Entry*>, kMaxKeys> by_slot_{};
  std::atomic<uint32_t> count_{0};
};

// The checker-side snapshot: (interned name, value) pairs in first-write
// order. Names point into the KeyRegistry, so a snapshot copies no key
// strings; lookups are linear scans (contexts hold tens of keys). Map idioms
// survive: `find()` misses with `end()`, `it->second` is the value.
class CtxSnapshot {
 public:
  using Entry = std::pair<const std::string*, CtxValue>;
  using const_iterator = const Entry*;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }
  const_iterator find(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != end(); }
  // Throws std::out_of_range when absent, like std::map::at.
  const CtxValue& at(std::string_view name) const;
  // Typed lookup with the same widening rules as CheckContext::Get.
  template <typename T>
  std::optional<T> Get(std::string_view name) const {
    const const_iterator it = find(name);
    return it == end() ? std::nullopt : internal::ExtractTyped<T>(it->second);
  }
  // Deep copy into an owning map (serialization; off the hot path).
  std::map<std::string, CtxValue> ToMap() const;

 private:
  friend class CheckContext;
  std::vector<Entry> entries_;
};

// A typed key handle, resolved once, idiomatically in a function-local static:
//   static const auto kEntries = wdg::ContextKey<int64_t>::Of("entry_count");
// ContextKey<CtxValue> is the untyped ("any") variant generated checkers use.
class ContextKeyBase {
 public:
  uint32_t slot() const { return slot_; }
  CtxType type() const { return type_; }
  const std::string& name() const { return KeyRegistry::Instance().NameOf(slot_); }

 protected:
  ContextKeyBase(uint32_t slot, CtxType type) : slot_(slot), type_(type) {}
 private:
  uint32_t slot_;
  CtxType type_;
};

template <typename T>
class ContextKey : public ContextKeyBase {
 public:
  static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, double> ||
                    std::is_same_v<T, bool> || std::is_same_v<T, std::string> ||
                    std::is_same_v<T, CtxValue>,
                "ContextKey<T>: T must be int64_t, double, bool, std::string, "
                "or CtxValue");
  using value_type = T;
  static ContextKey Of(std::string_view name) {
    return ContextKey(KeyRegistry::Instance().Intern(name, internal::kCtxTypeOf<T>));
  }

 private:
  explicit ContextKey(uint32_t slot) : ContextKeyBase(slot, internal::kCtxTypeOf<T>) {}
};

class CheckContext {
 public:
  explicit CheckContext(std::string name);
  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;
  const std::string& name() const { return name_; }

  // --- producer side (main-program hooks) ------------------------------
  // Stages `value` in the calling thread's batch; visible only after
  // MarkReady(). `type_identity_t` deduces T from the key alone, so
  // Set(kFile, "/sst/9") works. The only string-keyed write is Restore().
  template <typename T>
  void Set(const ContextKey<T>& key, std::type_identity_t<T> value) {
    StageWrite(key.slot(), std::move(value));
  }
  // Publishes the calling thread's staged batch inside one claim of the
  // sequence word, bumps the epoch, and marks the context READY.
  void MarkReady(TimeNs now);
  // Drops READY (e.g. component shut down / reconfigured).
  void Invalidate() { ready_.store(false, std::memory_order_release); }

  // --- consumer side (checkers) -----------------------------------------
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  TimeNs last_update() const { return last_update_.load(std::memory_order_acquire); }
  // Per-key subscription epoch: how often `slot` was published here (0 if
  // never; a publish in flight already counts). Three lock-free loads, cheap
  // enough for the driver to consult before every dispatch
  // (docs/DRIVER.md, "Subscription epochs").
  uint64_t KeyEpoch(uint32_t slot) const;
  template <typename T>
  uint64_t KeyEpoch(const ContextKey<T>& key) const { return KeyEpoch(key.slot()); }
  // The one typed getter: nullopt when the key was never written or holds a
  // different type (ints widen to double). Lock-free on the stable path.
  template <typename T>
  std::optional<T> Get(const ContextKey<T>& key) const {
    return Extract<T>(ReadSlot(key.slot()));
  }
  // Typed read through a name (cold paths: executors, invariant miners).
  template <typename T>
  std::optional<T> Get(std::string_view name) const {
    const auto slot = KeyRegistry::Instance().Find(name);
    return slot.has_value() ? Extract<T>(ReadSlot(*slot)) : std::nullopt;
  }
  // The dump-oriented untyped accessor: the raw variant, any type.
  std::optional<CtxValue> Get(const std::string& key) const { return Get<CtxValue>(key); }

  // The values, epoch and last_update of one published state, never a mix of
  // two batches (the failure-inducing context of §5.2). Costs in proportion
  // to the keys the context holds.
  struct ConsistentSnapshot {
    uint64_t epoch = 0;
    TimeNs last_update = 0;
    CtxSnapshot values;
  };
  ConsistentSnapshot SnapshotConsistent() const;
  CtxSnapshot Snapshot() const { return SnapshotConsistent().values; }
  std::string Dump() const;

  // Parses a Dump() string: tagged ("entries=i:16") or legacy untagged.
  static std::map<std::string, CtxValue> ParseDump(const std::string& dump);
  // Installs parsed values and marks ready. RESOURCE_EXHAUSTED, with nothing
  // written, when a new key name does not fit in the key registry.
  Status Restore(const std::map<std::string, CtxValue>& values, TimeNs now);
  // Entries this thread has staged for this context but not yet published.
  size_t pending_batch_size() const;

 private:
  enum class Tag : uint8_t { kEmpty = 0, kInt, kDouble, kBool, kString };

  // One key's value, all atomics so optimistic readers copy it with plain
  // loads. `header` is the Tag plus, for strings, the length << 8. Scalars
  // live in `word`; string bytes in `bytes`, after its capacity in words.
  struct Cell {
    std::atomic<uint32_t> slot{0};
    std::atomic<uint64_t> publishes{0};  // KeyEpoch
    std::atomic<uint64_t> header{0};
    std::atomic<uint64_t> word{0};
    std::atomic<std::atomic<uint64_t>*> bytes{nullptr};
  };
  // `index[slot]` is the slot's cell + 1 (0: never written here), set once so
  // publishes leave its cache line alone; `cells` are in first-write order.
  // Sizes are fixed at allocation: a full table is replaced by a bigger copy.
  struct Table {
    Table(size_t slots, size_t cell_count) : index(slots), cells(cell_count) {}
    std::vector<std::atomic<uint32_t>> index;
    std::vector<Cell> cells;
  };
  // Optimistic read attempts before a reader claims the sequence word.
  static constexpr int kOptimisticReads = 8;
  template <typename T>
  static std::optional<T> Extract(const std::optional<CtxValue>& value) {
    return value.has_value() ? internal::ExtractTyped<T>(*value) : std::nullopt;
  }

  // The calling thread's staged writes (defined in context.cc).
  struct Batch;
  static Batch& ThreadBatch();
  void StageWrite(uint32_t slot, CtxValue value);
  // Spins until it moves the sequence word from even to odd; returns the odd
  // value. A writer releases with odd + 1, a claiming reader with odd - 1.
  uint64_t Claim() const;
  // Runs `copy` (false: it saw an inconsistent view) until an unchanged even
  // word validates a run; after kOptimisticReads failures, under a claim.
  template <typename F>
  void ReadConsistent(F&& copy) const;
  // Claim held: the cell for `slot`, created (growing the table) on first
  // write, with the slot's publish count bumped.
  Cell& Touch(uint32_t slot);
  // Decodes one cell; false when it holds no value.
  static bool ReadCell(const Cell& cell, CtxValue* out);
  std::optional<CtxValue> ReadSlot(uint32_t slot) const;
  const std::string name_;
  const uint64_t id_;  // process-unique, guards against stale thread batches
  // Every table and string buffer ever allocated: a reader inside a failing
  // attempt never touches freed memory. Touched only under a claim.
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> buffers_;
  // What a publish writes shares one cache line.
  alignas(64) mutable std::atomic<uint64_t> seq_{0};
  std::atomic<Table*> table_{nullptr};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<TimeNs> last_update_{0};
  std::atomic<uint32_t> size_{0};  // cells in use
  std::atomic<bool> ready_{false};
};

// A single instrumentation point in the main program. Firing an unarmed hook
// is one relaxed atomic load — the "zero cost when no checker cares" budget.
class HookSite {
 public:
  explicit HookSite(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  bool armed() const { return ctx_.load(std::memory_order_relaxed) != nullptr; }
  // `fill(ctx)` runs only when armed. The callback should Set() the values
  // the checker's reduced ops need and then MarkReady.
  template <typename F>
  void Fire(F&& fill) {
    CheckContext* ctx = ctx_.load(std::memory_order_acquire);
    if (ctx != nullptr) {
      fill(*ctx);
      fired_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Arm(CheckContext* ctx) { ctx_.store(ctx, std::memory_order_release); }
  void Disarm() { ctx_.store(nullptr, std::memory_order_release); }
  int64_t fired_count() const { return fired_.load(std::memory_order_relaxed); }

 private:
  const std::string name_;
  std::atomic<CheckContext*> ctx_{nullptr};
  std::atomic<int64_t> fired_{0};
};

// Owns the hook sites of one monitored system plus the contexts armed onto
// them. AutoWatchdog's HookPlan arms the subset its analysis selected.
class HookSet {
 public:
  // Creates on first use; returned pointer is stable for the HookSet's life.
  HookSite* Site(const std::string& name);
  // Creates (or returns) the named context.
  CheckContext* Context(const std::string& name);
  // Arms `site` to populate `context` (both created on demand).
  void Arm(const std::string& site, const std::string& context) {
    Site(site)->Arm(Context(context));
  }
  void Disarm(const std::string& site) { Site(site)->Disarm(); }
  void DisarmAll();
  std::vector<std::string> SiteNames() const;
  std::vector<std::string> ContextNames() const;
  int ArmedCount() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<HookSite>> sites_;
  std::map<std::string, std::unique_ptr<CheckContext>> contexts_;
};

}  // namespace wdg
