#include "src/watchdog/context.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "src/common/strings.h"

namespace wdg {

std::string CtxValueToString(const CtxValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return StrFormat("%g", *d);
  }
  if (const auto* b = std::get_if<bool>(&value)) {
    return *b ? "true" : "false";
  }
  return std::get<std::string>(value);
}

CtxSnapshot::const_iterator CtxSnapshot::find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (*entry.first == name) {
      return &entry;
    }
  }
  return end();
}

const CtxValue& CtxSnapshot::at(std::string_view name) const {
  const const_iterator it = find(name);
  if (it == end()) {
    throw std::out_of_range("CtxSnapshot::at: no key " + std::string(name));
  }
  return it->second;
}

std::map<std::string, CtxValue> CtxSnapshot::ToMap() const {
  std::map<std::string, CtxValue> out;
  for (const Entry& entry : entries_) {
    out.emplace(*entry.first, entry.second);
  }
  return out;
}

// ----------------------------------------------------------- KeyRegistry

KeyRegistry& KeyRegistry::Instance() {
  // Leaked, entries too: static ContextKeys in other TUs may outlive any
  // registry with normal storage duration, and readers never quiesce.
  static KeyRegistry* registry = new KeyRegistry();
  return *registry;
}

KeyRegistry::Entry* KeyRegistry::Probe(std::string_view name) const {
  uint32_t idx = static_cast<uint32_t>(std::hash<std::string_view>{}(name)) & (kBuckets - 1);
  for (;;) {
    Entry* entry = buckets_[idx].load(std::memory_order_acquire);
    if (entry == nullptr || entry->name == name) {
      return entry;
    }
    idx = (idx + 1) & (kBuckets - 1);
  }
}

std::optional<uint32_t> KeyRegistry::TryIntern(std::string_view name, CtxType type) {
  Entry* entry = Probe(name);
  if (entry == nullptr) {
    std::lock_guard<std::mutex> lock(write_mu_);
    entry = Probe(name);  // a racing intern may have landed it meanwhile
    if (entry == nullptr) {
      const uint32_t slot = count_.load(std::memory_order_relaxed);
      if (slot >= kMaxKeys) {
        return std::nullopt;
      }
      entry = new Entry(std::string(name), type, slot);
      by_slot_[slot].store(entry, std::memory_order_release);
      uint32_t idx =
          static_cast<uint32_t>(std::hash<std::string_view>{}(name)) & (kBuckets - 1);
      while (buckets_[idx].load(std::memory_order_relaxed) != nullptr) {
        idx = (idx + 1) & (kBuckets - 1);
      }
      buckets_[idx].store(entry, std::memory_order_release);
      count_.store(slot + 1, std::memory_order_release);
      return slot;
    }
  }
  if (type != CtxType::kAny) {  // the first concrete registration wins
    CtxType expected = CtxType::kAny;
    entry->type.compare_exchange_strong(expected, type, std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
  }
  return entry->slot;
}

uint32_t KeyRegistry::Intern(std::string_view name, CtxType type) {
  const auto slot = TryIntern(name, type);
  if (!slot.has_value()) {
    std::fprintf(stderr, "wdg: context key registry full (%u keys); cannot intern '%.*s'\n",
                 kMaxKeys, static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *slot;
}

std::optional<uint32_t> KeyRegistry::Find(std::string_view name) const {
  const Entry* entry = Probe(name);
  return entry == nullptr ? std::nullopt : std::optional<uint32_t>(entry->slot);
}

const std::string& KeyRegistry::NameOf(uint32_t slot) const {
  return by_slot_[slot].load(std::memory_order_acquire)->name;
}

CtxType KeyRegistry::TypeOf(uint32_t slot) const {
  return by_slot_[slot].load(std::memory_order_acquire)->type.load(std::memory_order_acquire);
}

// ---------------------------------------------------------- CheckContext

// Writes one thread staged before MarkReady(), as cell headers plus a scalar
// or an offset into `bytes`. Reused across fires: staging stops allocating
// once the vectors have grown to the hook's shape.
struct CheckContext::Batch {
  struct Staged { uint32_t slot; uint64_t header; uint64_t word; };
  std::vector<Staged> entries;
  std::string bytes;
  uint64_t owner_id = 0;  // CheckContext::id_ of the staging target
};

CheckContext::Batch& CheckContext::ThreadBatch() {
  thread_local Batch batch;
  return batch;
}

CheckContext::CheckContext(std::string name) : name_(std::move(name)), id_([] {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}()) {}

void CheckContext::StageWrite(uint32_t slot, CtxValue value) {
  Batch& batch = ThreadBatch();
  if (batch.owner_id != id_) {  // drop what another context never published
    batch.entries.clear();
    batch.bytes.clear();
    batch.owner_id = id_;
  }
  Batch::Staged staged{slot, static_cast<uint64_t>(Tag::kString), batch.bytes.size()};
  if (const auto* i = std::get_if<int64_t>(&value)) {
    staged = {slot, static_cast<uint64_t>(Tag::kInt), static_cast<uint64_t>(*i)};
  } else if (const auto* d = std::get_if<double>(&value)) {
    staged = {slot, static_cast<uint64_t>(Tag::kDouble), std::bit_cast<uint64_t>(*d)};
  } else if (const auto* b = std::get_if<bool>(&value)) {
    staged = {slot, static_cast<uint64_t>(Tag::kBool), *b ? uint64_t{1} : 0};
  } else {
    const std::string& text = std::get<std::string>(value);
    staged.header |= static_cast<uint64_t>(text.size()) << 8;
    batch.bytes += text;
  }
  batch.entries.push_back(staged);
}

uint64_t CheckContext::Claim() const {
  uint64_t s = seq_.load(std::memory_order_relaxed);
  for (int spin = 0;; ++spin) {
    // Acquire pairs with the previous holder's release; the fence keeps this
    // holder's stores from showing before the odd word (Boehm's seqlock).
    if ((s & 1) == 0 && seq_.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                                   std::memory_order_relaxed)) {
      std::atomic_thread_fence(std::memory_order_release);
      return s + 1;
    }
    // Windows are a few stores per value; yield to a descheduled holder.
    if (spin % 64 == 63) {
      std::this_thread::yield();
    }
    s = seq_.load(std::memory_order_relaxed);
  }
}

template <typename F>
void CheckContext::ReadConsistent(F&& copy) const {
  for (int attempt = 0; attempt < kOptimisticReads; ++attempt) {
    const uint64_t s = seq_.load(std::memory_order_acquire);
    if ((s & 1) != 0) {
      continue;
    }
    const bool sane = copy();
    // Orders the copy's loads before the re-check; all are atomic loads.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (sane && seq_.load(std::memory_order_relaxed) == s) {
      return;
    }
  }
  // Writers keep moving the word: hold it, copy, and put it back unchanged.
  const uint64_t odd = Claim();
  copy();
  seq_.store(odd - 1, std::memory_order_release);
}

CheckContext::Cell& CheckContext::Touch(uint32_t slot) {
  Table* table = table_.load(std::memory_order_relaxed);
  uint32_t index = table != nullptr && slot < table->index.size()
                       ? table->index[slot].load(std::memory_order_relaxed)
                       : 0;
  if (index == 0) {
    const uint32_t n = size_.load(std::memory_order_relaxed);
    if (table == nullptr || slot >= table->index.size() || n == table->cells.size()) {
      // Index every key interned so far, doubling (keys interned one by one
      // must not force a copy each); the old table stays for readers.
      const size_t indexed = std::max<size_t>(slot + 1, KeyRegistry::Instance().size());
      auto grown = std::make_unique<Table>(
          std::clamp<size_t>(table == nullptr ? 0 : 2 * table->index.size(), indexed,
                             KeyRegistry::kMaxKeys),
          std::max<size_t>(4, 2 * n));
      for (size_t i = 0; table != nullptr && i < table->index.size(); ++i) {
        grown->index[i].store(table->index[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
      for (uint32_t i = 0; i < n; ++i) {
        const Cell& from = table->cells[i];
        Cell& to = grown->cells[i];
        to.slot.store(from.slot.load(std::memory_order_relaxed), std::memory_order_relaxed);
        to.publishes.store(from.publishes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
        to.header.store(from.header.load(std::memory_order_relaxed), std::memory_order_relaxed);
        to.word.store(from.word.load(std::memory_order_relaxed), std::memory_order_relaxed);
        to.bytes.store(from.bytes.load(std::memory_order_relaxed), std::memory_order_relaxed);
      }
      table = grown.get();
      tables_.push_back(std::move(grown));
      table_.store(table, std::memory_order_release);
    }
    index = n + 1;
    table->cells[n].slot.store(slot, std::memory_order_relaxed);
    table->index[slot].store(index, std::memory_order_relaxed);
    size_.store(index, std::memory_order_relaxed);
  }
  Cell& cell = table->cells[index - 1];
  cell.publishes.store(cell.publishes.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  return cell;
}

void CheckContext::MarkReady(TimeNs now) {
  Batch& batch = ThreadBatch();
  const bool owned = batch.owner_id == id_;
  const uint64_t odd = Claim();
  for (size_t e = 0; owned && e < batch.entries.size(); ++e) {
    const Batch::Staged& staged = batch.entries[e];
    Cell& cell = Touch(staged.slot);
    if (static_cast<Tag>(staged.header & 0xff) == Tag::kString) {
      const size_t len = static_cast<size_t>(staged.header >> 8);
      const size_t words = (len + 7) / 8;
      std::atomic<uint64_t>* buffer = cell.bytes.load(std::memory_order_relaxed);
      if (buffer == nullptr || buffer[0].load(std::memory_order_relaxed) < words) {
        const size_t capacity = std::bit_ceil(std::max<size_t>(words, 2));
        buffers_.push_back(std::make_unique<std::atomic<uint64_t>[]>(capacity + 1));
        buffer = buffers_.back().get();
        buffer[0].store(capacity, std::memory_order_relaxed);
        cell.bytes.store(buffer, std::memory_order_release);
      }
      for (size_t i = 0; i < words; ++i) {
        uint64_t word = 0;
        std::memcpy(&word, batch.bytes.data() + staged.word + 8 * i,
                    std::min<size_t>(8, len - 8 * i));
        buffer[1 + i].store(word, std::memory_order_relaxed);
      }
    } else {
      cell.word.store(staged.word, std::memory_order_relaxed);
    }
    cell.header.store(staged.header, std::memory_order_relaxed);
  }
  // Inside the window, so a snapshot's epoch is the one its values carry.
  last_update_.store(now, std::memory_order_release);
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  seq_.store(odd + 1, std::memory_order_release);
  ready_.store(true, std::memory_order_release);
  if (owned) {
    batch.entries.clear();
    batch.bytes.clear();
    batch.owner_id = 0;
  }
}

size_t CheckContext::pending_batch_size() const {
  const Batch& batch = ThreadBatch();
  return batch.owner_id == id_ ? batch.entries.size() : 0;
}

uint64_t CheckContext::KeyEpoch(uint32_t slot) const {
  // Index entries of a table only ever name that table's cells.
  const Table* table = table_.load(std::memory_order_acquire);
  const uint32_t index = table == nullptr || slot >= table->index.size()
                             ? 0
                             : table->index[slot].load(std::memory_order_relaxed);
  return index == 0 ? 0 : table->cells[index - 1].publishes.load(std::memory_order_relaxed);
}

bool CheckContext::ReadCell(const Cell& cell, CtxValue* out) {
  const uint64_t header = cell.header.load(std::memory_order_relaxed);
  const uint64_t word = cell.word.load(std::memory_order_relaxed);
  switch (static_cast<Tag>(header & 0xff)) {
    case Tag::kInt:
      *out = static_cast<int64_t>(word);
      return true;
    case Tag::kDouble:
      *out = std::bit_cast<double>(word);
      return true;
    case Tag::kBool:
      *out = word != 0;
      return true;
    case Tag::kString: {
      const std::atomic<uint64_t>* buffer = cell.bytes.load(std::memory_order_acquire);
      if (buffer == nullptr) {
        return false;
      }
      // A torn (header, buffer) pair is clamped to the buffer's capacity.
      const size_t len =
          std::min<size_t>(header >> 8, buffer[0].load(std::memory_order_relaxed) * 8);
      std::string& text = out->emplace<std::string>(len, '\0');
      for (size_t i = 0; i < len; i += 8) {
        const uint64_t chunk = buffer[1 + i / 8].load(std::memory_order_relaxed);
        std::memcpy(text.data() + i, &chunk, std::min<size_t>(8, len - i));
      }
      return true;
    }
    default:
      return false;
  }
}

std::optional<CtxValue> CheckContext::ReadSlot(uint32_t slot) const {
  std::optional<CtxValue> value;
  ReadConsistent([&] {
    value.reset();
    const Table* table = table_.load(std::memory_order_acquire);
    if (table == nullptr || slot >= table->index.size()) {
      return true;
    }
    const uint32_t cell = table->index[slot].load(std::memory_order_relaxed);
    return cell == 0 ||
           (cell <= table->cells.size() && ReadCell(table->cells[cell - 1], &value.emplace()));
  });
  return value;
}

CheckContext::ConsistentSnapshot CheckContext::SnapshotConsistent() const {
  ConsistentSnapshot snapshot;
  KeyRegistry& registry = KeyRegistry::Instance();
  std::vector<CtxSnapshot::Entry>& entries = snapshot.values.entries_;
  ReadConsistent([&] {
    entries.clear();
    snapshot.epoch = epoch_.load(std::memory_order_relaxed);
    snapshot.last_update = last_update_.load(std::memory_order_relaxed);
    const Table* table = table_.load(std::memory_order_acquire);
    if (table == nullptr) {
      return true;
    }
    const size_t n =
        std::min<size_t>(size_.load(std::memory_order_relaxed), table->cells.size());
    const uint32_t known = registry.size();
    entries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = table->cells[i].slot.load(std::memory_order_relaxed);
      // Only interned slots are ever stored; anything else is a torn view.
      if (slot >= known ||
          !ReadCell(table->cells[i], &entries.emplace_back(&registry.NameOf(slot), 0).second)) {
        return false;
      }
    }
    return true;
  });
  return snapshot;
}

std::string CheckContext::Dump() const {
  // Sorted by name, so failure signatures are byte-stable across runs; the
  // tag ("i:", "d:", "b:", "s:", by variant index) keeps the exact type.
  std::string out = "{";
  for (const auto& [name, value] : Snapshot().ToMap()) {
    out += (out.size() > 1 ? ", " : "") + name + "=" + "idbs"[value.index()] + ":" +
           CtxValueToString(value);
  }
  return out + "}";
}

std::map<std::string, CtxValue> CheckContext::ParseDump(const std::string& dump) {
  std::map<std::string, CtxValue> values;
  const bool braced = dump.size() >= 2 && dump.front() == '{' && dump.back() == '}';
  for (const std::string& entry : StrSplit(braced ? dump.substr(1, dump.size() - 2) : dump, ',')) {
    const std::string_view trimmed = StrTrim(entry);
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      continue;
    }
    const std::string key(trimmed.substr(0, eq));
    std::string text(trimmed.substr(eq + 1));
    char tag = '?';  // untagged (legacy): the type is recovered by shape
    if (text.size() >= 2 && text[1] == ':' && std::memchr("idbs", text[0], 4) != nullptr) {
      tag = text[0];
      text.erase(0, 2);
    }
    char* end = nullptr;
    const long long as_int = std::strtoll(text.c_str(), &end, 10);
    const bool is_int = !text.empty() && *end == '\0';
    const double as_double = std::strtod(text.c_str(), &end);
    const bool is_double = !text.empty() && *end == '\0';
    if (tag == 'i' || (tag == '?' && is_int)) {
      values[key] = static_cast<int64_t>(as_int);
    } else if (tag == 'd' || (tag == '?' && is_double)) {
      values[key] = as_double;
    } else if (tag == 'b' || (tag == '?' && (text == "true" || text == "false"))) {
      values[key] = text == "true";
    } else {
      values[key] = std::move(text);  // tagged strings stay verbatim
    }
  }
  return values;
}

Status CheckContext::Restore(const std::map<std::string, CtxValue>& values, TimeNs now) {
  // Dumps carry no static types: keys intern as kAny, all before anything
  // is staged, so a full registry leaves the context untouched.
  std::vector<uint32_t> slots;
  for (const auto& [key, value] : values) {
    const auto slot = KeyRegistry::Instance().TryIntern(key, CtxType::kAny);
    if (!slot.has_value()) {
      return ResourceExhaustedError("context key registry full; cannot restore key '" + key +
                                    "'");
    }
    slots.push_back(*slot);
  }
  auto slot = slots.begin();
  for (const auto& [key, value] : values) {
    StageWrite(*slot++, value);
  }
  MarkReady(now);
  return Status::Ok();
}

// --------------------------------------------------------------- HookSet

HookSite* HookSet::Site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = sites_[name];
  if (!slot) {
    slot = std::make_unique<HookSite>(name);
  }
  return slot.get();
}

CheckContext* HookSet::Context(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = contexts_[name];
  if (!slot) {
    slot = std::make_unique<CheckContext>(name);
  }
  return slot.get();
}

void HookSet::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, site] : sites_) {
    site->Disarm();
  }
}

std::vector<std::string> HookSet::SiteNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : sites_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> HookSet::ContextNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : contexts_) {
    names.push_back(name);
  }
  return names;
}

int HookSet::ArmedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(std::count_if(sites_.begin(), sites_.end(),
                                        [](const auto& entry) { return entry.second->armed(); }));
}

}  // namespace wdg
