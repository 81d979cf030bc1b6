#include "src/kvs/memtable.h"

#include <algorithm>

namespace kvs {

void Memtable::Set(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool existed = entries_.count(key) > 0;
  auto& entry = entries_[key];
  bytes_ += static_cast<int64_t>(value.size()) - static_cast<int64_t>(entry.value.size());
  if (!existed) {
    bytes_ += static_cast<int64_t>(key.size());
  }
  entry.value = std::move(value);
  entry.tombstone = false;
}

void Memtable::Append(const std::string& key, const std::string& suffix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = entries_[key];
  if (entry.tombstone) {
    entry.value.clear();
    entry.tombstone = false;
  }
  entry.value += suffix;
  bytes_ += static_cast<int64_t>(suffix.size());
}

void Memtable::Del(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = entries_[key];
  bytes_ -= static_cast<int64_t>(entry.value.size());
  entry.value.clear();
  entry.tombstone = true;
}

std::optional<MemEntry> Memtable::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    return it->second;
  }
  // A flush in flight keeps its entries readable here until the SSTable is
  // registered in the index; live entries take precedence (newer writes).
  const auto flushing = flushing_.find(key);
  if (flushing != flushing_.end()) {
    return flushing->second;
  }
  return std::nullopt;
}

int64_t Memtable::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t Memtable::TakeLowWater() {
  std::lock_guard<std::mutex> lock(mu_);
  if (reclaimed_) {
    low_water_ = reclaim_low_;
  } else if (!reclaimed_before_) {
    low_water_ = std::max<int64_t>(0, low_water_ + bytes_ - bytes_at_take_);
  }
  reclaimed_before_ = reclaimed_;
  reclaimed_ = false;
  bytes_at_take_ = bytes_;
  return low_water_;
}

void Memtable::NoteReclaimLocked() {
  reclaim_low_ = reclaimed_ ? std::min(reclaim_low_, bytes_) : bytes_;
  reclaimed_ = true;
}

size_t Memtable::EntryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<std::string, MemEntry>> Memtable::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, MemEntry>> out(entries_.begin(), entries_.end());
  entries_.clear();
  bytes_ = 0;
  NoteReclaimLocked();
  return out;
}

std::vector<std::pair<std::string, MemEntry>> Memtable::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

void Memtable::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  bytes_ = 0;
  NoteReclaimLocked();
}

std::vector<std::pair<std::string, MemEntry>> Memtable::BeginFlush() {
  std::lock_guard<std::mutex> lock(mu_);
  flushing_ = std::move(entries_);
  entries_.clear();
  bytes_ = 0;
  return {flushing_.begin(), flushing_.end()};
}

void Memtable::EndFlush() {
  std::lock_guard<std::mutex> lock(mu_);
  flushing_.clear();
  NoteReclaimLocked();
}

void Memtable::AbortFlush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : flushing_) {
    // A Set/Del that landed during the failed flush is newer; keep it.
    if (entries_.count(key) > 0) {
      continue;
    }
    bytes_ += static_cast<int64_t>(key.size()) + static_cast<int64_t>(entry.value.size());
    entries_[key] = std::move(entry);
  }
  flushing_.clear();
}

}  // namespace kvs
