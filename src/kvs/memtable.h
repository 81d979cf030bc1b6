// In-memory sorted write buffer. Flushed to SSTables by the disk flusher.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace kvs {

// A deletion is stored as a tombstone so flushes propagate it.
struct MemEntry {
  std::string value;
  bool tombstone = false;
};

class Memtable {
 public:
  void Set(const std::string& key, std::string value);
  void Append(const std::string& key, const std::string& suffix);
  void Del(const std::string& key);

  // nullopt: unknown here (fall through to SSTables); tombstone: known-deleted.
  std::optional<MemEntry> Get(const std::string& key) const;

  int64_t ApproximateBytes() const;
  size_t EntryCount() const;

  // The memtable's low-water mark for a signal that samples it sparsely
  // (kvs.res.rss_bytes). ApproximateBytes, sampled, is a sawtooth whose
  // flushes fall between samples, and it reads as growth. Here a sample
  // whose interval saw a flush finish reads what the emptiest flush left
  // behind (taken at EndFlush). The next sample holds that reading, and each
  // later sample without a flush adds its interval's growth. So growth
  // counts only once the flusher has missed a whole interval. The mark stays
  // flat while the flusher keeps up, and also when writes and flushes stop
  // together: a hung WAL append holds the flush lock and freezes the
  // memtable wherever its sawtooth was. It climbs only by growth that no
  // flush takes back.
  int64_t TakeLowWater();

  // Snapshot-and-clear for flushing: returns the sorted contents atomically.
  std::vector<std::pair<std::string, MemEntry>> Drain();
  std::vector<std::pair<std::string, MemEntry>> Snapshot() const;
  void Clear();

  // Two-phase flush keeping every entry readable for the whole flush.
  // BeginFlush moves the live map into a flushing buffer that Get still
  // consults (live entries win — a Set during the flush supersedes the
  // flushed value); EndFlush drops the buffer once the SSTable is registered
  // in the index; AbortFlush restores buffered entries that were not
  // overwritten in the meantime. Callers serialize flushes via flush_lock().
  std::vector<std::pair<std::string, MemEntry>> BeginFlush();
  void EndFlush();
  void AbortFlush();

  // The flusher's mimic checker try-locks this to share the write path's
  // fate; exposed as a timed mutex for bounded acquisition.
  std::timed_mutex& flush_lock() { return flush_lock_; }

 private:
  // Records a reclaim for TakeLowWater; mu_ held.
  void NoteReclaimLocked();

  mutable std::mutex mu_;
  std::map<std::string, MemEntry> entries_;
  std::map<std::string, MemEntry> flushing_;  // in-flight flush, still readable
  int64_t bytes_ = 0;
  // TakeLowWater state, each since its previous call unless noted.
  bool reclaimed_ = false;            // a flush finished (or the table was emptied)
  bool reclaimed_before_ = true;      // reclaimed_ in the interval before
  int64_t reclaim_low_ = 0;           // smallest size a reclaim left behind
  int64_t bytes_at_take_ = 0;         // size at the previous call
  int64_t low_water_ = 0;             // its previous return value
  std::timed_mutex flush_lock_;
};

}  // namespace kvs
