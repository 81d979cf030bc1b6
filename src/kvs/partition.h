// Partition manager: tracks SSTable key ranges and their expected checksums,
// and validates them — the paper's motivating safety check ("a checker that
// computes and validates the checksum of each partition", §3.3) plus the
// ascending-key-range invariant used in the correctness-checking discussion.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/sim_disk.h"

namespace kvs {

struct PartitionInfo {
  std::string path;
  std::string min_key;
  std::string max_key;
  uint32_t expected_crc = 0;  // CRC of the file body at registration time
};

class PartitionManager {
 public:
  explicit PartitionManager(wdg::SimDisk& disk) : disk_(disk) {}

  // Registered by the flusher/compaction after a successful table write.
  wdg::Status Register(const std::string& path, const std::string& min_key,
                       const std::string& max_key);
  void Unregister(const std::string& path);

  std::vector<PartitionInfo> Partitions() const;

  // Re-reads the partition and compares checksums. CORRUPTION on mismatch —
  // catches bad media, bit rot, and lost writes under the data. NOT_FOUND for
  // a path that is not registered, or whose file is gone while registered.
  wdg::Status Validate(const std::string& path) const;
  // Validates an entry of a Partitions() snapshot. A merge may retire the
  // table after the snapshot was taken; one no longer registered is retired,
  // not lost, and validates OK.
  wdg::Status Validate(const PartitionInfo& info) const;
  wdg::Status ValidateAll() const;

  // The §3.3 correctness property: key ranges sorted in ascending order.
  wdg::Status CheckRangesSorted() const;

  // Cheap recovery (§5.2): move a corrupted partition aside (renamed with a
  // ".quarantine" suffix) and unregister it, restoring watchdog health
  // without a full restart. Returns the quarantine path.
  wdg::Result<std::string> Quarantine(const std::string& path);
  int64_t quarantined_count() const;

 private:
  uint32_t FileCrc(const std::string& path) const;
  bool Registered(const std::string& path) const;
  // Reads the file and compares its CRC with the registered one.
  wdg::Status CheckFile(const PartitionInfo& info) const;

  wdg::SimDisk& disk_;
  mutable std::mutex mu_;
  std::vector<PartitionInfo> partitions_;
  int64_t quarantined_ = 0;
};

}  // namespace kvs
