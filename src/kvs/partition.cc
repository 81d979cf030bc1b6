#include "src/kvs/partition.h"

#include <algorithm>

#include "src/common/checksum.h"
#include "src/common/strings.h"

namespace kvs {

uint32_t PartitionManager::FileCrc(const std::string& path) const {
  const auto data = disk_.ReadAll(path);
  return data.ok() ? wdg::Crc32(*data) : 0;
}

wdg::Status PartitionManager::Register(const std::string& path, const std::string& min_key,
                                       const std::string& max_key) {
  PartitionInfo info;
  info.path = path;
  info.min_key = min_key;
  info.max_key = max_key;
  WDG_ASSIGN_OR_RETURN(const std::string data, disk_.ReadAll(path));
  info.expected_crc = wdg::Crc32(data);
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(std::move(info));
  return wdg::Status::Ok();
}

void PartitionManager::Unregister(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(partitions_, [&](const PartitionInfo& p) { return p.path == path; });
}

std::vector<PartitionInfo> PartitionManager::Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_;
}

bool PartitionManager::Registered(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const PartitionInfo& p) { return p.path == path; });
}

wdg::Status PartitionManager::Validate(const std::string& path) const {
  // Instrumented site so campaigns can wedge/disable validation itself.
  WDG_RETURN_IF_ERROR(disk_.injector().Act("kvs.partition.validate"));
  PartitionInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(partitions_.begin(), partitions_.end(),
                                 [&](const PartitionInfo& p) { return p.path == path; });
    if (it == partitions_.end()) {
      return wdg::NotFoundError("unknown partition: " + path);
    }
    info = *it;
  }
  return CheckFile(info);
}

wdg::Status PartitionManager::Validate(const PartitionInfo& info) const {
  WDG_RETURN_IF_ERROR(disk_.injector().Act("kvs.partition.validate"));
  return CheckFile(info);
}

wdg::Status PartitionManager::CheckFile(const PartitionInfo& info) const {
  const auto read = disk_.ReadAll(info.path);
  // A merge unregisters and then deletes its input tables, so a missing file
  // whose registration is also gone was retired; only a file missing under a
  // live registration is a lost partition.
  if (read.status().code() == wdg::StatusCode::kNotFound && !Registered(info.path)) {
    return wdg::Status::Ok();
  }
  WDG_RETURN_IF_ERROR(read.status());
  const std::string& data = *read;
  if (wdg::Crc32(data) != info.expected_crc) {
    return wdg::CorruptionError(
        wdg::StrFormat("partition %s checksum mismatch (expected %08x, got %08x)",
                       info.path.c_str(), info.expected_crc, wdg::Crc32(data)));
  }
  return wdg::Status::Ok();
}

wdg::Status PartitionManager::ValidateAll() const {
  for (const PartitionInfo& info : Partitions()) {
    WDG_RETURN_IF_ERROR(Validate(info));
  }
  return wdg::Status::Ok();
}

wdg::Result<std::string> PartitionManager::Quarantine(const std::string& path) {
  const std::string quarantine_path = path + ".quarantine";
  WDG_RETURN_IF_ERROR(disk_.Rename(path, quarantine_path));
  Unregister(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++quarantined_;
  }
  return quarantine_path;
}

int64_t PartitionManager::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

wdg::Status PartitionManager::CheckRangesSorted() const {
  const auto partitions = Partitions();
  for (size_t i = 1; i < partitions.size(); ++i) {
    if (partitions[i].min_key < partitions[i - 1].min_key) {
      return wdg::InternalError(
          wdg::StrFormat("partition ranges out of order at %s", partitions[i].path.c_str()));
    }
  }
  return wdg::Status::Ok();
}

}  // namespace kvs
