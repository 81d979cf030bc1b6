// Unit tests for kvs components: types, memtable, WAL, SSTable, index,
// partition manager, flusher, compaction, replication.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>

#include "src/common/checksum.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/kvs/ctx_keys.h"
#include "src/kvs/compaction.h"
#include "src/kvs/flusher.h"
#include "src/kvs/index.h"
#include "src/kvs/memtable.h"
#include "src/kvs/partition.h"
#include "src/kvs/replication.h"
#include "src/kvs/sstable.h"
#include "src/kvs/types.h"
#include "src/kvs/wal.h"

namespace kvs {
namespace {

TEST(KvsTypesTest, RequestRoundtrip) {
  Request req;
  req.op = OpType::kSet;
  req.key = "user:1";
  req.value = "alice";
  const auto decoded = Request::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, OpType::kSet);
  EXPECT_EQ(decoded->key, "user:1");
  EXPECT_EQ(decoded->value, "alice");
}

TEST(KvsTypesTest, AllOpsRoundtrip) {
  for (const OpType op : {OpType::kGet, OpType::kSet, OpType::kAppend, OpType::kDel}) {
    Request req;
    req.op = op;
    req.key = "k";
    const auto decoded = Request::Decode(req.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(KvsTypesTest, MalformedRequestRejected) {
  EXPECT_FALSE(Request::Decode("garbage").ok());
  EXPECT_FALSE(Request::Decode("FLY\x1fkey\x1fval").ok());
}

TEST(KvsTypesTest, ResponseRoundtrip) {
  const Response ok = Response::Ok("value");
  const auto decoded_ok = Response::Decode(ok.Encode());
  ASSERT_TRUE(decoded_ok.ok());
  EXPECT_TRUE(decoded_ok->ok);
  EXPECT_EQ(decoded_ok->value, "value");

  const Response err = Response::Err(wdg::TimeoutError("slow"));
  const auto decoded_err = Response::Decode(err.Encode());
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_FALSE(decoded_err->ok);
  EXPECT_NE(decoded_err->error.find("TIMEOUT"), std::string::npos);
}

TEST(MemtableTest, SetGetDelLifecycle) {
  Memtable table;
  table.Set("a", "1");
  EXPECT_EQ(table.Get("a")->value, "1");
  table.Set("a", "2");
  EXPECT_EQ(table.Get("a")->value, "2");
  table.Del("a");
  ASSERT_TRUE(table.Get("a").has_value());
  EXPECT_TRUE(table.Get("a")->tombstone);
  EXPECT_FALSE(table.Get("missing").has_value());
}

TEST(MemtableTest, AppendConcatenatesAndRevivesTombstone) {
  Memtable table;
  table.Set("log", "a");
  table.Append("log", "b");
  EXPECT_EQ(table.Get("log")->value, "ab");
  table.Del("log");
  table.Append("log", "c");
  EXPECT_EQ(table.Get("log")->value, "c");
  EXPECT_FALSE(table.Get("log")->tombstone);
}

TEST(MemtableTest, ByteAccountingTracksContent) {
  Memtable table;
  EXPECT_EQ(table.ApproximateBytes(), 0);
  table.Set("key", "12345");
  const int64_t after_set = table.ApproximateBytes();
  EXPECT_EQ(after_set, 8);  // 3 + 5
  table.Set("key", "1");
  EXPECT_LT(table.ApproximateBytes(), after_set);
  table.Del("key");
  EXPECT_EQ(table.ApproximateBytes(), 3);  // key remains as tombstone
}

TEST(MemtableTest, TwoPhaseFlushKeepsEntriesReadableAndNewerWrites) {
  Memtable table;
  table.Set("a", "old");
  table.Set("b", "keep");
  const auto entries = table.BeginFlush();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(table.Get("a")->value, "old");  // still readable mid-flush
  table.Set("a", "new");                    // lands while the flush runs
  table.AbortFlush();
  EXPECT_EQ(table.Get("a")->value, "new");  // the newer write wins the restore
  EXPECT_EQ(table.Get("b")->value, "keep");
  // A successful flush drops the buffer once the SSTable is indexed.
  (void)table.BeginFlush();
  table.EndFlush();
  EXPECT_FALSE(table.Get("a").has_value());
}

TEST(MemtableTest, DrainEmptiesAndSortsEntries) {
  Memtable table;
  table.Set("b", "2");
  table.Set("a", "1");
  const auto drained = table.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].first, "a");  // sorted
  EXPECT_EQ(table.EntryCount(), 0u);
  EXPECT_EQ(table.ApproximateBytes(), 0);
}

class KvsDiskFixture : public ::testing::Test {
 protected:
  KvsDiskFixture() : injector_(clock_), disk_(clock_, injector_, FastDisk()) {}
  static wdg::DiskOptions FastDisk() {
    wdg::DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }
  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
};

using WalTest = KvsDiskFixture;

TEST_F(WalTest, AppendAndRecover) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("record-1").ok());
  ASSERT_TRUE(wal.Append("record-2").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(recovery->records[0], "record-1");
  EXPECT_EQ(recovery->corrupt_tail_bytes, 0);
}

TEST_F(WalTest, RecoveryStopsAtCorruptRecord) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("good").ok());
  ASSERT_TRUE(wal.Append("will-be-corrupted").ok());
  // Flip a byte inside the second record's payload.
  const auto size = disk_.Size("/w/wal.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(disk_.Write("/w/wal.log", *size - 3, "X").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(recovery->records[0], "good");
  EXPECT_GT(recovery->corrupt_tail_bytes, 0);
}

TEST_F(WalTest, RecoveryToleratesTornTail) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("whole").ok());
  // Simulate a torn write: an incomplete frame at the end.
  ASSERT_TRUE(disk_.Append("/w/wal.log", "\x09\x00\x00").ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 1u);
}

TEST_F(WalTest, TruncateRestartsLog) {
  Wal wal(disk_, "/w/wal.log");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("x").ok());
  ASSERT_TRUE(wal.Truncate().ok());
  const auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
}

using SsTableTest = KvsDiskFixture;

static std::vector<std::pair<std::string, MemEntry>> SampleEntries() {
  return {{"alpha", {"1", false}}, {"beta", {"2", false}}, {"gamma", {"", true}}};
}

TEST_F(SsTableTest, WriteLoadRoundtrip) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  const auto loaded = SsTable::Load(disk_, "/sst/1");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->at("alpha").value, "1");
  EXPECT_TRUE(loaded->at("gamma").tombstone);
}

TEST_F(SsTableTest, ValidateDetectsBitRot) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  EXPECT_TRUE(SsTable::Validate(disk_, "/sst/1").ok());
  disk_.MarkBadRange("/sst/1", 2, 3);
  EXPECT_EQ(SsTable::Validate(disk_, "/sst/1").code(), wdg::StatusCode::kCorruption);
}

TEST_F(SsTableTest, LookupFindsAndMisses) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", SampleEntries()).ok());
  const auto hit = SsTable::Lookup(disk_, "/sst/1", "beta");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->value, "2");
  const auto miss = SsTable::Lookup(disk_, "/sst/1", "zeta");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
}

TEST_F(SsTableTest, EmptyTableIsValid) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/empty", {}).ok());
  EXPECT_TRUE(SsTable::Validate(disk_, "/sst/empty").ok());
  const auto loaded = SsTable::Load(disk_, "/sst/empty");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

class IndexTest : public KvsDiskFixture {
 protected:
  IndexTest() : index_(disk_, memtable_) {}
  Memtable memtable_;
  Index index_;
};

TEST_F(IndexTest, MemtableShadowsTables) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"old", false}}}).ok());
  index_.AddTable("/sst/1");
  EXPECT_EQ(**index_.Get("k"), "old");
  memtable_.Set("k", "new");
  EXPECT_EQ(**index_.Get("k"), "new");
}

TEST_F(IndexTest, NewestTableWins) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"v1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"k", {"v2", false}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");  // newer
  EXPECT_EQ(**index_.Get("k"), "v2");
}

TEST_F(IndexTest, TombstoneHidesOlderValue) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"k", {"v1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"k", {"", true}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");
  const auto result = index_.Get("k");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->has_value());
}

TEST_F(IndexTest, ReplaceTablesSwapsAtomically) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/2", {{"b", {"2", false}}}).ok());
  ASSERT_TRUE(
      SsTable::Write(disk_, "/sst/m", {{"a", {"1", false}}, {"b", {"2", false}}}).ok());
  index_.AddTable("/sst/1");
  index_.AddTable("/sst/2");
  index_.ReplaceTables({"/sst/1", "/sst/2"}, "/sst/m");
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ(**index_.Get("a"), "1");
  EXPECT_EQ(**index_.Get("b"), "2");
}

TEST_F(IndexTest, InjectedLookupFaultSurfaces) {
  wdg::FaultSpec spec;
  spec.id = "idx";
  spec.site_pattern = "index.lookup";
  spec.kind = wdg::FaultKind::kError;
  spec.error_code = wdg::StatusCode::kInternal;
  injector_.Inject(spec);
  EXPECT_FALSE(index_.Get("k").ok());
  injector_.ClearAll();
}

class PartitionTest : public KvsDiskFixture {
 protected:
  PartitionTest() : partitions_(disk_) {}
  PartitionManager partitions_;
};

TEST_F(PartitionTest, ValidatePassesOnIntactData) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/p1", "a", "a").ok());
  EXPECT_TRUE(partitions_.Validate("/sst/p1").ok());
  EXPECT_TRUE(partitions_.ValidateAll().ok());
}

TEST_F(PartitionTest, ValidateCatchesCorruption) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"payload", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/p1", "a", "a").ok());
  disk_.MarkBadRange("/sst/p1", 1, 2);
  EXPECT_EQ(partitions_.Validate("/sst/p1").code(), wdg::StatusCode::kCorruption);
}

TEST_F(PartitionTest, UnknownPartitionIsNotFound) {
  EXPECT_EQ(partitions_.Validate("/sst/ghost").code(), wdg::StatusCode::kNotFound);
}

// A merge loop that retires every table while a validation of it is parked
// between its lookup and its read (a hang on the disk read holds it there):
// the table was retired, not lost, so no round may report NOT_FOUND.
TEST_F(PartitionTest, ValidateRacingAMergeLoopNeverReportsNotFound) {
  for (int round = 0; round < 20; ++round) {
    const std::string path = wdg::StrFormat("/sst/m%02d", round);
    ASSERT_TRUE(SsTable::Write(disk_, path, {{"k", {"v", false}}}).ok());
    ASSERT_TRUE(partitions_.Register(path, "k", "k").ok());
    wdg::FaultSpec hang;
    hang.id = "read.hang";
    hang.site_pattern = "disk.read";
    hang.kind = wdg::FaultKind::kHang;
    injector_.Inject(hang);
    wdg::Status status;
    std::thread validator([&] { status = partitions_.Validate(path); });
    const wdg::TimeNs deadline = clock_.NowNs() + wdg::Sec(10);
    while (injector_.parked_thread_count() == 0 && clock_.NowNs() < deadline) {
      clock_.SleepFor(wdg::Ms(1));
    }
    ASSERT_EQ(injector_.parked_thread_count(), 1) << "validator never reached the read";
    // The merge: unregister, then delete the input table.
    partitions_.Unregister(path);
    ASSERT_TRUE(disk_.Delete(path).ok());
    injector_.Remove("read.hang");
    validator.join();
    EXPECT_TRUE(status.ok()) << "round " << round << ": " << status;
  }
}

TEST_F(PartitionTest, MissingFileOfRegisteredPartitionIsNotFound) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/lost", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/lost", "a", "a").ok());
  ASSERT_TRUE(disk_.Delete("/sst/lost").ok());
  EXPECT_EQ(partitions_.Validate("/sst/lost").code(), wdg::StatusCode::kNotFound);
  const auto snapshot = partitions_.Partitions();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(partitions_.Validate(snapshot[0]).code(), wdg::StatusCode::kNotFound);
}

// The maintenance loop validates entries of a Partitions() snapshot. A merge
// that retires the table between the snapshot and the validation retired it,
// whether or not it has deleted the file yet; neither is a lost partition.
TEST_F(PartitionTest, ValidateOfARetiredSnapshotEntryIsOk) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/r1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/r1", "a", "a").ok());
  const auto snapshot = partitions_.Partitions();
  ASSERT_EQ(snapshot.size(), 1u);
  partitions_.Unregister("/sst/r1");
  EXPECT_TRUE(partitions_.Validate(snapshot[0]).ok());
  ASSERT_TRUE(disk_.Delete("/sst/r1").ok());
  EXPECT_TRUE(partitions_.Validate(snapshot[0]).ok());
}

TEST_F(PartitionTest, RangeOrderInvariant) {
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p1", {{"a", {"1", false}}}).ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p2", {{"m", {"2", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/p1", "a", "f").ok());
  ASSERT_TRUE(partitions_.Register("/sst/p2", "m", "z").ok());
  EXPECT_TRUE(partitions_.CheckRangesSorted().ok());
  ASSERT_TRUE(SsTable::Write(disk_, "/sst/p3", {{"c", {"3", false}}}).ok());
  ASSERT_TRUE(partitions_.Register("/sst/p3", "c", "d").ok());  // out of order
  EXPECT_FALSE(partitions_.CheckRangesSorted().ok());
}

class FlusherTest : public KvsDiskFixture {
 protected:
  FlusherTest()
      : index_(disk_, memtable_), partitions_(disk_),
        flusher_(clock_, disk_, memtable_, index_, partitions_, hooks_, metrics_, Options()) {}
  static FlusherOptions Options() {
    FlusherOptions options;
    options.flush_threshold_bytes = 64;
    options.poll_interval = wdg::Ms(5);
    options.table_dir = "/sst";
    return options;
  }
  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  Flusher flusher_;
};

TEST_F(FlusherTest, FlushMovesDataToTable) {
  memtable_.Set("k1", std::string(100, 'x'));
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(memtable_.EntryCount(), 0u);
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ((*index_.Get("k1"))->size(), 100u);
  EXPECT_EQ(partitions_.Partitions().size(), 1u);
  EXPECT_EQ(flusher_.flush_count(), 1);
}

TEST_F(FlusherTest, BelowThresholdIsNoop) {
  memtable_.Set("k", "tiny");
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(index_.Tables().size(), 0u);
  EXPECT_EQ(memtable_.EntryCount(), 1u);
  ASSERT_TRUE(flusher_.FlushOnce(/*force=*/true).ok());
  EXPECT_EQ(index_.Tables().size(), 1u);
}

TEST_F(FlusherTest, FailedFlushRestoresMemtable) {
  memtable_.Set("k1", std::string(100, 'x'));
  wdg::FaultSpec spec;
  spec.id = "werr";
  spec.site_pattern = "disk.create";
  spec.kind = wdg::FaultKind::kError;
  injector_.Inject(spec);
  EXPECT_FALSE(flusher_.FlushOnce().ok());
  injector_.ClearAll();
  EXPECT_EQ(memtable_.EntryCount(), 1u);  // data restored, not lost
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  EXPECT_EQ(**index_.Get("k1"), std::string(100, 'x'));
}

TEST_F(FlusherTest, KeyStaysReadableThroughoutFlush) {
  memtable_.Set("k1", std::string(100, 'x'));
  // Slow the SSTable write down so the flush window is wide open.
  wdg::FaultSpec spec;
  spec.id = "slowwrite";
  spec.site_pattern = "disk.create";
  spec.kind = wdg::FaultKind::kDelay;
  spec.delay = wdg::Ms(60);
  injector_.Inject(spec);
  std::atomic<bool> done{false};
  wdg::JoiningThread flush_thread([&] {
    EXPECT_TRUE(flusher_.FlushOnce().ok());
    done.store(true);
  });
  // Before the two-phase flush, the drained key was in neither the memtable
  // nor the table list for the whole write: concurrent Gets returned
  // NOT_FOUND for a durably-written key (the campaign's API probe caught it).
  while (!done.load()) {
    const auto value = index_.Get("k1");
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(value->has_value());
  }
  flush_thread.Join();
  EXPECT_EQ(**index_.Get("k1"), std::string(100, 'x'));
}

TEST_F(FlusherTest, HookFiresWhenArmed) {
  hooks_.Arm("FlushMemtable:1", "FlushLoop_ctx");
  memtable_.Set("k1", std::string(100, 'x'));
  ASSERT_TRUE(flusher_.FlushOnce().ok());
  wdg::CheckContext* ctx = hooks_.Context("FlushLoop_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(kvs::keys::EntryCount()), 1);
  EXPECT_TRUE(ctx->Get(kvs::keys::FlushFile()).has_value());
}

TEST_F(FlusherTest, BackgroundLoopFlushesOnThreshold) {
  flusher_.Start();
  memtable_.Set("big", std::string(200, 'y'));
  clock_.SleepFor(wdg::Ms(60));
  flusher_.Stop();
  EXPECT_GE(flusher_.flush_count(), 1);
}

class CompactionTest : public KvsDiskFixture {
 protected:
  CompactionTest()
      : index_(disk_, memtable_), partitions_(disk_),
        compaction_(clock_, disk_, index_, partitions_, hooks_, metrics_, Options()) {}
  static CompactionOptions Options() {
    CompactionOptions options;
    options.max_tables = 2;
    options.poll_interval = wdg::Ms(5);
    options.table_dir = "/sst";
    return options;
  }
  void WriteTable(const std::string& path, const std::string& key, const std::string& value,
                  bool tombstone = false) {
    ASSERT_TRUE(SsTable::Write(disk_, path, {{key, {value, tombstone}}}).ok());
    index_.AddTable(path);
    ASSERT_TRUE(partitions_.Register(path, key, key).ok());
  }
  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  CompactionManager compaction_;
};

TEST_F(CompactionTest, MergesTablesAndDropsTombstones) {
  WriteTable("/sst/1", "a", "v1");
  WriteTable("/sst/2", "a", "v2");     // newer value wins
  WriteTable("/sst/3", "b", "", true);  // tombstone drops out
  ASSERT_TRUE(compaction_.CompactOnce().ok());
  ASSERT_EQ(index_.Tables().size(), 1u);
  EXPECT_EQ(**index_.Get("a"), "v2");
  EXPECT_FALSE(index_.Get("b")->has_value());
  EXPECT_FALSE(disk_.Exists("/sst/1"));
  EXPECT_EQ(compaction_.compaction_count(), 1);
}

TEST_F(CompactionTest, AtOrBelowMaxIsNoop) {
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  ASSERT_TRUE(compaction_.CompactOnce().ok());
  EXPECT_EQ(index_.Tables().size(), 2u);
}

TEST_F(CompactionTest, InjectedMergeHangDetectableViaProbe) {
  WriteTable("/sst/1", "a", "1");
  wdg::FaultSpec spec;
  spec.id = "stuck";
  spec.site_pattern = "compact.merge";
  spec.kind = wdg::FaultKind::kError;  // error variant keeps the test instant
  spec.error_code = wdg::StatusCode::kInternal;
  injector_.Inject(spec);
  EXPECT_FALSE(compaction_.MergeProbe("checker").ok());
  injector_.ClearAll();
  EXPECT_TRUE(compaction_.MergeProbe("checker").ok());
}

TEST_F(CompactionTest, GetPropagatesTrulyMissingTable) {
  // A listed table whose file is gone while the list is stable is damage,
  // not a compaction race: Index::Get must not silently report "no value".
  WriteTable("/sst/1", "a", "1");
  ASSERT_TRUE(disk_.Delete("/sst/1").ok());
  const auto result = index_.Get("a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), wdg::StatusCode::kNotFound);
}

TEST_F(CompactionTest, MergeProbeToleratesConcurrentlyCompactedTable) {
  // The probe snapshots the table list, then loads; a concurrent CompactOnce
  // can delete a listed table in between. Simulate the stale snapshot by
  // deleting a file out from under the index: progress, not a fault.
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  ASSERT_TRUE(disk_.Delete("/sst/1").ok());
  EXPECT_TRUE(compaction_.MergeProbe("checker").ok());
}

TEST_F(CompactionTest, BackgroundLoopCompacts) {
  WriteTable("/sst/1", "a", "1");
  WriteTable("/sst/2", "b", "2");
  WriteTable("/sst/3", "c", "3");
  compaction_.Start();
  clock_.SleepFor(wdg::Ms(80));
  compaction_.Stop();
  EXPECT_EQ(index_.Tables().size(), 1u);
}

// Flush and compaction race on one index with no faults injected. A flush
// used to index its table before registering the partition, so a merge in
// between either deleted the file under Register (the flush failed
// NOT_FOUND and skipped the WAL truncate) or unregistered the partition
// before Register added it back for good (the fsck then failed NOT_FOUND on
// every pass).
class FlushCompactionStressTest : public KvsDiskFixture {
 protected:
  FlushCompactionStressTest()
      : index_(disk_, memtable_), partitions_(disk_),
        flusher_(clock_, disk_, memtable_, index_, partitions_, hooks_, metrics_,
                 FlushOptions()),
        compaction_(clock_, disk_, index_, partitions_, hooks_, metrics_, MergeOptions()) {}
  static FlusherOptions FlushOptions() {
    FlusherOptions options;
    options.flush_threshold_bytes = 64;
    options.table_dir = "/sst";
    return options;
  }
  static CompactionOptions MergeOptions() {
    CompactionOptions options;
    options.max_tables = 1;  // merge whenever a flush lands
    options.table_dir = "/sst";
    return options;
  }
  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  Flusher flusher_;
  CompactionManager compaction_;
};

// Runs the calling thread on the first CPU this process may use. The flush
// and merge loops both call it, so they share one core and the scheduler
// switches between them at arbitrary points, inside the flush's publish
// window too; on separate cores a merge almost never lands there.
void ShareFirstCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

TEST_F(FlushCompactionStressTest, EveryFlushRegistersAPartitionThatExists) {
  // Each flush rewrites the same 64 keys with 1 KiB values: the flushed
  // table is large, so Register's read-and-checksum is a wide window, while
  // the merged table stays the same size, so a merge fits in one time slice.
  constexpr int kFlushes = 2000;
  constexpr int kEntriesPerFlush = 64;
  std::atomic<bool> flushing{true};
  wdg::JoiningThread merger([&] {
    ShareFirstCpu();
    while (flushing.load()) {
      if (!compaction_.CompactOnce().ok()) {
        metrics_.GetCounter("kvs.compaction.errors")->Increment();
      }
    }
  });
  wdg::Status first_error = wdg::Status::Ok();
  wdg::JoiningThread flush_loop([&] {
    ShareFirstCpu();
    for (int i = 0; i < kFlushes; ++i) {
      for (int e = 0; e < kEntriesPerFlush; ++e) {
        memtable_.Set(wdg::StrFormat("k%04d", e),
                      std::string(1024, static_cast<char>('a' + i % 26)));
      }
      const wdg::Status status = flusher_.FlushOnce();
      if (!status.ok()) {
        metrics_.GetCounter("kvs.flusher.errors")->Increment();
        if (first_error.ok()) {
          first_error = status;
        }
      }
    }
    flushing.store(false);
  });
  flush_loop.Join();
  merger.Join();

  EXPECT_EQ(metrics_.GetCounter("kvs.flusher.errors")->Value(), 0) << first_error;
  EXPECT_EQ(metrics_.GetCounter("kvs.compaction.errors")->Value(), 0);
  EXPECT_EQ(flusher_.flush_count(), kFlushes);
  EXPECT_GT(compaction_.compaction_count(), 0);
  for (const PartitionInfo& partition : partitions_.Partitions()) {
    EXPECT_TRUE(disk_.Exists(partition.path)) << "stale partition " << partition.path;
  }
  EXPECT_TRUE(partitions_.ValidateAll().ok());
}

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : injector_(clock_), net_(clock_, injector_, FastNet()) {}
  static wdg::NetOptions FastNet() {
    wdg::NetOptions options;
    options.base_latency = wdg::Us(20);
    return options;
  }
  ReplicationOptions Options() {
    ReplicationOptions options;
    options.followers = {"f1"};
    options.poll_interval = wdg::Ms(5);
    options.ack_timeout = wdg::Ms(100);
    return options;
  }
  wdg::RealClock& clock_ = wdg::RealClock::Instance();
  wdg::FaultInjector injector_;
  wdg::SimNet net_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
};

TEST_F(ReplicationTest, BatchesReachFollower) {
  wdg::Endpoint* follower = net_.CreateEndpoint("f1");
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  std::thread follower_thread([&] {
    const auto msg = follower->Recv(wdg::Sec(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, kMsgReplicate);
    EXPECT_NE(msg->payload.find("SET"), std::string::npos);
    ASSERT_TRUE(follower->Reply(*msg, "ack").ok());
  });
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  req.value = "v";
  engine.Enqueue(req);
  follower_thread.join();
  clock_.SleepFor(wdg::Ms(20));
  engine.Stop();
  EXPECT_GE(engine.batches_sent(), 1);
  EXPECT_EQ(engine.ack_failures(), 0);
}

TEST_F(ReplicationTest, MissingAckCountsFailure) {
  net_.CreateEndpoint("f1");  // mute follower: never acks
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  engine.Enqueue(req);
  clock_.SleepFor(wdg::Ms(200));
  engine.Stop();
  EXPECT_GE(engine.ack_failures(), 1);
}

TEST_F(ReplicationTest, HookCapturesFollowerAndBatchSize) {
  wdg::Endpoint* follower = net_.CreateEndpoint("f1");
  hooks_.Arm("ReplicateBatch:1", "ReplicationLoop_ctx");
  ReplicationEngine engine(clock_, net_, "leader", hooks_, metrics_, Options());
  engine.Start();
  std::thread follower_thread([&] {
    const auto msg = follower->Recv(wdg::Sec(5));
    if (msg.has_value()) {
      (void)follower->Reply(*msg, "ack");
    }
  });
  Request req;
  req.op = OpType::kSet;
  req.key = "k";
  engine.Enqueue(req);
  follower_thread.join();
  engine.Stop();
  wdg::CheckContext* ctx = hooks_.Context("ReplicationLoop_ctx");
  EXPECT_TRUE(ctx->ready());
  EXPECT_EQ(*ctx->Get(kvs::keys::Follower()), "f1");
  EXPECT_EQ(*ctx->Get(kvs::keys::BatchSize()), 1);
}

}  // namespace
}  // namespace kvs
