#ifndef LQS_EXEC_COST_CONSTANTS_H_
#define LQS_EXEC_COST_CONSTANTS_H_

namespace lqs {

/// Virtual-time cost constants, in milliseconds, shared by the executor
/// (which charges actual virtual time) and the optimizer cost model (which
/// predicts cost from estimated cardinalities). Sharing the constants means
/// optimizer cost error stems from cardinality error — exactly the situation
/// the paper's techniques target (§4.1, §4.6) — rather than from an
/// arbitrarily mis-specified cost model.
///
/// Relative magnitudes are calibrated to SQL Server-like behaviour: random
/// I/O ≫ sequential I/O per row; exchange rows cost several times a scan
/// row (producing the Figure 8 lag); batch mode is an order of magnitude
/// cheaper per row than row mode (§4.7).
namespace cost {

// --- I/O ---
inline constexpr double kIoSequentialPageMs = 0.50;  ///< heap/index page, scan order
inline constexpr double kIoRandomPageMs = 2.00;      ///< seek / RID lookup page
inline constexpr double kIoSegmentMs = 0.60;         ///< columnstore segment
inline constexpr double kIoSpillPageMs = 0.80;       ///< spill write+read per page

// --- Row-mode CPU, per row ---
inline constexpr double kCpuScanRowMs = 0.0010;
inline constexpr double kCpuPredNodeMs = 0.00015;  ///< per expression node
inline constexpr double kCpuFilterRowMs = 0.0004;
inline constexpr double kCpuComputeRowMs = 0.0005;  ///< per projection
inline constexpr double kCpuSeekMs = 0.0040;        ///< B-tree descend per seek
inline constexpr double kCpuHashBuildRowMs = 0.0025;
inline constexpr double kCpuHashProbeRowMs = 0.0015;
inline constexpr double kCpuSortRowMs = 0.0008;     ///< per row per log2(n) level
inline constexpr double kCpuSortInputRowMs = 0.0010;
inline constexpr double kCpuMergeRowMs = 0.0012;
inline constexpr double kCpuNljRowMs = 0.0008;
inline constexpr double kCpuAggInputRowMs = 0.0020;
inline constexpr double kCpuAggOutputRowMs = 0.0010;
inline constexpr double kCpuStreamAggRowMs = 0.0012;
inline constexpr double kCpuExchangeRowMs = 0.0040;
inline constexpr double kCpuExchangeBufferRowMs = 0.0005;
inline constexpr double kCpuSpoolWriteRowMs = 0.0015;
inline constexpr double kCpuSpoolReadRowMs = 0.0005;
inline constexpr double kCpuRowPassMs = 0.0002;  ///< trivial pass-through ops
inline constexpr double kCpuBitmapInsertRowMs = 0.0006;
inline constexpr double kCpuBitmapProbeRowMs = 0.0003;

// --- Batch mode (§4.7) ---
inline constexpr double kCpuBatchRowMs = 0.00012;

/// Rows that fit in operator memory before Sort/Hash spill to disk.
inline constexpr unsigned long long kMemoryRows = 1ULL << 16;
/// Maximum rows an Exchange operator may buffer (§4.4).
inline constexpr unsigned long long kExchangeBufferRows = 65536;
/// Outer rows a buffered Nested Loops join prefetches per refill (§4.4).
inline constexpr unsigned long long kNljPrefetchRows = 8192;

}  // namespace cost
}  // namespace lqs

#endif  // LQS_EXEC_COST_CONSTANTS_H_
