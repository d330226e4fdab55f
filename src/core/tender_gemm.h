/**
 * @file
 * Tender matrix multiplication with runtime requantization (Section III).
 *
 * The implicit path (Eq. 2) accumulates group partial sums in an integer
 * accumulator and rescales between groups with a single multiply-by-alpha
 * (a 1-bit left shift for alpha = 2), exactly like the Multi-Scale Systolic
 * Array. The explicit path (Eq. 1) dequantizes each group's partial product
 * separately and adds in floating point — the costly reference Tender
 * avoids. Both are exposed so tests can prove them equivalent and so the
 * Fig. 13 harness can model their performance difference.
 *
 * All three entry points share one chunk pipeline (decompose -> quantize ->
 * accumulate-with-requant -> finish-into-output-view) whose per-chunk tasks
 * are dispatched over the KernelContext's thread pool: Tender's row-chunk
 * decomposition makes chunks embarrassingly parallel by construction.
 *
 * The weight is quantized per column with static scales on every call,
 * and the path is chosen once per call from (backend, bits, K). The pooled
 * backends (Threaded, Packed) quantize it straight into the int16 panel
 * that their cache-blocked int16/int32 group accumulate reads — shared by
 * the implicit AND explicit modes (the explicit golden kernel computes one
 * integer partial per group, so the blocked integer partials slot into the
 * identical per-element FP sequence). The Serial backend, and any call
 * whose K could overflow a group's int32 partial, build the int32 codes of
 * the golden kernels instead. Codes and scales are the same on both paths
 * and integer arithmetic is exact, so results are bit-identical across
 * backends and the determinism tests assert exact equality.
 */

#ifndef TENDER_CORE_TENDER_GEMM_H
#define TENDER_CORE_TENDER_GEMM_H

#include "core/tender_quant.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace tender {

/** Counters from a Tender GEMM (feed the tests and perf/energy models). */
struct TenderGemmStats
{
    int64_t macs = 0;          ///< integer multiply-accumulates
    int64_t rescales = 0;      ///< group-boundary accumulator shifts
    int64_t chunks = 0;        ///< row chunks processed
    /** Calibrated-path chunks beyond the calibrated meta list that reused
     *  the final calibrated entry (static calibration saw a shorter
     *  sequence than the eval tensor). Silent before; now accounted. */
    int64_t metaReuses = 0;
    int64_t peakAbsAcc = 0;    ///< peak |accumulator| observed
    bool overflow32 = false;   ///< accumulator left the int32 range
};

/**
 * Integer core of the implicit pipeline on one quantized chunk: returns
 * the final integer accumulator A_{G-1} (Eq. 2) for each output element.
 * This is the value the MSA produces before the VPU's final dequantization.
 * Single-threaded golden kernel; the pipeline substitutes a blocked
 * bit-identical variant under the pooled backends.
 */
MatrixT<int64_t> chunkAccumulateImplicit(const QuantizedChunk &qc,
                                         const QuantizedWeight &qw,
                                         const TenderConfig &config,
                                         TenderGemmStats *stats = nullptr);

/** Dequantize the accumulator with the chunk's last group scale and the
 *  weight's column scales, add the bias correction row, and write into
 *  rows [r0, r0 + acc.rows()) of y — the pre-sliced output view the chunk
 *  pipeline hands each chunk task. */
void finishChunkInto(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
                     const std::vector<float> &col_scale,
                     const Matrix &bias_correction, Matrix &y, int r0);

/** Bias-times-weight correction row (1 x N) for a chunk's metadata. */
Matrix biasCorrectionRow(const ChunkMeta &meta, const Matrix &w);

/**
 * Full Tender GEMM with dynamic (tensor-derived) decomposition:
 * chunk rows, decompose, quantize, implicit-requantize, dequantize.
 * kernels == nullptr uses defaultKernels().
 */
Matrix tenderMatmul(const Matrix &x, const Matrix &w,
                    const TenderConfig &config,
                    TenderGemmStats *stats = nullptr,
                    const KernelContext *kernels = nullptr);

/** Same pipeline but with pre-calibrated per-chunk metadata. Chunks beyond
 *  the calibrated list reuse the final calibrated entry; each reuse is
 *  counted in TenderGemmStats::metaReuses. */
Matrix tenderMatmulCalibrated(const Matrix &x, const Matrix &w,
                              const std::vector<ChunkMeta> &metas,
                              const TenderConfig &config,
                              TenderGemmStats *stats = nullptr,
                              const KernelContext *kernels = nullptr);

/** Explicit-requantization reference (Eq. 1): one integer GEMM per group,
 *  each dequantized with its own scale and accumulated in FP. Under the
 *  pooled backends the group partials run through the same blocked
 *  int16/int32 accumulate as the implicit path, bit-identical to the
 *  serial kernel. */
Matrix tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                            const TenderConfig &config,
                            const KernelContext *kernels = nullptr);

} // namespace tender

#endif // TENDER_CORE_TENDER_GEMM_H
