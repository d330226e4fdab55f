#include "core/tender_gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "quant/quantizer.h"
#include "util/cpu_features.h"

namespace tender {

namespace {

void
notePeak(TenderGemmStats *stats, const MatrixT<int64_t> &acc)
{
    if (!stats)
        return;
    for (int64_t v : acc.data()) {
        stats->peakAbsAcc = std::max(stats->peakAbsAcc, std::abs(v));
        if (std::abs(v) > int64_t(std::numeric_limits<int32_t>::max()))
            stats->overflow32 = true;
    }
}

void
mergeStats(TenderGemmStats &into, const TenderGemmStats &from)
{
    into.macs += from.macs;
    into.rescales += from.rescales;
    into.chunks += from.chunks;
    into.metaReuses += from.metaReuses;
    into.peakAbsAcc = std::max(into.peakAbsAcc, from.peakAbsAcc);
    into.overflow32 = into.overflow32 || from.overflow32;
}

} // namespace

MatrixT<int64_t>
chunkAccumulateImplicit(const QuantizedChunk &qc, const QuantizedWeight &qw,
                        const TenderConfig &config, TenderGemmStats *stats)
{
    TENDER_CHECK(qc.codes.cols() == qw.codes.rows());
    const int rows = qc.codes.rows();
    const int n = qw.codes.cols();
    const ChunkMeta &meta = qc.meta;

    MatrixT<int64_t> acc(rows, n, 0);
    for (int g = 0; g < meta.groups(); ++g) {
        if (g > 0) {
            // Runtime requantization: A <- A * alpha between groups. For
            // alpha = 2 this is the MSA's 1-bit left shift.
            for (auto &v : acc.data())
                v *= config.alpha;
            if (stats)
                stats->rescales += int64_t(rows) * int64_t(n);
            notePeak(stats, acc);
            if (config.checkOverflow) {
                for (int64_t v : acc.data())
                    TENDER_CHECK_MSG(
                        std::abs(v) <=
                            int64_t(std::numeric_limits<int32_t>::max()),
                        "32-bit accumulator overflow during rescale");
            }
        }
        // Accumulate the partial products of this group's channels. The
        // Index Buffer ordering (meta.order) makes the channel walk
        // sequential per group, as the hardware streams it.
        for (int idx = meta.groupStart[size_t(g)];
             idx < meta.groupStart[size_t(g) + 1]; ++idx) {
            const int c = meta.order[size_t(idx)];
            for (int r = 0; r < rows; ++r) {
                const int64_t a = qc.codes(r, c);
                if (a == 0)
                    continue;
                const int32_t *wrow = qw.codes.rowPtr(c);
                int64_t *arow = acc.rowPtr(r);
                for (int j = 0; j < n; ++j)
                    arow[j] += a * int64_t(wrow[j]);
            }
        }
        if (stats)
            stats->macs += int64_t(meta.groupSize(g)) * int64_t(rows) *
                int64_t(n);
    }
    notePeak(stats, acc);
    if (config.checkOverflow) {
        for (int64_t v : acc.data())
            TENDER_CHECK_MSG(
                std::abs(v) <= int64_t(std::numeric_limits<int32_t>::max()),
                "32-bit accumulator overflow after final group");
    }
    return acc;
}

namespace {

/** Entries [j0, j1) of the bias-correction row into out[j0, j1): channels
 *  ascending, so a column slice adds in the same order as the whole row. */
void
biasCorrectionCols(const ChunkMeta &meta, const Matrix &w, int j0, int j1,
                   float *out)
{
    std::fill(out + j0, out + j1, 0.f);
    for (int c = 0; c < w.rows(); ++c) {
        const double b = meta.bias[size_t(c)];
        if (b == 0.0)
            continue;
        const float *wrow = w.rowPtr(c);
        for (int j = j0; j < j1; ++j)
            out[j] += float(b * double(wrow[j]));
    }
}

/** finishChunkInto restricted to output columns [j0, j1). */
void
finishColsInto(const MatrixT<int64_t> &acc, const ChunkMeta &meta,
               const std::vector<float> &col_scale, const float *corr,
               int j0, int j1, Matrix &y, int r0)
{
    const float s_last = meta.scale[size_t(meta.groups() - 1)];
    for (int r = 0; r < acc.rows(); ++r) {
        const int64_t *arow = acc.rowPtr(r);
        float *yrow = y.rowPtr(r0 + r);
        for (int j = j0; j < j1; ++j)
            yrow[j] = float(double(arow[j]) * double(s_last) *
                            double(col_scale[size_t(j)])) + corr[j];
    }
}

} // namespace

Matrix
biasCorrectionRow(const ChunkMeta &meta, const Matrix &w)
{
    TENDER_CHECK(meta.channels() == w.rows());
    Matrix row(1, w.cols());
    biasCorrectionCols(meta, w, 0, w.cols(), row.rowPtr(0));
    return row;
}

void
finishChunkInto(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
                const std::vector<float> &col_scale,
                const Matrix &bias_correction, Matrix &y, int r0)
{
    finishColsInto(acc, qc.meta, col_scale, bias_correction.rowPtr(0), 0,
                   acc.cols(), y, r0);
}

namespace {

// ---------------------------------------------------------------------------
// Fast blocked accumulate (pooled backends).
//
// The golden kernel above walks channel-by-channel across the full
// accumulator, so for transformer-scale N the accumulator row working set
// lives in L3. The blocked variant processes an output-column slice at a
// time with group partial sums in int32 (codes are at most 8 bits wide and
// a group holds at most K channels, so a whole group's partial sum is
// bounded inside int32 — checked once per call from bits and K). Integer
// arithmetic is exact, so the result is bit-identical to the golden
// kernel; peak/overflow tracking scans the same accumulator values at the
// same group boundaries.
// ---------------------------------------------------------------------------

/** Output-column slice width: int32 partial row of 512 B. */
constexpr int kFastColBlock = 128;
/** Chunk-row band: partial band of kFastColBlock*kFastRowBand*4 B = 16 KB
 *  stays L1-resident while a group's channels stream through it. */
constexpr int kFastRowBand = 32;

/** Transposed int16 copy of a chunk's activation codes (channel-major, so
 *  a group's channel walk reads one contiguous row per channel);
 *  bits <= 8 guarantees the fit. */
CodePanel16
packCodesTransposed(const IntMatrix &m)
{
    CodePanel16 p(m.cols(), m.rows());
    for (int r = 0; r < m.rows(); ++r) {
        const int32_t *row = m.rowPtr(r);
        for (int c = 0; c < m.cols(); ++c)
            p.rowPtr(c)[r] = int16_t(row[c]);
    }
    return p;
}

/** True when ONE group's int32 partial sum provably cannot overflow at
 *  worst-case codes for any decomposition of a K-channel reduction (a
 *  group holds at most K channels; the partial is folded into the int64
 *  running accumulator at each group boundary, so only the per-group bound
 *  is needed — it holds for any transformer-scale K at b <= 8). */
bool
fastEligible(int bits, int k)
{
    if (bits > 8)
        return false;
    const int64_t mc = maxCode(bits);
    return mc * mc * int64_t(k) <=
        int64_t(std::numeric_limits<int32_t>::max());
}

/** Blocked accumulate over output columns [j0, j1): identical arithmetic
 *  to chunkAccumulateImplicit restricted to that column slice. Group
 *  partials run in an L1-resident int32 band (exact under the
 *  fastEligible bound); the running accumulator, like the golden
 *  kernel's, is int64 so saturating workloads overflow-account rather
 *  than wrap. */
void
fastAccumulateCols(const CodePanel16 &xt, const CodePanel16 &w16,
                   const ChunkMeta &meta, const TenderConfig &config,
                   int j0, int j1, MatrixT<int64_t> &acc, bool track,
                   int64_t *peak_abs, bool *overflow)
{
    const int rows = xt.cols;
    const int jw = j1 - j0;
    const int64_t int32_max = int64_t(std::numeric_limits<int32_t>::max());
    std::vector<int32_t> part(size_t(kFastRowBand) * size_t(jw));
    std::vector<int64_t> accb(size_t(kFastRowBand) * size_t(jw));

    for (int rb = 0; rb < rows; rb += kFastRowBand) {
        const int rn = std::min(kFastRowBand, rows - rb);
        const size_t cnt = size_t(rn) * size_t(jw);
        std::fill(accb.begin(), accb.begin() + cnt, int64_t{0});
        for (int g = 0; g < meta.groups(); ++g) {
            if (g > 0) {
                for (size_t i = 0; i < cnt; ++i)
                    accb[i] *= config.alpha;
                if (track || config.checkOverflow) {
                    for (size_t i = 0; i < cnt; ++i) {
                        const int64_t a = std::abs(accb[i]);
                        if (track) {
                            *peak_abs = std::max(*peak_abs, a);
                            if (a > int32_max)
                                *overflow = true;
                        }
                        if (config.checkOverflow)
                            TENDER_CHECK_MSG(
                                a <= int32_max,
                                "32-bit accumulator overflow during rescale");
                    }
                }
            }
            std::fill(part.begin(), part.begin() + cnt, 0);
            for (int idx = meta.groupStart[size_t(g)];
                 idx < meta.groupStart[size_t(g) + 1]; ++idx) {
                const int c = meta.order[size_t(idx)];
                const int16_t *__restrict wrow = w16.rowPtr(c) + j0;
                const int16_t *__restrict xcol = xt.rowPtr(c) + rb;
                int r = 0;
                // Four rows share each weight-slice load (adding a zero
                // product for an empty lane is exact, so the skip
                // condition only needs all four codes zero).
                for (; r + 3 < rn; r += 4) {
                    const int32_t a0 = xcol[r];
                    const int32_t a1 = xcol[r + 1];
                    const int32_t a2 = xcol[r + 2];
                    const int32_t a3 = xcol[r + 3];
                    if ((a0 | a1 | a2 | a3) == 0)
                        continue;
                    int32_t *__restrict p0 =
                        part.data() + size_t(r) * size_t(jw);
                    int32_t *__restrict p1 = p0 + jw;
                    int32_t *__restrict p2 = p1 + jw;
                    int32_t *__restrict p3 = p2 + jw;
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j) {
                        const int32_t wv = wrow[j];
                        p0[j] += a0 * wv;
                        p1[j] += a1 * wv;
                        p2[j] += a2 * wv;
                        p3[j] += a3 * wv;
                    }
                }
                for (; r < rn; ++r) {
                    const int32_t a = xcol[r];
                    if (a == 0)
                        continue;
                    int32_t *__restrict prow =
                        part.data() + size_t(r) * size_t(jw);
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j)
                        prow[j] += a * int32_t(wrow[j]);
                }
            }
            for (size_t i = 0; i < cnt; ++i)
                accb[i] += int64_t(part[i]);
        }
        if (track || config.checkOverflow) {
            for (size_t i = 0; i < cnt; ++i) {
                const int64_t a = std::abs(accb[i]);
                if (track) {
                    *peak_abs = std::max(*peak_abs, a);
                    if (a > int32_max)
                        *overflow = true;
                }
                if (config.checkOverflow)
                    TENDER_CHECK_MSG(
                        a <= int32_max,
                        "32-bit accumulator overflow after final group");
            }
        }
        for (int r = 0; r < rn; ++r)
            std::copy(accb.begin() + size_t(r) * size_t(jw),
                      accb.begin() + size_t(r + 1) * size_t(jw),
                      acc.rowPtr(rb + r) + j0);
    }
}

/** Fast implicit body for one chunk, written into rows [r0, r0 + rows)
 *  of y. Each output-column slice runs the blocked accumulate, its entries
 *  of the bias-correction row and the finish — the per-element arithmetic
 *  of chunkAccumulateImplicit, biasCorrectionRow and finishChunkInto. */
void
chunkImplicitFast(const QuantizedChunk &qc, const WeightPanel16 &panel,
                  const Matrix &w, const TenderConfig &config,
                  TenderGemmStats *stats, const KernelContext &kc,
                  Matrix &y, int r0)
{
    const ChunkMeta &meta = qc.meta;
    const int rows = qc.codes.rows();
    const int n = panel.codes.cols;
    const CodePanel16 xt = packCodesTransposed(qc.codes);
    MatrixT<int64_t> acc(rows, n);
    std::vector<float> corr(size_t(n), 0.f);
    const int64_t blocks = (n + kFastColBlock - 1) / kFastColBlock;
    const bool track = stats != nullptr;
    std::vector<int64_t> peaks(size_t(blocks), 0);
    std::vector<uint8_t> ovf(size_t(blocks), 0);
    // Column slices are independent for the whole group walk, so this is
    // the second parallel axis (used when chunks alone can't fill the
    // pool; nested calls from chunk tasks run inline).
    kc.parallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
            const int j0 = int(b) * kFastColBlock;
            const int j1 = std::min(j0 + kFastColBlock, n);
            bool o = false;
            fastAccumulateCols(xt, panel.codes, meta, config, j0, j1, acc,
                               track, &peaks[size_t(b)], &o);
            ovf[size_t(b)] = o ? 1 : 0;
            biasCorrectionCols(meta, w, j0, j1, corr.data());
            finishColsInto(acc, meta, panel.colScale, corr.data(), j0, j1,
                           y, r0);
        }
    });
    if (stats) {
        for (int g = 0; g < meta.groups(); ++g)
            stats->macs += int64_t(meta.groupSize(g)) * int64_t(rows) *
                int64_t(n);
        stats->rescales += int64_t(meta.groups() - 1) * int64_t(rows) *
            int64_t(n);
        for (int64_t b = 0; b < blocks; ++b) {
            stats->peakAbsAcc = std::max(stats->peakAbsAcc,
                                         peaks[size_t(b)]);
            if (ovf[size_t(b)])
                stats->overflow32 = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Shared chunk pipeline.
// ---------------------------------------------------------------------------

enum class RequantMode { Implicit, Explicit };

void
addRowsInto(const Matrix &row, Matrix &y, int r0, int rows)
{
    for (int r = 0; r < rows; ++r)
        for (int j = 0; j < y.cols(); ++j)
            y(r0 + r, j) += row(0, j);
}

/** Eq. 1 body for one chunk, accumulating straight into the output view:
 *  one integer GEMM per group, dequantized with the group scale and added
 *  in FP (groups ascending, bias-correction row last). The per-element FP
 *  sequence — one add per group, then the bias row — is exactly what the
 *  blocked variant below replays, so the two are bit-identical. */
void
processChunkExplicit(const ChunkMeta &meta, const QuantizedChunk &qc,
                     const QuantizedWeight &qw, const Matrix &w,
                     Matrix &y, int r0)
{
    const int rows = qc.codes.rows();
    const int n = qw.codes.cols();
    MatrixT<int64_t> partial(rows, n, 0);
    for (int g = 0; g < meta.groups(); ++g) {
        std::fill(partial.data().begin(), partial.data().end(), int64_t{0});
        for (int idx = meta.groupStart[size_t(g)];
             idx < meta.groupStart[size_t(g) + 1]; ++idx) {
            const int c = meta.order[size_t(idx)];
            for (int r = 0; r < rows; ++r) {
                const int64_t a = qc.codes(r, c);
                if (a == 0)
                    continue;
                const int32_t *wrow = qw.codes.rowPtr(c);
                int64_t *prow = partial.rowPtr(r);
                for (int j = 0; j < n; ++j)
                    prow[j] += a * int64_t(wrow[j]);
            }
        }
        const double sg = meta.scale[size_t(g)];
        for (int r = 0; r < rows; ++r) {
            const int64_t *prow = partial.rowPtr(r);
            float *yrow = y.rowPtr(r0 + r);
            for (int j = 0; j < n; ++j)
                yrow[j] += float(double(prow[j]) * sg *
                                 double(qw.colScale[size_t(j)]));
        }
    }
    addRowsInto(biasCorrectionRow(meta, w), y, r0, rows);
}

/** Blocked Eq. 1 accumulate over output columns [j0, j1): the group
 *  partial runs in the same L1-resident int32 band as the implicit fast
 *  path (exact under the fastEligible bound), and each group's partial is
 *  dequantized into y with one FP add per element — the identical FP
 *  sequence as processChunkExplicit, hence bit parity (asserted in
 *  tests/test_tender_gemm.cc). chunkExplicitFast adds the bias-correction
 *  row. */
void
fastExplicitCols(const CodePanel16 &xt, const CodePanel16 &w16,
                 const ChunkMeta &meta, const std::vector<float> &col_scale,
                 int j0, int j1, Matrix &y, int r0)
{
    const int rows = xt.cols;
    const int jw = j1 - j0;
    std::vector<int32_t> part(size_t(kFastRowBand) * size_t(jw));
    for (int rb = 0; rb < rows; rb += kFastRowBand) {
        const int rn = std::min(kFastRowBand, rows - rb);
        const size_t cnt = size_t(rn) * size_t(jw);
        for (int g = 0; g < meta.groups(); ++g) {
            std::fill(part.begin(), part.begin() + cnt, 0);
            for (int idx = meta.groupStart[size_t(g)];
                 idx < meta.groupStart[size_t(g) + 1]; ++idx) {
                const int c = meta.order[size_t(idx)];
                const int16_t *__restrict wrow = w16.rowPtr(c) + j0;
                const int16_t *__restrict xcol = xt.rowPtr(c) + rb;
                for (int r = 0; r < rn; ++r) {
                    const int32_t a = xcol[r];
                    if (a == 0)
                        continue;
                    int32_t *__restrict prow =
                        part.data() + size_t(r) * size_t(jw);
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j)
                        prow[j] += a * int32_t(wrow[j]);
                }
            }
            const double sg = meta.scale[size_t(g)];
            for (int r = 0; r < rn; ++r) {
                const int32_t *prow = part.data() + size_t(r) * size_t(jw);
                float *yrow = y.rowPtr(r0 + rb + r) + j0;
                for (int j = 0; j < jw; ++j)
                    yrow[j] += float(double(prow[j]) * sg *
                                     double(col_scale[size_t(j0 + j)]));
            }
        }
    }
}

/** Fast explicit body for one chunk: per output-column slice, the blocked
 *  Eq. 1 accumulate, then the slice's bias-correction entries added last,
 *  as processChunkExplicit adds the whole row. */
void
chunkExplicitFast(const QuantizedChunk &qc, const WeightPanel16 &panel,
                  const Matrix &w, const KernelContext &kc, Matrix &y,
                  int r0)
{
    const CodePanel16 xt = packCodesTransposed(qc.codes);
    const int n = panel.codes.cols;
    std::vector<float> corr(size_t(n), 0.f);
    const int64_t blocks = (n + kFastColBlock - 1) / kFastColBlock;
    kc.parallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
            const int j0 = int(b) * kFastColBlock;
            const int j1 = std::min(j0 + kFastColBlock, n);
            fastExplicitCols(xt, panel.codes, qc.meta, panel.colScale, j0,
                             j1, y, r0);
            biasCorrectionCols(qc.meta, w, j0, j1, corr.data());
            for (int r = 0; r < qc.codes.rows(); ++r) {
                float *yrow = y.rowPtr(r0 + r);
                for (int j = j0; j < j1; ++j)
                    yrow[j] += corr[size_t(j)];
            }
        }
    });
}

Matrix
runChunkPipeline(const Matrix &x, const Matrix &w,
                 const std::vector<ChunkMeta> *metas,
                 const TenderConfig &config, RequantMode mode,
                 TenderGemmStats *stats, const KernelContext &kc)
{
    TENDER_CHECK(x.cols() == w.rows());
    // Both requant modes share the blocked int16/int32 group accumulate
    // under the pooled backends (bit-identical to their golden kernels —
    // the accumulate is pure integer arithmetic, so the packed arm's SIMD
    // lanes reorder an exact sum and change nothing). The path is chosen
    // once per call, and only its weight layout is built: the int16 panel
    // the blocked accumulate reads, or the int32 codes of the golden one.
    const bool fast = kc.backend() != Backend::Serial &&
        fastEligible(config.bits, w.rows());
    QuantizedWeight qw;
    WeightPanel16 panel;
    if (fast)
        panel = quantizeWeightPanel(w, config.bits, kc);
    else
        qw = quantizeWeight(w, config.bits);

    Matrix y(x.rows(), w.cols(), 0.f);
    const auto ranges = chunkRanges(x.rows(), config.rowChunk);
    std::vector<TenderGemmStats> local(ranges.size());

    auto processOne = [&](size_t ci) {
        const auto [r0, r1] = ranges[ci];
        TenderGemmStats *ls = stats ? &local[ci] : nullptr;
        const Matrix chunk = x.rowSlice(r0, r1);
        ChunkMeta meta;
        if (metas) {
            size_t mi = ci;
            if (mi >= metas->size()) {
                // Static calibration saw fewer chunks than the eval
                // tensor: reuse the final calibrated entry, accounted in
                // TenderGemmStats::metaReuses rather than clamped silently.
                mi = metas->size() - 1;
                ++local[ci].metaReuses;
            }
            meta = (*metas)[mi];
        } else {
            meta = decomposeChunk(chunk, config);
        }
        const QuantizedChunk qc = quantizeChunk(chunk, meta, config.bits);
        if (fast && mode == RequantMode::Implicit) {
            chunkImplicitFast(qc, panel, w, config, ls, kc, y, r0);
        } else if (fast) {
            chunkExplicitFast(qc, panel, w, kc, y, r0);
        } else if (mode == RequantMode::Implicit) {
            const MatrixT<int64_t> acc =
                chunkAccumulateImplicit(qc, qw, config, ls);
            finishChunkInto(acc, qc, qw.colScale, biasCorrectionRow(meta, w),
                            y, r0);
        } else {
            processChunkExplicit(meta, qc, qw, w, y, r0);
        }
        ++local[ci].chunks;
    };

    // Chunks are the primary parallel axis. The fast bodies of BOTH
    // requant modes have an inner (column-sliced) parallel axis, so fall
    // back to serial-over-chunks only when that inner axis exists AND
    // chunks alone cannot fill the pool; the golden bodies always
    // parallelize over chunks, however few.
    if (!fast || int64_t(ranges.size()) >= int64_t(kc.workers())) {
        kc.parallelFor(0, int64_t(ranges.size()), 1,
                       [&](int64_t c0, int64_t c1) {
            for (int64_t ci = c0; ci < c1; ++ci)
                processOne(size_t(ci));
        });
    } else {
        for (size_t ci = 0; ci < ranges.size(); ++ci)
            processOne(ci);
    }

    int64_t reuses = 0;
    for (const TenderGemmStats &s : local)
        reuses += s.metaReuses;
    if (reuses > 0) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr,
                         "tender: eval tensor has more chunks than the "
                         "calibration run; reusing the final calibrated "
                         "meta (counted in TenderGemmStats::metaReuses)\n");
    }
    if (stats) {
        stats->metaReuses += reuses;
        for (const TenderGemmStats &s : local) {
            TenderGemmStats chunk_stats = s;
            chunk_stats.metaReuses = 0; // already merged above
            mergeStats(*stats, chunk_stats);
        }
    }
    return y;
}

} // namespace

Matrix
tenderMatmul(const Matrix &x, const Matrix &w, const TenderConfig &config,
             TenderGemmStats *stats, const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, w, nullptr, config, RequantMode::Implicit,
                            stats, kc);
}

Matrix
tenderMatmulCalibrated(const Matrix &x, const Matrix &w,
                       const std::vector<ChunkMeta> &metas,
                       const TenderConfig &config, TenderGemmStats *stats,
                       const KernelContext *kernels)
{
    TENDER_REQUIRE(!metas.empty(), "calibrated path needs metadata");
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, w, &metas, config, RequantMode::Implicit,
                            stats, kc);
}

Matrix
tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                     const TenderConfig &config,
                     const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, w, nullptr, config, RequantMode::Explicit,
                            nullptr, kc);
}

} // namespace tender
