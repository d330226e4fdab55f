#include "core/tender_quant.h"

#include <algorithm>
#include <cmath>

#include "quant/quantizer.h"
#include "tensor/kernels.h"

namespace tender {

QuantizedChunk
quantizeChunk(const Matrix &chunk, const ChunkMeta &meta, int bits)
{
    TENDER_CHECK(meta.channels() == chunk.cols());
    QuantizedChunk qc;
    qc.bits = bits;
    qc.meta = meta;
    qc.codes = IntMatrix(chunk.rows(), chunk.cols());
    // Per-channel scale resolved once; row-pointer walk avoids the
    // bounds-checked accessor in this per-chunk hot loop.
    std::vector<float> chan_scale(size_t(chunk.cols()));
    for (int c = 0; c < chunk.cols(); ++c)
        chan_scale[size_t(c)] = meta.scale[size_t(meta.group[size_t(c)])];
    for (int r = 0; r < chunk.rows(); ++r) {
        const float *row = chunk.rowPtr(r);
        int32_t *codes = qc.codes.rowPtr(r);
        for (int c = 0; c < chunk.cols(); ++c) {
            const float centered = row[c] - meta.bias[size_t(c)];
            codes[c] = quantizeValue(centered, chan_scale[size_t(c)], bits);
        }
    }
    return qc;
}

Matrix
dequantizeChunk(const QuantizedChunk &qc)
{
    Matrix out(qc.codes.rows(), qc.codes.cols());
    const int d = qc.codes.cols();
    // Same per-element arithmetic as the accessor-based loop, as a
    // row-pointer walk with no scratch allocation: this runs once per
    // store per decode step on the open chunk, concurrently across
    // requests, so both the bounds checks and a per-call heap allocation
    // are measurable.
    const int *group = qc.meta.group.data();
    const float *scale = qc.meta.scale.data();
    const float *bias = qc.meta.bias.data();
    for (int r = 0; r < out.rows(); ++r) {
        const int32_t *codes = qc.codes.rowPtr(r);
        float *dst = out.rowPtr(r);
        for (int c = 0; c < d; ++c)
            dst[c] = dequantizeValue(codes[c], scale[group[c]]) + bias[c];
    }
    return out;
}

namespace {

/** Folds |w| over rows [r0, r1) into the running column maxima. */
void
foldColAbsMax(const Matrix &w, int r0, int r1, float *col_max)
{
    for (int r = r0; r < r1; ++r) {
        const float *row = w.rowPtr(r);
        for (int c = 0; c < w.cols(); ++c)
            col_max[c] = std::max(col_max[c], std::abs(row[c]));
    }
}

/** The code pass shared by the int32 and int16 weight layouts over rows
 *  [r0, r1): one quantizeValue per element, row-pointer walks so it
 *  vectorizes. */
template <typename Code, typename Codes>
void
quantizeWeightRows(const Matrix &w, const std::vector<float> &col_scale,
                   int bits, int r0, int r1, Codes &codes)
{
    const float *scale = col_scale.data();
    for (int r = r0; r < r1; ++r) {
        const float *row = w.rowPtr(r);
        Code *dst = codes.rowPtr(r);
        for (int c = 0; c < w.cols(); ++c)
            dst[c] = Code(quantizeValue(row[c], scale[c], bits));
    }
}

/** Rows per band of the panel writer's parallel passes (~32K elements). */
int
panelBandRows(int cols)
{
    return std::max(1, (32 * 1024) / std::max(1, cols));
}

} // namespace

QuantizedWeight
quantizeWeight(const Matrix &w, int bits)
{
    QuantizedWeight qw;
    qw.bits = bits;
    qw.codes = IntMatrix(w.rows(), w.cols());
    qw.colScale.assign(size_t(w.cols()), 0.f);
    foldColAbsMax(w, 0, w.rows(), qw.colScale.data());
    for (float &s : qw.colScale)
        s = scaleFor(s, bits);
    quantizeWeightRows<int32_t>(w, qw.colScale, bits, 0, w.rows(),
                                qw.codes);
    return qw;
}

WeightPanel16
quantizeWeightPanel(const Matrix &w, int bits, const KernelContext &kc)
{
    TENDER_CHECK(bits <= 16);
    const int n = w.cols();
    const int band = panelBandRows(n);
    const int64_t bands = (int64_t(w.rows()) + band - 1) / band;
    WeightPanel16 p;
    p.bits = bits;
    p.codes = CodePanel16(w.rows(), n);
    std::vector<float> band_max(size_t(bands) * size_t(n), 0.f);
    kc.parallelFor(0, bands, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b)
            foldColAbsMax(w, int(b) * band,
                          std::min(int(b + 1) * band, w.rows()),
                          band_max.data() + size_t(b) * size_t(n));
    });
    p.colScale.assign(size_t(n), 0.f);
    for (int64_t b = 0; b < bands; ++b) {
        const float *m = band_max.data() + size_t(b) * size_t(n);
        for (int c = 0; c < n; ++c)
            p.colScale[size_t(c)] = std::max(p.colScale[size_t(c)], m[c]);
    }
    for (float &s : p.colScale)
        s = scaleFor(s, bits);
    kc.parallelFor(0, bands, 1, [&](int64_t b0, int64_t b1) {
        quantizeWeightRows<int16_t>(w, p.colScale, bits, int(b0) * band,
                                    std::min(int(b1) * band, w.rows()),
                                    p.codes);
    });
    return p;
}

Matrix
dequantizeWeight(const QuantizedWeight &qw)
{
    Matrix out(qw.codes.rows(), qw.codes.cols());
    for (int r = 0; r < out.rows(); ++r)
        for (int c = 0; c < out.cols(); ++c)
            out(r, c) = dequantizeValue(qw.codes(r, c),
                                        qw.colScale[size_t(c)]);
    return out;
}

} // namespace tender
