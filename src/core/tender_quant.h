/**
 * @file
 * Quantization of activations (per-chunk, decomposed) and weights
 * (per-column, linear symmetric) for the Tender pipeline.
 */

#ifndef TENDER_CORE_TENDER_QUANT_H
#define TENDER_CORE_TENDER_QUANT_H

#include <cstdint>
#include <memory>

#include "core/decompose.h"
#include "tensor/matrix.h"

namespace tender {

class KernelContext;

/** One quantized activation chunk plus its metadata. */
struct QuantizedChunk
{
    IntMatrix codes;   ///< widened b-bit codes, original channel order
    ChunkMeta meta;
    int bits = 8;
};

/**
 * Per-column symmetric weight quantization with static scales (the weight
 * is not decomposed). The GEMM entry points quantize the weight on every
 * call: into these widened int32 codes for the Serial oracle, straight
 * into a WeightPanel16 on the pooled arms.
 */
struct QuantizedWeight
{
    IntMatrix codes;
    std::vector<float> colScale; ///< one scale per output column
    int bits = 8;
};

/** Row-major int16 code panel, allocated without a zero fill: every
 *  writer covers all rows x cols. The operand layout of the pooled arms'
 *  blocked Tender accumulate. */
struct CodePanel16
{
    std::unique_ptr<int16_t[]> v;
    int rows = 0;
    int cols = 0;

    CodePanel16() = default;
    CodePanel16(int r, int c)
        : v(new int16_t[size_t(r) * size_t(c)]), rows(r), cols(c)
    {
    }

    int16_t *rowPtr(int r) { return v.get() + size_t(r) * size_t(cols); }
    const int16_t *rowPtr(int r) const
    {
        return v.get() + size_t(r) * size_t(cols);
    }
};

/** quantizeWeight written straight into an int16 panel, with no int32
 *  code matrix: codes and colScale equal quantizeWeight's bit for bit. */
struct WeightPanel16
{
    CodePanel16 codes;
    std::vector<float> colScale; ///< one scale per output column
    int bits = 8;
};

/**
 * Quantize a chunk with precomputed metadata. Values outside the
 * calibrated range (static calibration applied to unseen data) clamp to
 * the code range, exactly as the VPU's saturating quantizer does.
 */
QuantizedChunk quantizeChunk(const Matrix &chunk, const ChunkMeta &meta,
                             int bits);

/** Dequantize back to FP32 (adds the channel bias back). */
Matrix dequantizeChunk(const QuantizedChunk &qc);

/** Quantize weights per output column. */
QuantizedWeight quantizeWeight(const Matrix &w, int bits);

/** Quantize weights per output column into an int16 panel: one pass for
 *  the column maxima, one for the codes (bits <= 16). Both run over row
 *  bands on kc's pool (a column maximum is order-independent, so the
 *  result does not depend on the partition or the worker count). */
WeightPanel16 quantizeWeightPanel(const Matrix &w, int bits,
                                  const KernelContext &kc);

/** Dequantize weights. */
Matrix dequantizeWeight(const QuantizedWeight &qw);

} // namespace tender

#endif // TENDER_CORE_TENDER_QUANT_H
