/**
 * @file
 * Tests for the packed SIMD kernel arm (Backend::Packed, tensor/packed_gemm):
 *
 *  - fp32 gemm / gemmTransposedB are NMSE-gated against the serial golden
 *    oracle (the packed arm trades bit-parity for fp32-accumulating SIMD
 *    inner loops) over odd shapes including 1-row decode shapes;
 *  - the packed fp32 kernels are row-local: any row of a big GEMM is
 *    bit-identical to a 1-row GEMM of that row alone, for any worker
 *    count and across repeated runs;
 *  - gemmInt8 stays BIT-IDENTICAL to the golden kernel on every eligible
 *    path (int16-panel pack, narrow direct, checked-int64 wide), because
 *    integer arithmetic is exact under reassociation;
 *  - every row of a multi-query fused attention panel over a GQA history
 *    equals a one-head panel call for that head, on every arm, and
 *    teacher-forced fp32 GQA decode (one panel per kv head) equals the
 *    full forward bit for bit under the packed arm;
 *  - the continuous-batching scheduler stays independent of admission
 *    order, batch size, and worker count under the packed arm.
 *
 * When SIMD is disabled at runtime (TENDER_SIMD=off) Backend::Packed
 * demotes to Threaded, which only strengthens every assertion here
 * (threaded is bit-parity with serial), so the tests pass either way.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "quant/metrics.h"
#include "runtime/batch_scheduler.h"
#include "runtime/decode_engine.h"
#include "tensor/kernels.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace tender {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 8};

/** The fp32 packed-arm accuracy gate, matching BENCH_gemm.json's
 *  simd_gemm_nmse_bound. In practice the observed NMSE is ~1e-13 (fp32
 *  vs double accumulation on Gaussian data); the bound leaves headroom
 *  for shapes with long k. */
constexpr double kSimdNmseBound = 2e-3;

struct Shape
{
    int m, k, n;
};

/** Odd shapes: remainder tails on every axis (m % kMr, n % kNr,
 *  k % kKc all nonzero somewhere) plus 1-row decode shapes. */
const Shape kOddShapes[] = {
    {1, 64, 64},    {1, 127, 33},  {3, 65, 17},   {5, 256, 16},
    {7, 300, 130},  {13, 19, 23},  {64, 257, 96}, {33, 128, 127},
};

ModelConfig
gqaDecoder()
{
    ModelConfig cfg;
    cfg.name = "simd-gqa-test";
    cfg.family = Family::Llama2;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = 1; // group of 4 query heads per kv head
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

TEST(PackedKernels, GemmNmseGatedAgainstSerialGolden)
{
    Rng rng(101);
    KernelContext serial(Backend::Serial);
    KernelContext packed(Backend::Packed, 2);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomGaussian(s.m, s.k, rng);
        const Matrix b = randomGaussian(s.k, s.n, rng);
        const double e = nmse(serial.gemm(a, b), packed.gemm(a, b));
        EXPECT_GE(e, 0.0);
        EXPECT_LE(e, kSimdNmseBound)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(PackedKernels, GemmTransposedBNmseGatedAgainstSerialGolden)
{
    Rng rng(102);
    KernelContext serial(Backend::Serial);
    KernelContext packed(Backend::Packed, 2);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomGaussian(s.m, s.k, rng);
        const Matrix b = randomGaussian(s.n, s.k, rng); // n x k, B^T form
        const double e = nmse(serial.gemmTransposedB(a, b),
                              packed.gemmTransposedB(a, b));
        EXPECT_LE(e, kSimdNmseBound)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(PackedKernels, RowLocalAndWorkerIndependent)
{
    // The runtime's determinism invariants (decode == prefill, batch
    // independence) reduce to this kernel property: one output row's
    // bits depend only on that row's input and the shape of B — never
    // on which other rows ride along or how the row band is split.
    Rng rng(103);
    const Matrix a = randomGaussian(37, 300, rng);
    const Matrix b = randomGaussian(300, 45, rng);
    const Matrix bt = randomGaussian(45, 300, rng);
    KernelContext one(Backend::Packed, 1);
    const Matrix full = one.gemm(a, b);
    const Matrix full_t = one.gemmTransposedB(a, bt);
    for (int r : {0, 1, 17, 36}) {
        const Matrix row = a.rowSlice(r, r + 1);
        EXPECT_TRUE(full.rowSlice(r, r + 1) == one.gemm(row, b))
            << "gemm row " << r;
        EXPECT_TRUE(full_t.rowSlice(r, r + 1) ==
                    one.gemmTransposedB(row, bt))
            << "gemmTransposedB row " << r;
    }
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Packed, workers);
        EXPECT_TRUE(kc.gemm(a, b) == full) << "workers=" << workers;
        EXPECT_TRUE(kc.gemmTransposedB(a, bt) == full_t)
            << "workers=" << workers;
    }
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_TRUE(one.gemm(a, b) == full) << "rep=" << rep;
}

IntMatrix
randomCodes(int rows, int cols, Rng &rng, int bound)
{
    IntMatrix m(rows, cols);
    for (auto &v : m.data())
        v = int32_t(rng.randint(-bound, bound));
    return m;
}

TEST(PackedKernels, GemmInt8BitExactOnEveryPath)
{
    Rng rng(104);
    KernelContext serial(Backend::Serial);
    KernelContext packed(Backend::Packed, 2);
    // (rows, k, n, bound): covers the int16-panel pack path (rows >=
    // kInt8PackMinRows, narrow), the direct narrow path (1-row decode
    // shapes), and the checked-int64 wide path (bound * bound * k
    // overflows int32).
    struct Case
    {
        int m, k, n;
        int bound;
    };
    const Case cases[] = {
        {1, 64, 64, 127},    // direct, narrow
        {1, 127, 33, 127},   // direct, narrow, odd tails
        {8, 33, 128, 127},   // packed int16 panels
        {5, 16, 96, 16256},  // shifted-code range, still narrow
        {6, 300, 40, 127},   // panels with k across block boundary
        {4, 48, 8, 8192},    // bound^2*k > INT32_MAX: checked int64 path
    };
    for (const Case &c : cases) {
        const IntMatrix a = randomCodes(c.m, c.k, rng, c.bound);
        const IntMatrix b = randomCodes(c.n, c.k, rng, c.bound);
        // Bounds passed explicitly and scanned (-1) must both be exact.
        EXPECT_TRUE(packed.gemmInt8(a, b, c.bound, c.bound) ==
                    serial.gemmInt8(a, b, c.bound, c.bound))
            << c.m << "x" << c.k << "x" << c.n << " bound " << c.bound;
        EXPECT_TRUE(packed.gemmInt8(a, b) == serial.gemmInt8(a, b))
            << c.m << "x" << c.k << "x" << c.n << " scanned";
    }
}

TEST(PackedKernels, GemmInt8WorkerAndRepeatIndependent)
{
    Rng rng(105);
    const IntMatrix a = randomCodes(9, 200, rng, 127);
    const IntMatrix b = randomCodes(70, 200, rng, 127);
    KernelContext serial(Backend::Serial);
    const IntMatrix expect = serial.gemmInt8(a, b, 127, 127);
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Packed, workers);
        for (int rep = 0; rep < 2; ++rep)
            EXPECT_TRUE(kc.gemmInt8(a, b, 127, 127) == expect)
                << "workers=" << workers << " rep=" << rep;
    }
}

/** Teacher-forced decode of `input` under `base` on kernel context `kc`:
 *  prefill 8 rows, then one row per step. */
Matrix
decodeAll(SyntheticModel &model, const Matrix &input,
          const DecodeOptions &base, const KernelContext &kc)
{
    DecodeOptions options = base;
    options.kernels = &kc;
    DecodeEngine engine(model, options);
    Matrix out(input.rows(), input.cols());
    const Matrix pre = engine.prefill(input.rowSlice(0, 8));
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < input.cols(); ++c)
            out(r, c) = pre(r, c);
    for (int r = 8; r < input.rows(); ++r) {
        const Matrix h = engine.step(input.rowSlice(r, r + 1));
        for (int c = 0; c < input.cols(); ++c)
            out(r, c) = h(0, c);
    }
    return out;
}

TEST(PackedKernels, MultiQueryPanelRowsEqualSingleHeadPanelsOnEveryArm)
{
    // The decode engine attends one panel per (segment, kv head): all
    // query heads of a GQA group stacked head-major. Every kernel in the
    // fused chain is row-local, so each panel row must equal a heads=1
    // call on that head alone — on frozen chunks (one gemmInt8 per chunk
    // for the whole group) and on the open chunk alike.
    const ModelConfig cfg = gqaDecoder();
    const int group = cfg.nHeads / cfg.kvHeads;
    const int dh = cfg.headDim();
    KVCacheConfig qcfg;
    qcfg.mode = KVCacheMode::TenderQuantized;
    qcfg.tender.rowChunk = 8;
    Rng rng(31);
    for (int len : {16, 21}) { // chunk-aligned and open-chunk histories
        KVCache cache(cfg, qcfg);
        for (int l = 0; l < cfg.nLayers; ++l)
            cache.append(l, randomGaussian(len, cfg.kvHeads * dh, rng),
                         randomGaussian(len, cfg.kvHeads * dh, rng));
        for (Backend backend :
             {Backend::Serial, Backend::Threaded, Backend::Packed}) {
            KernelContext kc(backend, 2);
            for (int t : {1, 3}) {
                const Matrix q = randomGaussian(group * t, dh, rng);
                const int pos0 = len - t;
                const KVCodeView keys = cache.keyView(1, 0);
                const KVCodeView values = cache.valueView(1, 0);
                const Matrix panel = attentionFusedQuantPanel(
                    q, group, keys, values, pos0, kc);
                for (int g = 0; g < group; ++g) {
                    const Matrix one = attentionFusedQuantPanel(
                        q.rowSlice(g * t, (g + 1) * t), 1, keys, values,
                        pos0, kc);
                    EXPECT_TRUE(one == panel.rowSlice(g * t, (g + 1) * t))
                        << backendName(backend) << " len " << len << " t "
                        << t << " head " << g;
                }
            }
        }
    }
}

TEST(PackedKernels, Fp32GqaDecodeEqualsModelForwardUnderPackedArm)
{
    // Teacher-forced decode through the engine's multi-query panels must
    // reproduce the full forward over the same rows bit for bit: the
    // packed kernels are row-local, and a fp32 cache is pure reuse.
    SyntheticModel model(gqaDecoder(), 23);
    const Matrix input = model.sampleInput(20, 5);
    for (int workers : {1, 2}) {
        KernelContext kc(Backend::Packed, workers);
        EXPECT_EQ(0.f, maxAbsDiff(modelForward(model, input, &kc),
                                  decodeAll(model, input, DecodeOptions{},
                                            kc)))
            << "workers=" << workers;
    }
}

TEST(PackedKernels, SchedulerIndependentOfBatchAndWorkersUnderPackedArm)
{
    SyntheticModel model(gqaDecoder(), 29);
    std::vector<GenRequest> requests = {
        {0, {1, 2, 3}, 4},
        {1, {7, 5, 9, 11, 2}, 3},
        {2, {4}, 6},
        {3, {8, 8, 8, 1}, 2},
    };
    auto run = [&](bool reversed, int max_batch, int workers, bool fused) {
        KernelContext kc(Backend::Packed, workers);
        SchedulerOptions options;
        options.maxBatch = max_batch;
        options.vocabSize = 64;
        options.decode.kernels = &kc;
        if (fused) {
            options.decode.cache.mode = KVCacheMode::TenderQuantized;
            options.decode.fusedQuantKv = true;
        }
        BatchScheduler scheduler(model, options);
        if (reversed)
            for (auto it = requests.rbegin(); it != requests.rend(); ++it)
                scheduler.submit(*it);
        else
            for (const GenRequest &r : requests)
                scheduler.submit(r);
        return scheduler.drain();
    };
    for (bool fused : {false, true}) {
        const auto baseline = run(false, 1, 1, fused);
        ASSERT_EQ(requests.size(), baseline.size());
        for (const auto &result : {run(true, 2, 1, fused),
                                   run(false, 4, 2, fused),
                                   run(true, 3, 8, fused)}) {
            ASSERT_EQ(baseline.size(), result.size());
            for (size_t i = 0; i < baseline.size(); ++i) {
                EXPECT_EQ(baseline[i].id, result[i].id);
                EXPECT_EQ(baseline[i].tokens, result[i].tokens)
                    << "id " << i << " fused " << fused;
            }
        }
    }
}

TEST(PackedKernels, PackedDemotesToThreadedWhenSimdDisabled)
{
    // The constructor consults the runtime policy once; we can't flip the
    // env var mid-process (the probe is cached), but the reported backend
    // must be consistent with it either way.
    KernelContext kc(Backend::Packed, 2);
    if (simdEnabled())
        EXPECT_EQ(kc.backend(), Backend::Packed);
    else
        EXPECT_EQ(kc.backend(), Backend::Threaded);
}

} // namespace
} // namespace tender
