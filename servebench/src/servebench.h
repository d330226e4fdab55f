/**
 * @file
 * Closed-loop serving benchmark: workload make-up, the round runner that
 * drives ServeSession from outside, the output checks, and the helpers
 * the self-test exercises.
 *
 * Every workload is a set of clients. A client holds a list of turns and
 * sends its next turn only once the previous reply is complete, so which
 * requests share a scheduler step is a pure function of the inputs: no
 * deadlines, no arrival timer, no shedding. One *round* runs every
 * client's turns to the end; a run repeats whole rounds on one session
 * (prefix cache cleared in between), and every round must reproduce the
 * warm-up round's schedule and tokens exactly.
 */
#ifndef SERVEBENCH_SERVEBENCH_H
#define SERVEBENCH_SERVEBENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tender_scheme.h"
#include "runtime/block_allocator.h"
#include "serve/serve_session.h"

namespace servebench {

using tender::Matrix;

// ---- Percentiles ----------------------------------------------------------

/** One percentile of a sample, nearest-rank rule: with n sorted samples
 *  x_1 <= ... <= x_n the p-th percentile is x_r with r = ceil(p * n)
 *  (r >= 1), and `beyond` = n - r samples lie past it. */
struct Percentile
{
    double value = 0.0;
    int samples = 0;
    int rank = 0;   ///< 1-based nearest rank r
    int beyond = 0; ///< samples strictly after rank r
};

/** Nearest-rank rank r = max(1, ceil(p * n)) for n >= 1. */
int nearestRank(int n, double p);
Percentile percentile(std::vector<double> xs, double p);

/** A reported percentile needs at least this many samples beyond it. */
constexpr int kMinBeyond = 10;

/** Smallest sample count n for which percentile p leaves kMinBeyond
 *  samples beyond it. */
int samplesNeeded(double p);

// ---- Workload make-up -----------------------------------------------------

/** One request of a client. The prompt is the client's history (chat) or
 *  empty (independent requests) followed by `text`. */
struct Turn
{
    std::vector<int> text;
    int maxNewTokens = 1;
    tender::SamplingParams sampling;
    tender::SpeculationParams speculation;
};

struct Client
{
    std::vector<Turn> turns;
    /** Chat: each turn resends the whole conversation so far (previous
     *  prompt, previous reply, then this turn's text). */
    bool carryHistory = false;
};

struct Workload
{
    std::string name;
    int vocabSize = 1024;
    int maxBatch = 8;
    size_t kvPoolBlocks = 0; ///< 0 = unbounded
    bool prefixCache = false;
    /** Run the six projections through TenderScheme (W8A8 decomposed
     *  GEMM with implicit requantization). */
    bool w8a8 = false;
    /** Clients move in lockstep: the next turns go out together once
     *  every client's reply is back (one client submitting batches). */
    bool lockstep = false;
    std::vector<Client> clients;

    int requestsPerRound() const;
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The model every workload serves: a GQA replica of Llama-2-70B
 *  (d=512, 16 q-heads over 2 kv-heads, 6 layers). */
tender::ModelConfig benchModel();

/** KV cache / attention configuration shared by all workloads:
 *  Tender-quantized KV with fused attention. */
tender::DecodeOptions benchDecodeOptions();

/** Build a workload's inputs from the seed (same seed, same inputs). */
Workload makeWorkload(const std::string &name, uint64_t seed);

// ---- Set-up and rounds ----------------------------------------------------

/** GemmScheme that forwards to TenderScheme and times every matmul with
 *  its m x k x n (the traced session's scheme). */
class TimedTenderScheme : public tender::GemmScheme
{
  public:
    struct Counter
    {
        int64_t calls = 0;
        double us = 0.0;
        double ops = 0.0; ///< 2*m*k*n summed over calls
    };
    TimedTenderScheme(tender::TenderConfig config, Counter &counter)
        : inner_(config), counter_(counter)
    {
    }
    std::string name() const override { return inner_.name(); }
    Matrix fakeQuant(const Matrix &m, tender::Operand op) const override
    {
        return inner_.fakeQuant(m, op);
    }
    Matrix matmul(const Matrix &x, const Matrix &w) const override;
    /** Pins this scheme and the wrapped TenderScheme to one context. */
    void pin(const tender::KernelContext *kc);

  private:
    tender::TenderScheme inner_;
    Counter &counter_;
};

/** Probes of a traced session (sessionOptions with probes == nullptr
 *  builds an untraced one). */
struct Probes
{
    tender::DecodePhaseTimes phases;
    TimedTenderScheme::Counter tender;
    std::unique_ptr<TimedTenderScheme> scheme; ///< offline_w8a8 only
};

/** Everything built before the first submit. */
struct Setup
{
    std::unique_ptr<tender::KernelContext> kernels;
    std::unique_ptr<tender::SyntheticModel> model;
    std::unique_ptr<tender::TenderScheme> scheme; ///< offline_w8a8 only
    std::unique_ptr<tender::ServeSession> session;
};

/** Session options of a workload (probes == nullptr: untraced). */
tender::ServeSessionOptions sessionOptions(const Workload &w,
                                           const Setup &setup,
                                           Probes *probes);

/** Build model weights (all layers), kernel context, scheme and session. */
Setup buildSetup(const Workload &w, int workers);

/** How a scheduler step is classified from the stats delta. */
enum class StepKind { Decode = 0, Prefill = 1, Verify = 2 };

/** What one round produced. Tokens and prompts are indexed by the flat
 *  request index (client-major, turn-minor). */
struct Round
{
    double seconds = 0.0;
    int64_t tokens = 0;
    int failed = 0;
    std::vector<std::vector<int>> prompts;
    std::vector<std::vector<int>> outputs;
    std::vector<double> ttftUs, itlUs, queueUs;
    /** Mode of each itl sample: 0 = same step as the previous token
     *  (accepted draft), 1 = decode-only step, 2 = step with a prefill. */
    std::vector<int> itlMode;
    /** Per-step kind and stacked rows; wall time only when timed. */
    std::vector<StepKind> stepKind;
    std::vector<int64_t> stepRows;
    std::vector<double> stepUs;
    tender::SchedulerStats stats; ///< delta over the round
    int64_t cowCopies = 0;        ///< delta over the round
};

/** Run one round on `session`, which must be idle. `timeSteps` records a
 *  wall time per scheduler step. The prefix cache is cleared at the end
 *  so the next round starts from the same state. */
Round runRound(tender::ServeSession &session, const Workload &w,
               bool timeSteps);

// ---- Output checks --------------------------------------------------------

/** Result of one check: ok, plus a one-line detail for the report. */
struct Check
{
    bool ok = true;
    std::string detail;
};

/** Every round must reproduce the reference round's step count, stacked
 *  rows and per-request tokens. */
Check checkSchedule(const Round &reference, const Round &round);

/** The served tokens must equal a batch-1 replay's tokens. */
Check checkReplay(const std::vector<int> &served,
                  const std::vector<int> &replayed);

/** Logit comparison of one request: `arm` holds the workload arm's logits
 *  and `reference` the fp32 reference forward's, row-aligned (one row per
 *  position). The last `outputs.size()` rows are the positions that
 *  produced the outputs; the arm's readout (greedy argmax or the
 *  request's sampler) at each must reproduce the output token. */
struct LogitCompare
{
    double errSq = 0.0; ///< sum (arm - ref)^2
    double refSq = 0.0; ///< sum ref^2
    Check tokens;
};
LogitCompare compareLogits(const std::vector<Matrix> &arm,
                           const std::vector<Matrix> &reference,
                           const std::vector<int> &outputs,
                           const tender::SamplingParams &sampling);

/** NMSE bound of the quantized arms against the fp32 reference. */
constexpr double kNmseBound = 2e-3;
Check checkNmse(double nmse);

/** After drain: refcounts consistent and zero blocks allocated or
 *  reserved (prefix cache already cleared). */
Check checkPoolDrained(const tender::BlockAllocator &pool);

/** Replay requests alone through a batch-1 session (prefix cache and
 *  speculation off) and teacher-force them through the arm and the fp32
 *  reference; fills nmse with the pooled NMSE. */
struct OutputChecks
{
    std::vector<Check> checks;
    double nmse = 0.0;
    int requests = 0;
    int logitRows = 0;
};
OutputChecks runOutputChecks(const Workload &w, Setup &setup,
                             const Round &round, uint64_t seed);

} // namespace servebench

#endif // SERVEBENCH_SERVEBENCH_H
