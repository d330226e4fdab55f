/**
 * @file
 * Set-up and the closed-loop round runner. All timing is taken from
 * outside the serving path: around ServeSession::step(), through the
 * DecodePhaseTimes accumulator and through the benchmark's own
 * GemmScheme.
 */
#include <algorithm>
#include <chrono>
#include <cmath>

#include "servebench.h"
#include "util/check.h"

namespace servebench {

using namespace tender;
using Clock = std::chrono::steady_clock;

namespace {

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

} // namespace

int
nearestRank(int n, double p)
{
    TENDER_CHECK(n >= 1 && p > 0.0 && p <= 1.0);
    // Exact for the p used here (0.5, 0.9): p * n is computed in double and
    // ceil'd after removing float fuzz below one part in 1e9.
    const double x = p * double(n);
    int r = int(std::ceil(x - 1e-9 * x));
    return std::clamp(r, 1, n);
}

Percentile
percentile(std::vector<double> xs, double p)
{
    Percentile out;
    out.samples = int(xs.size());
    if (xs.empty())
        return out;
    std::sort(xs.begin(), xs.end());
    out.rank = nearestRank(out.samples, p);
    out.value = xs[size_t(out.rank - 1)];
    out.beyond = out.samples - out.rank;
    return out;
}

int
samplesNeeded(double p)
{
    int n = 1;
    while (n - nearestRank(n, p) < kMinBeyond)
        ++n;
    return n;
}

Matrix
TimedTenderScheme::matmul(const Matrix &x, const Matrix &w) const
{
    const auto t0 = Clock::now();
    Matrix out = inner_.matmul(x, w);
    counter_.us += usSince(t0);
    ++counter_.calls;
    counter_.ops += 2.0 * x.rows() * x.cols() * w.cols();
    return out;
}

void
TimedTenderScheme::pin(const KernelContext *kc)
{
    setKernels(kc);
    inner_.setKernels(kc);
}

ServeSessionOptions
sessionOptions(const Workload &w, const Setup &setup, Probes *probes)
{
    ServeSessionOptions o;
    SchedulerOptions &s = o.scheduler;
    s.maxBatch = w.maxBatch;
    s.vocabSize = w.vocabSize;
    s.kvPoolBlocks = w.kvPoolBlocks;
    s.prefixCache = w.prefixCache;
    s.decode = benchDecodeOptions();
    s.decode.kernels = setup.kernels.get();
    if (probes) {
        s.decode.phases = &probes->phases;
        if (w.w8a8) {
            if (!probes->scheme) {
                probes->scheme = std::make_unique<TimedTenderScheme>(
                    setup.scheme->config(), probes->tender);
                probes->scheme->pin(setup.kernels.get());
            }
            s.decode.scheme = probes->scheme.get();
        }
    } else if (w.w8a8) {
        s.decode.scheme = setup.scheme.get();
    }
    return o;
}

Setup
buildSetup(const Workload &w, int workers)
{
    Setup s;
    s.kernels = std::make_unique<KernelContext>(defaultKernels().backend(),
                                                workers);
    s.model = std::make_unique<SyntheticModel>(benchModel(), 1);
    for (int l = 0; l < s.model->config().nLayers; ++l)
        s.model->blockWeights(l); // generated lazily otherwise
    if (w.w8a8) {
        // Paper defaults: INT8, 8 groups, alpha 2.
        s.scheme = std::make_unique<TenderScheme>(TenderConfig{});
        s.scheme->setKernels(s.kernels.get());
    }
    s.session = std::make_unique<ServeSession>(
        *s.model, sessionOptions(w, s, nullptr));
    return s;
}

namespace {

SchedulerStats
statsDelta(const SchedulerStats &a, const SchedulerStats &b)
{
    SchedulerStats d;
    d.steps = b.steps - a.steps;
    d.batchedRows = b.batchedRows - a.batchedRows;
    d.prefillRows = b.prefillRows - a.prefillRows;
    d.decodedTokens = b.decodedTokens - a.decodedTokens;
    d.deferred = b.deferred - a.deferred;
    d.prefixHits = b.prefixHits - a.prefixHits;
    d.prefixMisses = b.prefixMisses - a.prefixMisses;
    d.prefillSkippedRows = b.prefillSkippedRows - a.prefillSkippedRows;
    d.prefixEvictions = b.prefixEvictions - a.prefixEvictions;
    d.specSteps = b.specSteps - a.specSteps;
    d.draftedTokens = b.draftedTokens - a.draftedTokens;
    d.acceptedDraftTokens = b.acceptedDraftTokens - a.acceptedDraftTokens;
    d.specFallbackSteps = b.specFallbackSteps - a.specFallbackSteps;
    d.failed = b.failed - a.failed;
    return d;
}

} // namespace

Round
runRound(ServeSession &session, const Workload &w, bool timeSteps)
{
    Round r;
    const size_t n = size_t(w.requestsPerRound());
    r.prompts.resize(n);
    r.outputs.resize(n);
    const BatchScheduler &sched = session.scheduler();
    const SchedulerStats s0 = sched.stats();
    const int64_t cow0 = session.poolStats().cowCopies;

    const size_t clients = w.clients.size();
    std::vector<size_t> base(clients), next(clients, 0);
    std::vector<int> pending(clients, -1);
    std::vector<std::vector<int>> history(clients);
    for (size_t c = 1; c < clients; ++c)
        base[c] = base[c - 1] + w.clients[c - 1].turns.size();
    // Step number at which each token streamed (itl mode attribution);
    // r.stepKind is indexed by step number - s0.steps - 1.
    std::vector<std::vector<int64_t>> tokenStep(n);

    auto submitNext = [&](size_t c) {
        const Client &client = w.clients[c];
        const Turn &turn = client.turns[next[c]];
        const size_t flat = base[c] + next[c];
        std::vector<int> prompt =
            client.carryHistory ? history[c] : std::vector<int>{};
        prompt.insert(prompt.end(), turn.text.begin(), turn.text.end());
        ServeRequest req;
        req.promptTokens = prompt;
        req.maxNewTokens = turn.maxNewTokens;
        req.sampling = turn.sampling;
        req.speculation = turn.speculation;
        std::vector<int64_t> *steps = &tokenStep[flat];
        req.onEvent = [steps, &sched](const StreamEvent &ev) {
            if (ev.token >= 0)
                steps->push_back(sched.stats().steps);
        };
        r.prompts[flat] = std::move(prompt);
        pending[c] = session.submit(req);
    };

    const auto t0 = Clock::now();
    for (size_t c = 0; c < clients; ++c)
        submitNext(c);
    for (;;) {
        const SchedulerStats before = sched.stats();
        const auto ts = Clock::now();
        const bool more = session.step();
        const SchedulerStats &after = sched.stats();
        if (after.steps > before.steps) {
            const StepKind kind = after.prefillRows > before.prefillRows
                ? StepKind::Prefill
                : after.specSteps > before.specSteps ? StepKind::Verify
                                                     : StepKind::Decode;
            r.stepKind.push_back(kind);
            r.stepRows.push_back(after.batchedRows - before.batchedRows);
            if (timeSteps)
                r.stepUs.push_back(usSince(ts));
        }
        for (size_t c = 0; c < clients; ++c) {
            if (pending[c] < 0)
                continue;
            const ServeResult *res = session.result(pending[c]);
            if (!res)
                continue;
            const size_t flat = base[c] + next[c]++;
            pending[c] = -1;
            r.outputs[flat] = res->tokens;
            if (res->state != RequestState::Finished) {
                ++r.failed;
                continue;
            }
            r.tokens += int64_t(res->tokens.size());
            r.ttftUs.push_back(res->metrics.ttftUs);
            r.queueUs.push_back(res->metrics.queuedUs);
            const auto &itl = res->metrics.interTokenUs;
            const auto &ts_steps = tokenStep[flat];
            TENDER_CHECK(ts_steps.size() == itl.size() + 1);
            for (size_t j = 0; j < itl.size(); ++j) {
                r.itlUs.push_back(itl[j]);
                const int64_t step = ts_steps[j + 1];
                const StepKind kind = r.stepKind[size_t(step - s0.steps - 1)];
                r.itlMode.push_back(step == ts_steps[j] ? 0
                                    : kind == StepKind::Prefill ? 2
                                                                : 1);
            }
            if (w.clients[c].carryHistory) {
                history[c] = r.prompts[flat];
                history[c].insert(history[c].end(), res->tokens.begin(),
                                  res->tokens.end());
            }
        }
        const bool allIdle = std::all_of(pending.begin(), pending.end(),
                                         [](int id) { return id < 0; });
        bool submitted = false;
        for (size_t c = 0; c < clients; ++c) {
            if (pending[c] < 0 && next[c] < w.clients[c].turns.size() &&
                (allIdle || !w.lockstep)) {
                submitNext(c);
                submitted = true;
            }
        }
        if (!more && !submitted)
            break;
    }
    r.seconds = usSince(t0) * 1e-6;
    r.stats = statsDelta(s0, sched.stats());
    r.cowCopies = session.poolStats().cowCopies - cow0;
    if (session.scheduler().prefixCache())
        session.scheduler().prefixCache()->clear();
    return r;
}

} // namespace servebench
