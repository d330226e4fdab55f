/**
 * @file
 * Output checks, made outside the timed window against computations that
 * do not go through the serving path: a batch-1 replay (prefix cache and
 * speculation off), a single-request DecodeEngine in the workload's own
 * arm, the fp32 full-sequence reference forward (model/transformer), and
 * a pool audit.
 */
#include <algorithm>
#include <sstream>
#include <thread>

#include "model/transformer.h"
#include "serve/sampler.h"
#include "servebench.h"
#include "util/rng.h"

namespace servebench {

using namespace tender;

Check
checkSchedule(const Round &reference, const Round &round)
{
    Check c;
    std::ostringstream os;
    const SchedulerStats &a = round.stats, &b = reference.stats;
    if (a.steps != b.steps || a.batchedRows != b.batchedRows) {
        os << "schedule moved: " << a.steps << " steps / " << a.batchedRows
           << " rows vs " << b.steps << " / " << b.batchedRows;
        c.ok = false;
    } else if (round.outputs != reference.outputs) {
        os << "tokens differ from the warm-up round";
        c.ok = false;
    } else {
        os << a.steps << " steps, " << a.batchedRows << " rows, tokens equal";
    }
    c.detail = os.str();
    return c;
}

Check
checkReplay(const std::vector<int> &served, const std::vector<int> &replayed)
{
    Check c;
    c.ok = served == replayed;
    std::ostringstream os;
    os << served.size() << " tokens "
       << (c.ok ? "bit-equal to batch-1 replay" : "DIFFER from batch-1 replay");
    c.detail = os.str();
    return c;
}

LogitCompare
compareLogits(const std::vector<Matrix> &arm,
              const std::vector<Matrix> &reference,
              const std::vector<int> &outputs, const SamplingParams &sampling)
{
    LogitCompare out;
    const size_t rows = arm.size();
    if (reference.size() != rows || outputs.size() > rows) {
        out.tokens = {false, "logit row counts do not line up"};
        return out;
    }
    for (size_t r = 0; r < rows; ++r) {
        const Matrix &a = arm[r];
        const Matrix &b = reference[r];
        if (a.cols() != b.cols()) {
            out.tokens = {false, "logit widths differ"};
            return out;
        }
        for (int j = 0; j < a.cols(); ++j) {
            const double d = double(a(0, j)) - double(b(0, j));
            out.errSq += d * d;
            out.refSq += double(b(0, j)) * double(b(0, j));
        }
    }
    const size_t first = rows - outputs.size();
    int bad = 0;
    for (size_t i = 0; i < outputs.size(); ++i)
        if (sampleToken(arm[first + i], sampling, int(i)) != outputs[i])
            ++bad;
    std::ostringstream os;
    os << outputs.size() - size_t(bad) << "/" << outputs.size()
       << " tokens reproduced by the arm's "
       << (sampling.temperature == 0.f ? "argmax" : "sampler") << "; nmse "
       << (out.refSq > 0.0 ? out.errSq / out.refSq : 0.0) << " over "
       << rows << " logit rows";
    out.tokens = {bad == 0, os.str()};
    return out;
}

Check
checkNmse(double nmse)
{
    std::ostringstream os;
    os << "logit nmse " << nmse << " (bound " << kNmseBound << ", > 0)";
    return {nmse > 0.0 && nmse < kNmseBound, os.str()};
}

Check
checkPoolDrained(const BlockAllocator &pool)
{
    const BlockPoolStats s = pool.stats();
    const bool consistent = pool.refcountsConsistent();
    std::ostringstream os;
    os << "pool: refcounts " << (consistent ? "consistent" : "INCONSISTENT")
       << ", " << s.allocatedBlocks << " allocated, " << s.reservedBlocks
       << " reserved after drain";
    return {consistent && s.allocatedBlocks == 0 && s.reservedBlocks == 0,
            os.str()};
}

OutputChecks
runOutputChecks(const Workload &w, Setup &setup, const Round &round,
                uint64_t seed)
{
    // Teacher-forced requests (pooled NMSE; per-request NMSE varies by
    // ~15% with content, so fewer would let the seed move the metric), the
    // first kReplayed of them also replayed alone, and the prompt-row
    // stride of the logit comparison (every output row is compared).
    constexpr int kTeacherForced = 8, kReplayed = 3, kPromptStride = 4;
    OutputChecks out;
    const int n = w.requestsPerRound();
    Rng rng(seed ^ 0x5eedc4ecULL);
    const std::vector<int> picked =
        rng.sampleIndices(n, std::min(n, kTeacherForced));

    // Checks are untimed: they run on every core. Tokens do not depend on
    // the worker count, so this is still the workload's arm.
    const KernelContext kc(setup.kernels->backend(),
                           int(std::thread::hardware_concurrency()));
    ServeSessionOptions alone = sessionOptions(w, setup, nullptr);
    alone.scheduler.maxBatch = 1;
    alone.scheduler.prefixCache = false;
    alone.scheduler.kvPoolBlocks = 0;
    alone.scheduler.decode.kernels = &kc;
    std::unique_ptr<TenderScheme> scheme;
    if (w.w8a8) {
        scheme = std::make_unique<TenderScheme>(setup.scheme->config());
        scheme->setKernels(&kc);
        alone.scheduler.decode.scheme = scheme.get();
    }
    ServeSession replay(*setup.model, alone);
    const Vocab &vocab = setup.session->scheduler().vocab();

    double errSq = 0.0, refSq = 0.0;
    for (size_t i = 0; i < picked.size(); ++i) {
        const size_t idx = size_t(picked[i]);
        const std::vector<int> &prompt = round.prompts[idx];
        const std::vector<int> &served = round.outputs[idx];
        const Turn *turn = nullptr;
        for (size_t c = 0, k = idx; !turn; ++c) {
            const size_t t = w.clients[c].turns.size();
            if (k < t)
                turn = &w.clients[c].turns[k];
            else
                k -= t;
        }
        if (served.empty()) {
            out.checks.push_back({false, "request produced no tokens"});
            continue;
        }
        if (int(i) < kReplayed) {
            ServeRequest req;
            req.promptTokens = prompt;
            req.maxNewTokens = turn->maxNewTokens;
            req.sampling = turn->sampling;
            const int id = replay.submit(req);
            replay.drain();
            out.checks.push_back(
                checkReplay(served, replay.result(id)->tokens));
        }

        // Teacher-force prompt + outputs through the arm (one request,
        // prefill then single rows, as the scheduler groups them) and
        // through the fp32 full-sequence reference.
        std::vector<int> seq = prompt;
        seq.insert(seq.end(), served.begin(), served.end() - 1);
        const int p = int(prompt.size());
        DecodeEngine engine(*setup.model, alone.scheduler.decode);
        const Matrix h0 = engine.prefill(vocab.embedAll(prompt));
        const Matrix hr = modelForward(*setup.model, vocab.embedAll(seq), &kc);
        std::vector<Matrix> arm, ref;
        auto compareRow = [&](int r) {
            arm.push_back(vocab.logits(h0, r, kc));
            ref.push_back(vocab.logits(hr, r, kc));
        };
        // Prompt rows shared with an earlier sampled prompt (a system
        // prompt, an earlier turn) have the same logits there; count each
        // distinct prefix position once.
        int shared = 0;
        for (size_t k = 0; k < i; ++k) {
            const std::vector<int> &q = round.prompts[size_t(picked[k])];
            const auto mm = std::mismatch(prompt.begin(), prompt.end(),
                                          q.begin(), q.end());
            shared = std::max(shared, int(mm.first - prompt.begin()));
        }
        for (int r = shared; r < p - 1; r += kPromptStride)
            compareRow(r);
        compareRow(p - 1); // produced the first output token
        for (size_t j = 0; j + 1 < served.size(); ++j) {
            arm.push_back(
                vocab.logits(engine.step(vocab.embed(served[j])), 0, kc));
            ref.push_back(vocab.logits(hr, p + int(j), kc));
        }
        const LogitCompare cmp =
            compareLogits(arm, ref, served, turn->sampling);
        out.checks.push_back(cmp.tokens);
        errSq += cmp.errSq;
        refSq += cmp.refSq;
        out.logitRows += int(arm.size());
    }
    out.requests = int(picked.size());
    out.nmse = refSq > 0.0 ? errSq / refSq : 0.0;
    out.checks.push_back(checkNmse(out.nmse));
    out.checks.push_back(checkPoolDrained(replay.scheduler().pool()));
    return out;
}

} // namespace servebench
