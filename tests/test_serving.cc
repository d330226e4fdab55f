/**
 * @file
 * Tests for the serving front end (src/serve/): request lifecycle
 * legality, seeded sampling determinism and its independence from
 * admission order, batch size, and worker count, stop-sequence
 * truncation with partial-match streaming holdback (including mid-chunk
 * retirement of a quantized KV cache), cancellation returning blocks and
 * undrawn reservations to the pool, front-door validation, and priority
 * admission that can overtake the FIFO head without starving it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "model/workload.h"
#include "runtime/batch_scheduler.h"
#include "serve/sampler.h"
#include "serve/serve_session.h"
#include "util/rng.h"

namespace tender {
namespace {

ModelConfig
smallDecoder(int kv_heads = 4)
{
    ModelConfig cfg;
    cfg.name = "serving-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = kv_heads;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

TEST(RequestLifecycle, TransitionTableIsExact)
{
    using S = RequestState;
    const std::vector<S> all = {S::Queued,    S::Prefill,
                                S::Decoding,  S::Preempted,
                                S::Finished,  S::Cancelled,
                                S::Failed};
    const std::set<std::pair<S, S>> legal = {
        {S::Queued, S::Prefill},      {S::Queued, S::Cancelled},
        {S::Queued, S::Failed},       {S::Prefill, S::Decoding},
        {S::Prefill, S::Cancelled},   {S::Prefill, S::Failed},
        {S::Decoding, S::Finished},   {S::Decoding, S::Cancelled},
        {S::Decoding, S::Preempted},  {S::Decoding, S::Failed},
        {S::Preempted, S::Prefill},   {S::Preempted, S::Cancelled},
        {S::Preempted, S::Failed},
    };
    for (const S from : all)
        for (const S to : all)
            EXPECT_EQ(legal.count({from, to}) > 0, legalTransition(from, to))
                << requestStateName(from) << " -> " << requestStateName(to);
}

TEST(Sampler, TemperatureZeroAndTopKOneAreArgmax)
{
    Rng rng(3);
    const Matrix logits = randomGaussian(1, 40, rng);
    int best = 0;
    for (int t = 1; t < logits.cols(); ++t)
        if (logits(0, t) > logits(0, best))
            best = t;

    SamplingParams greedy; // temperature defaults to 0
    EXPECT_EQ(best, sampleToken(logits, greedy, 0));

    SamplingParams k1;
    k1.temperature = 1.3f;
    k1.topK = 1;
    k1.seed = 99;
    for (int pos = 0; pos < 5; ++pos)
        EXPECT_EQ(best, sampleToken(logits, k1, pos));
}

TEST(Sampler, DrawIsDeterministicAndPositionSeeded)
{
    Rng rng(7);
    const Matrix logits = randomGaussian(1, 64, rng);
    SamplingParams params;
    params.temperature = 1.0f;
    params.topK = 16;
    params.topP = 0.95f;
    params.seed = 42;

    std::vector<int> draws;
    for (int pos = 0; pos < 32; ++pos) {
        const int t = sampleToken(logits, params, pos);
        EXPECT_EQ(t, sampleToken(logits, params, pos)); // pure function
        draws.push_back(t);
    }
    // Positions seed independent streams: identical logits must not
    // produce one frozen token.
    EXPECT_GT(std::set<int>(draws.begin(), draws.end()).size(), 1u);

    // A different request seed draws a different stream somewhere.
    SamplingParams other = params;
    other.seed = 43;
    std::vector<int> draws2;
    for (int pos = 0; pos < 32; ++pos)
        draws2.push_back(sampleToken(logits, other, pos));
    EXPECT_NE(draws, draws2);
}

TEST(Sampler, TopKBoundsTheSupport)
{
    Rng rng(11);
    const Matrix logits = randomGaussian(1, 50, rng);
    std::vector<int> order(50);
    for (int i = 0; i < 50; ++i)
        order[size_t(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (logits(0, a) != logits(0, b))
            return logits(0, a) > logits(0, b);
        return a < b;
    });
    const std::set<int> top8(order.begin(), order.begin() + 8);

    SamplingParams params;
    params.temperature = 2.0f; // flat enough to visit several candidates
    params.topK = 8;
    params.seed = 5;
    for (int pos = 0; pos < 200; ++pos)
        EXPECT_TRUE(top8.count(sampleToken(logits, params, pos)))
            << "position " << pos;
}

/** Run the same request mix under a given admission order / batch size /
 *  backend / worker count and return tokens by request index. */
std::vector<std::vector<int>>
runMix(SyntheticModel &model, const std::vector<ServeRequest> &mix,
       bool reversed, int max_batch, Backend backend, int workers)
{
    KernelContext kc(backend, workers);
    ServeSessionOptions options;
    options.scheduler.maxBatch = max_batch;
    options.scheduler.vocabSize = 96;
    options.scheduler.decode.kernels = &kc;
    ServeSession session(model, options);

    std::vector<int> ids(mix.size(), -1);
    if (reversed) {
        for (size_t i = mix.size(); i-- > 0;)
            ids[i] = session.submit(mix[i]);
    } else {
        for (size_t i = 0; i < mix.size(); ++i)
            ids[i] = session.submit(mix[i]);
    }
    session.drain();
    std::vector<std::vector<int>> tokens(mix.size());
    for (size_t i = 0; i < mix.size(); ++i) {
        const ServeResult *r = session.result(ids[i]);
        EXPECT_NE(nullptr, r);
        EXPECT_EQ(RequestState::Finished, r->state);
        tokens[i] = r->tokens;
    }
    return tokens;
}

TEST(ServeSession, SampledTokensIndependentOfSchedulingAndWorkers)
{
    SyntheticModel model(smallDecoder(), 23);
    std::vector<ServeRequest> mix(5);
    for (size_t i = 0; i < mix.size(); ++i) {
        ServeRequest &r = mix[i];
        for (int t = 0; t < int(i) + 2; ++t)
            r.promptTokens.push_back((7 * int(i) + 3 * t) % 96);
        r.maxNewTokens = 3 + int(i) % 4;
        r.sampling.temperature = 0.8f;
        r.sampling.topK = 12;
        r.sampling.topP = 0.9f;
        r.sampling.seed = 1000 + uint64_t(i);
        r.priority = (i % 2 == 0) ? Priority::Interactive : Priority::Batch;
    }

    const auto baseline = runMix(model, mix, false, 2, Backend::Serial, 1);
    for (size_t i = 0; i < mix.size(); ++i)
        EXPECT_EQ(size_t(mix[i].maxNewTokens), baseline[i].size());

    for (const auto &other :
         {runMix(model, mix, true, 2, Backend::Serial, 1),
          runMix(model, mix, false, 5, Backend::Serial, 1),
          runMix(model, mix, true, 1, Backend::Serial, 1),
          runMix(model, mix, false, 3, Backend::Threaded, 3),
          runMix(model, mix, true, 4, Backend::Threaded, 4)}) {
        for (size_t i = 0; i < mix.size(); ++i)
            EXPECT_EQ(baseline[i], other[i]) << "request " << i;
    }
}

TEST(ServeSession, StopSequenceTruncatesAndHoldsBackPartialMatches)
{
    SyntheticModel model(smallDecoder(), 31);
    KernelContext kc(Backend::Serial);

    ServeRequest probe;
    probe.promptTokens = {4, 9, 2};
    probe.maxNewTokens = 10;
    // Greedy (temperature 0) so the reference generation is known.

    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;

    std::vector<int> reference;
    {
        ServeSession session(model, options);
        const int id = session.submit(probe);
        session.drain();
        reference = session.result(id)->tokens;
        ASSERT_EQ(10u, reference.size());
    }

    // Stop on the 2-token sequence ending at index 6: the result must be
    // the first 5 tokens, the stop match itself never streamed, and the
    // match's first token held back until the match resolves.
    ServeRequest stopped = probe;
    stopped.stopSequences = {{reference[5], reference[6]}};
    std::vector<StreamEvent> events;
    stopped.onEvent = [&](const StreamEvent &ev) { events.push_back(ev); };

    ServeSession session(model, options);
    const int id = session.submit(stopped);
    session.drain();
    const ServeResult *r = session.result(id);
    ASSERT_NE(nullptr, r);
    EXPECT_EQ(RequestState::Finished, r->state);
    EXPECT_EQ(FinishReason::Stopped, r->reason);
    EXPECT_EQ(std::vector<int>(reference.begin(), reference.begin() + 5),
              r->tokens);

    ASSERT_EQ(6u, events.size()); // 5 streamed tokens + terminal event
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(reference[size_t(i)], events[size_t(i)].token);
        EXPECT_EQ(i, events[size_t(i)].index);
        EXPECT_FALSE(events[size_t(i)].last);
    }
    EXPECT_TRUE(events.back().last);
    EXPECT_EQ(-1, events.back().token);
    EXPECT_EQ(FinishReason::Stopped, events.back().reason);
}

TEST(ServeSession, MidChunkStopReturnsQuantizedBlocksCleanly)
{
    SyntheticModel model(smallDecoder(), 37);
    KernelContext kc(Backend::Serial);

    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.decode.cache.mode = KVCacheMode::TenderQuantized;
    options.scheduler.decode.cache.tender.rowChunk = 8;
    options.scheduler.decode.cache.blockTokens = 8;
    const size_t worst = KVCache::blocksForTokens(
        model.config(), options.scheduler.decode.cache, 3 + 12);
    options.scheduler.kvPoolBlocks = 2 * worst;

    ServeRequest probe;
    probe.promptTokens = {1, 2, 3};
    probe.maxNewTokens = 12;
    std::vector<int> reference;
    {
        ServeSession session(model, options);
        const int id = session.submit(probe);
        session.drain();
        reference = session.result(id)->tokens;
    }

    // Stop after 6 generated tokens: 3 prompt + 6 = 9 rows, which ends
    // mid-chunk and mid-block (rowChunk = blockTokens = 8). Retirement
    // must still hand every block and the undrawn reservation back.
    ServeRequest stopped = probe;
    stopped.stopSequences = {{reference[5]}};
    ServeSession session(model, options);
    const int id = session.submit(stopped);
    session.drain();
    const ServeResult *r = session.result(id);
    ASSERT_NE(nullptr, r);
    EXPECT_EQ(FinishReason::Stopped, r->reason);
    EXPECT_EQ(std::vector<int>(reference.begin(), reference.begin() + 5),
              r->tokens);

    const BlockPoolStats ps = session.poolStats();
    EXPECT_EQ(0u, ps.allocatedBlocks);
    EXPECT_EQ(0u, ps.reservedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(ServeSession, CancelMidDecodeReturnsBlocksAndReservation)
{
    SyntheticModel model(smallDecoder(), 41);
    KernelContext kc(Backend::Serial);

    ServeSessionOptions options;
    options.scheduler.maxBatch = 2;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.decode.cache.blockTokens = 4;
    const size_t worst = KVCache::blocksForTokens(
        model.config(), options.scheduler.decode.cache, 4 + 16);
    options.scheduler.kvPoolBlocks = 2 * worst;

    ServeRequest lone;
    lone.promptTokens = {5, 6, 7, 8};
    lone.maxNewTokens = 16;
    std::vector<int> solo;
    {
        ServeSession session(model, options);
        const int id = session.submit(lone);
        session.drain();
        solo = session.result(id)->tokens;
    }

    ServeSession session(model, options);
    const int victim = session.submit(lone);
    ServeRequest survivor = lone;
    survivor.promptTokens = {9, 10, 11, 12};
    const int keeper = session.submit(survivor);

    // A few steps in, both are active and mid-decode.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Decoding, session.state(victim));

    const BlockPoolStats before = session.poolStats();
    ASSERT_GT(before.allocatedBlocks, 0u);
    ASSERT_GT(before.reservedBlocks, 0u);

    EXPECT_TRUE(session.cancel(victim));
    EXPECT_FALSE(session.cancel(victim)); // already terminal
    EXPECT_EQ(RequestState::Cancelled, session.state(victim));

    const BlockPoolStats after = session.poolStats();
    EXPECT_LT(after.allocatedBlocks, before.allocatedBlocks);
    EXPECT_LT(after.reservedBlocks, before.reservedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());

    const ServeResult *rv = session.result(victim);
    ASSERT_NE(nullptr, rv);
    EXPECT_EQ(FinishReason::Cancelled, rv->reason);
    EXPECT_GT(rv->tokens.size(), 0u);
    EXPECT_LT(rv->tokens.size(), 16u);
    // The tokens decoded before cancellation are the solo generation's
    // prefix: cancellation can't rewrite history.
    EXPECT_TRUE(std::equal(rv->tokens.begin(), rv->tokens.end(),
                           solo.begin()));

    session.drain();
    EXPECT_EQ(RequestState::Finished, session.state(keeper));
    // And the cancellation didn't perturb the survivor's pool state.
    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(0u, done.allocatedBlocks);
    EXPECT_EQ(0u, done.reservedBlocks);
    EXPECT_EQ(1, int(session.scheduler().stats().cancelled));
}

TEST(ServeSession, FrontDoorValidationFailsFast)
{
    SyntheticModel model(smallDecoder(), 43);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 32;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.decode.cache.blockTokens = 4;
    options.scheduler.kvPoolBlocks = 4; // tiny pool
    ServeSession session(model, options);

    ServeRequest empty;
    ServeRequest no_budget;
    no_budget.promptTokens = {1};
    no_budget.maxNewTokens = 0;
    ServeRequest oov;
    oov.promptTokens = {1, 32};
    oov.maxNewTokens = 2;
    ServeRequest empty_stop;
    empty_stop.promptTokens = {1};
    empty_stop.maxNewTokens = 2;
    empty_stop.stopSequences = {{}};
    ServeRequest oversized;
    oversized.promptTokens = {1, 2, 3};
    oversized.maxNewTokens = 64; // worst case >> 4 pool blocks

    for (const ServeRequest &bad :
         {empty, no_budget, oov, empty_stop, oversized}) {
        bool terminal_seen = false;
        ServeRequest req = bad;
        req.onEvent = [&](const StreamEvent &ev) {
            EXPECT_TRUE(ev.last);
            EXPECT_EQ(FinishReason::Failed, ev.reason);
            terminal_seen = true;
        };
        const int id = session.submit(req);
        EXPECT_EQ(RequestState::Failed, session.state(id));
        const ServeResult *r = session.result(id);
        ASSERT_NE(nullptr, r);
        EXPECT_EQ(FinishReason::Failed, r->reason);
        EXPECT_FALSE(r->error.empty());
        EXPECT_TRUE(r->tokens.empty());
        EXPECT_TRUE(terminal_seen);
    }
    // Failed submissions surface through drain() like any retirement.
    EXPECT_EQ(5u, session.drain().size());
    EXPECT_EQ(0, int(session.scheduler().stats().admitted));
}

TEST(ServeSession, BadLookupNgramFailsOnlyItsOwnRequest)
{
    // A speculation setting the scheduler cannot run must retire only
    // that request at the front door: before it was validated there, the
    // scheduler's fatal check fired at admission mid-drain and took the
    // co-submitted valid request (and the process) down with it.
    SyntheticModel model(smallDecoder(), 59);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 32;
    options.scheduler.decode.kernels = &kc;
    ServeSession session(model, options);

    ServeRequest good;
    good.promptTokens = {3, 1, 4, 3, 1, 4};
    good.maxNewTokens = 6;
    good.speculation.drafter = DrafterKind::PromptLookup;
    ServeRequest bad = good;
    bad.speculation.lookupMaxNgram = 0;

    const int good_id = session.submit(good);
    const int bad_id = session.submit(bad);
    EXPECT_EQ(RequestState::Failed, session.state(bad_id));
    EXPECT_EQ(2u, session.drain().size());

    const ServeResult *failed = session.result(bad_id);
    ASSERT_NE(nullptr, failed);
    EXPECT_EQ(FinishReason::Failed, failed->reason);
    EXPECT_EQ(FailureReason::InvalidRequest, failed->failure);
    EXPECT_NE(std::string::npos, failed->error.find("lookupMaxNgram"));
    const ServeResult *done = session.result(good_id);
    ASSERT_NE(nullptr, done);
    EXPECT_EQ(RequestState::Finished, done->state);
    EXPECT_EQ(6u, done->tokens.size());
    EXPECT_EQ(1, int(session.scheduler().stats().admitted));
}

TEST(ServeSession, LatencyMetricsCoverEveryToken)
{
    SyntheticModel model(smallDecoder(), 47);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 32;
    options.scheduler.decode.kernels = &kc;
    ServeSession session(model, options);

    ServeRequest chat;
    chat.promptTokens = {3, 1, 4};
    chat.maxNewTokens = 6;
    chat.priority = Priority::Interactive;
    const int id = session.submit(chat);
    session.drain();

    const ServeResult *r = session.result(id);
    ASSERT_NE(nullptr, r);
    EXPECT_GE(r->metrics.queuedUs, 0.0);
    EXPECT_GE(r->metrics.ttftUs, 0.0);
    EXPECT_EQ(5u, r->metrics.interTokenUs.size()); // n tokens, n-1 gaps

    const LatencyStats lat = session.latency(Priority::Interactive);
    EXPECT_EQ(1, lat.requests);
    EXPECT_EQ(6, int(lat.tokens));
    EXPECT_EQ(1, lat.ttftSamples);
    EXPECT_EQ(5, lat.itlSamples);
    EXPECT_GE(lat.ttftP50Us, 0.0);
    EXPECT_GE(lat.ttftP95Us, lat.ttftP50Us);
    EXPECT_GE(lat.itlP95Us, lat.itlP50Us);
    // No Batch-class traffic ran.
    EXPECT_EQ(0, session.latency(Priority::Batch).requests);
}

TEST(BatchScheduler, InteractiveOvertakesWithoutStarvingTheHead)
{
    SyntheticModel model(smallDecoder(), 53);
    KernelContext kc(Backend::Serial);
    SchedulerOptions options;
    options.maxBatch = 1; // admissions strictly serialize
    options.vocabSize = 32;
    options.decode.kernels = &kc;
    options.maxHeadOvertakes = 2;
    BatchScheduler scheduler(model, options);

    std::vector<int> admission_order;
    auto mkreq = [&](int id, Priority priority) {
        GenRequest r;
        r.id = id;
        r.promptTokens = {id + 1, id + 2};
        r.maxNewTokens = 2;
        r.priority = priority;
        r.onAdmit = [&admission_order, id]() {
            admission_order.push_back(id);
        };
        return r;
    };

    // One running request, then a Batch head with five Interactive
    // requests queued behind it.
    scheduler.submit(mkreq(0, Priority::Batch));
    scheduler.submit(mkreq(1, Priority::Batch));
    for (int id = 2; id < 7; ++id)
        scheduler.submit(mkreq(id, Priority::Interactive));
    scheduler.drain();

    ASSERT_EQ(7u, admission_order.size());
    // Interactive requests overtake each Batch head, but a head waits
    // for at most maxHeadOvertakes consecutive overtakes: id 0 admits
    // after at most 2 interactive requests, id 1 (the next head, with a
    // reset overtake budget) after at most 2 more — never behind all 5.
    const auto pos = [&](int id) {
        return std::find(admission_order.begin(), admission_order.end(),
                         id) -
               admission_order.begin();
    };
    EXPECT_LE(pos(0), 2);
    EXPECT_LE(pos(1), 5);
    EXPECT_LT(pos(0), pos(1)); // FIFO between equal-priority heads
    EXPECT_EQ(4, int(scheduler.stats().overtakes));

    // All interactive requests still retired exactly once.
    std::vector<int> sorted = admission_order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ((std::vector<int>{0, 1, 2, 3, 4, 5, 6}), sorted);
}

} // namespace
} // namespace tender
