/**
 * @file
 * Failure-containment tests: the fault-injection plan machinery itself,
 * front-door load shedding (queue depth, deadlines), callback-exception
 * containment, KV page integrity verification, and the chaos soak — a
 * seeded randomized fault schedule over the fp32 / quantized / fused /
 * fused+speculate decode arms asserting the containment contract: every
 * request that was not itself hit by a fault generates bit-identical
 * tokens to a fault-free run, and the drained pool leaks nothing.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "model/workload.h"
#include "runtime/decode_engine.h"
#include "serve/serve_session.h"
#include "util/fault_injection.h"

namespace tender {
namespace {

ModelConfig
smallDecoder()
{
    ModelConfig cfg;
    cfg.name = "faults-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = 2;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

/** RAII disarm: every test leaves the process-wide injector clean even
 *  when an assertion fails mid-test. */
struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

TEST(FaultInjector, PlanParsesCountsAndFiresAtNthHit)
{
    InjectorGuard guard;
    FaultInjector &fi = FaultInjector::instance();
    fi.arm("alloc@3;latency@2x500");
    EXPECT_TRUE(fi.armed());
    EXPECT_EQ("alloc@3;latency@2x500", fi.plan());

    EXPECT_EQ(0, fi.onHit(FaultSite::AllocFail)); // hit 1
    EXPECT_EQ(0, fi.onHit(FaultSite::AllocFail)); // hit 2
    EXPECT_EQ(1, fi.onHit(FaultSite::AllocFail)); // hit 3: fires
    EXPECT_EQ(0, fi.onHit(FaultSite::AllocFail)); // fires once only
    EXPECT_EQ(4, fi.hits(FaultSite::AllocFail));
    EXPECT_EQ(1, fi.fired(FaultSite::AllocFail));

    EXPECT_EQ(0, fi.onHit(FaultSite::StepLatency));
    EXPECT_EQ(500, fi.onHit(FaultSite::StepLatency)); // payload surfaces
    EXPECT_EQ(1, fi.fired(FaultSite::StepLatency));

    // arm() resets the counters: "the 3rd hit" is relative to arming.
    fi.arm("alloc@1");
    EXPECT_EQ(0, fi.hits(FaultSite::AllocFail));
    EXPECT_EQ(1, fi.onHit(FaultSite::AllocFail));

    fi.disarm();
    EXPECT_FALSE(fi.armed());
    // Disarmed sites neither fire nor count.
    EXPECT_EQ(0, fi.onHit(FaultSite::AllocFail));
    EXPECT_EQ(0, fi.hits(FaultSite::AllocFail));
}

TEST(FaultInjector, RandomPlanIsSeededAndParseable)
{
    InjectorGuard guard;
    const std::vector<FaultSite> sites = {FaultSite::AllocFail,
                                          FaultSite::CallbackThrow,
                                          FaultSite::StepLatency};
    const std::string a = FaultInjector::randomPlan(7, sites, 5, 40);
    const std::string b = FaultInjector::randomPlan(7, sites, 5, 40);
    const std::string c = FaultInjector::randomPlan(8, sites, 5, 40);
    EXPECT_EQ(a, b); // same seed, same plan — chaos runs replay
    EXPECT_NE(a, c);
    FaultInjector::instance().arm(a); // must parse (TENDER_FATAL if not)
    EXPECT_TRUE(FaultInjector::instance().armed());
}

/** Greedy request with a deterministic prompt derived from `i`. */
ServeRequest
probeRequest(int i, int vocab, int prompt_len, int budget)
{
    ServeRequest r;
    for (int t = 0; t < prompt_len; ++t)
        r.promptTokens.push_back((7 * i + 3 * t + 1) % vocab);
    r.maxNewTokens = budget;
    return r;
}

TEST(LoadShedding, QueueOverflowShedsAtSubmitAndIsCounted)
{
    SyntheticModel model(smallDecoder(), 61);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.maxBatch = 1;
    options.scheduler.maxQueueDepth = 2;
    ServeSession session(model, options);

    std::vector<int> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(session.submit(probeRequest(i, 48, 3, 4)));

    // Queue bound 2 with nothing stepped yet: submissions 0 and 1 queue,
    // 2 and 3 are shed synchronously at the front door.
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(RequestState::Queued, session.state(ids[size_t(i)]));
    for (int i = 2; i < 4; ++i) {
        EXPECT_EQ(RequestState::Failed, session.state(ids[size_t(i)]));
        const ServeResult *r = session.result(ids[size_t(i)]);
        ASSERT_NE(nullptr, r);
        EXPECT_EQ(FailureReason::QueueOverflow, r->failure);
        EXPECT_TRUE(r->tokens.empty());
    }

    session.drain();
    for (int i = 0; i < 2; ++i) {
        const ServeResult *r = session.result(ids[size_t(i)]);
        ASSERT_NE(nullptr, r);
        EXPECT_EQ(RequestState::Finished, r->state);
        EXPECT_EQ(4u, r->tokens.size());
    }
    EXPECT_EQ(2, session.scheduler().stats().shedQueueFull);
    EXPECT_EQ(2, session.scheduler().stats().failed);
    EXPECT_EQ(2, session.latency(Priority::Batch).shedQueueFull);
}

TEST(LoadShedding, ExpiredDeadlineShedsWaitingRequestOnly)
{
    SyntheticModel model(smallDecoder(), 67);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.maxBatch = 1;
    ServeSession session(model, options);

    // Reference: what the long request generates with nobody else around.
    std::vector<int> reference;
    {
        ServeSession solo(model, options);
        const int id = solo.submit(probeRequest(0, 48, 3, 6));
        solo.drain();
        reference = solo.result(id)->tokens;
        ASSERT_EQ(6u, reference.size());
    }

    const int keeper = session.submit(probeRequest(0, 48, 3, 6));
    ServeRequest doomed = probeRequest(1, 48, 3, 6);
    doomed.deadlineUs = 1; // expires before it can ever be admitted
    const int shed = session.submit(doomed);

    session.drain();
    const ServeResult *k = session.result(keeper);
    ASSERT_NE(nullptr, k);
    EXPECT_EQ(RequestState::Finished, k->state);
    EXPECT_EQ(reference, k->tokens); // survivor unaffected by the shed
    const ServeResult *s = session.result(shed);
    ASSERT_NE(nullptr, s);
    EXPECT_EQ(RequestState::Failed, s->state);
    EXPECT_EQ(FailureReason::DeadlineExceeded, s->failure);
    EXPECT_GE(session.scheduler().stats().shedDeadline, 1);
    EXPECT_EQ(1, session.latency(Priority::Batch).shedDeadline);

    // Negative deadlines are a front-door validation error.
    ServeRequest bad = probeRequest(2, 48, 3, 2);
    bad.deadlineUs = -5;
    const int rejected = session.submit(bad);
    EXPECT_EQ(RequestState::Failed, session.state(rejected));
    EXPECT_EQ(FailureReason::InvalidRequest,
              session.result(rejected)->failure);
}

TEST(Containment, ThrowingClientCallbackFailsOnlyThatRequest)
{
    SyntheticModel model(smallDecoder(), 71);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.maxBatch = 4;

    std::vector<int> reference;
    {
        ServeSession solo(model, options);
        const int id = solo.submit(probeRequest(0, 48, 3, 6));
        solo.drain();
        reference = solo.result(id)->tokens;
    }

    ServeSession session(model, options);
    const int survivor = session.submit(probeRequest(0, 48, 3, 6));
    ServeRequest broken = probeRequest(1, 48, 3, 6);
    int delivered = 0;
    broken.onEvent = [&](const StreamEvent &ev) {
        if (ev.last)
            return; // terminal notification is best-effort, never throws
        if (++delivered == 3)
            throw std::runtime_error("client went away");
    };
    const int failed = session.submit(broken);
    session.drain();

    const ServeResult *s = session.result(survivor);
    ASSERT_NE(nullptr, s);
    EXPECT_EQ(RequestState::Finished, s->state);
    EXPECT_EQ(reference, s->tokens); // the batch survived, bit-exact
    const ServeResult *f = session.result(failed);
    ASSERT_NE(nullptr, f);
    EXPECT_EQ(RequestState::Failed, f->state);
    EXPECT_EQ(FailureReason::CallbackError, f->failure);
    EXPECT_EQ(3, delivered); // the throwing delivery consumed its slot
    EXPECT_FALSE(f->error.empty());
    EXPECT_EQ(1, session.latency(Priority::Batch).failed);

    // Nothing leaked: the failed request's blocks and undrawn
    // reservation went back to the pool.
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_EQ(0u, session.poolStats().reservedBlocks);
}

TEST(Containment, InjectedCallbackFaultUsesTheSamePath)
{
    InjectorGuard guard;
    SyntheticModel model(smallDecoder(), 73);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;

    FaultInjector::instance().arm("callback@2");
    ServeSession session(model, options);
    ServeRequest req = probeRequest(0, 48, 3, 5);
    req.onEvent = [](const StreamEvent &) {};
    const int id = session.submit(req);
    session.drain();
    const ServeResult *r = session.result(id);
    ASSERT_NE(nullptr, r);
    EXPECT_EQ(RequestState::Failed, r->state);
    EXPECT_EQ(FailureReason::CallbackError, r->failure);
    EXPECT_EQ(1, FaultInjector::instance().fired(FaultSite::CallbackThrow));
}

TEST(Containment, AllocFaultInVerifyStepIsSkippedByLaterWaves)
{
    // A speculative segment over a quantized cache attends in single-row
    // waves. Its first row opens a new block; when that allocation
    // faults, the cache latches in wave 0 and every later wave of the
    // step must skip it, while a co-scheduled segment computes exactly
    // its fault-free hidden state.
    InjectorGuard guard;
    SyntheticModel model(smallDecoder(), 89);
    const ModelConfig &cfg = model.config();
    KernelContext kc(Backend::Serial); // wave-0 appends run in order
    KVCacheConfig qcfg;
    qcfg.mode = KVCacheMode::TenderQuantized;
    qcfg.tender.rowChunk = 8;
    const Matrix x = model.sampleInput(5, 3);
    const auto run = [&](const char *plan) {
        KVCache spec(cfg, qcfg), plain(cfg, qcfg);
        const DecodeStepConfig step;
        decodeStep(model, model.sampleInput(8, 1), {{&spec, 0, 8, 0}},
                   step, kc);
        decodeStep(model, model.sampleInput(4, 2), {{&plain, 0, 4, 0}},
                   step, kc);
        FaultInjector::instance().arm(plan);
        // spec's rows 8..10 open its second block; plain's rows 4..5 fit
        // its first, so the step's first allocation is spec's.
        const Matrix h = decodeStep(model, x,
                                    {{&spec, 0, 3, 8, true},
                                     {&plain, 3, 2, 4, false}},
                                    step, kc);
        FaultInjector::instance().disarm();
        EXPECT_FALSE(plain.failed());
        return std::make_pair(spec.failed(), h.rowSlice(3, 5));
    };
    const auto clean = run("");
    const auto faulted = run("alloc@1");
    EXPECT_FALSE(clean.first);
    EXPECT_TRUE(faulted.first);
    EXPECT_TRUE(clean.second == faulted.second);
}

TEST(Integrity, CorruptPublishedPageFallsBackToColdPrefill)
{
    InjectorGuard guard;
    SyntheticModel model(smallDecoder(), 79);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.decode.cache.blockTokens = 4;
    options.scheduler.prefixCache = true;

    const ServeRequest shared = probeRequest(0, 48, 9, 4); // 2 full blocks

    std::vector<int> reference;
    {
        ServeSession solo(model, options);
        const int id = solo.submit(shared);
        solo.drain();
        reference = solo.result(id)->tokens;
    }

    // corrupt@1: the first published entry (request A's prefix) gets a
    // wrong recorded checksum. B's lookup then fails verification and
    // prefills cold — same tokens, no reuse. B republishes a clean entry
    // that C adopts after verification passes.
    FaultInjector::instance().arm("corrupt@1");
    ServeSession session(model, options);
    const int a = session.submit(shared);
    session.drain();
    const int b = session.submit(shared);
    session.drain();
    const int c = session.submit(shared);
    session.drain();
    FaultInjector::instance().disarm();

    for (const int id : {a, b, c}) {
        const ServeResult *r = session.result(id);
        ASSERT_NE(nullptr, r);
        EXPECT_EQ(RequestState::Finished, r->state);
        EXPECT_EQ(reference, r->tokens);
    }
    const PrefixCache *cache = session.scheduler().prefixCache();
    ASSERT_NE(nullptr, cache);
    EXPECT_EQ(1, cache->stats().integrityRejects);
    EXPECT_EQ(1, session.scheduler().stats().integrityFallbacks);
    EXPECT_GE(session.scheduler().stats().prefixHits, 1); // C's adoption
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

/** One decode arm of the chaos soak. */
struct SoakArm
{
    const char *name;
    KVCacheMode mode;
    bool fused;
    bool prefixCache;
    int maxDraft; ///< prompt-lookup draft length; 0 = no speculation
    int maxNth;   ///< fault plan hit range (FaultInjector::randomPlan)
};

/** Run `n` greedy requests to completion and return tokens by id, plus
 *  every terminal state. Fault plans (armed by the caller) fire during
 *  the run; the session is drained either way. */
std::map<int, ServeResult>
runSoak(SyntheticModel &model, const SoakArm &arm, const KernelContext &kc,
        int n)
{
    ServeSessionOptions options;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.decode.cache.mode = arm.mode;
    options.scheduler.decode.cache.blockTokens = 8;
    if (arm.mode == KVCacheMode::TenderQuantized)
        options.scheduler.decode.cache.tender.rowChunk = 8;
    options.scheduler.decode.fusedQuantKv = arm.fused;
    options.scheduler.prefixCache = arm.prefixCache;
    options.scheduler.maxBatch = 3;
    ServeSession session(model, options);

    std::map<int, ServeResult> results;
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) {
        ServeRequest r = probeRequest(i, 48, 3 + i % 7, 4 + i % 5);
        r.onEvent = [](const StreamEvent &) {}; // exposes the callback site
        if (arm.maxDraft > 0) {
            r.speculation.drafter = DrafterKind::PromptLookup;
            r.speculation.maxDraft = arm.maxDraft;
        }
        ids.push_back(session.submit(r));
    }
    session.drain();
    for (const int id : ids)
        results[id] = *session.result(id);

    // Leak audit: whatever faulted, every block and reservation must be
    // home once the session drains and the prefix cache lets go.
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent())
        << arm.name;
    if (session.scheduler().prefixCache())
        session.scheduler().prefixCache()->clear();
    const BlockPoolStats pool = session.poolStats();
    EXPECT_EQ(0u, pool.allocatedBlocks) << arm.name;
    EXPECT_EQ(0u, pool.reservedBlocks) << arm.name;
    EXPECT_EQ(0u, pool.sharedBlocks) << arm.name;
    EXPECT_EQ(0u, pool.parkedBlocks) << arm.name;
    return results;
}

TEST(ChaosSoak, SurvivorsAreBitExactAndNothingLeaksInEveryArm)
{
    InjectorGuard guard;
    SyntheticModel model(smallDecoder(), 83);
    KernelContext kc(Backend::Serial);
    const int kRequests = 10;
    const SoakArm arms[] = {
        // Low hit indices so several triggers land inside the run.
        {"fp32", KVCacheMode::Fp32, false, true, 0, 30},
        {"quantized", KVCacheMode::TenderQuantized, false, false, 0, 30},
        {"fused", KVCacheMode::TenderQuantized, true, false, 0, 30},
        // Verify steps run a quantized cache's rows as single-row waves.
        // The wider hit range reaches past the prefills, so allocation
        // faults also land in steps that verify drafts.
        {"fused+speculate", KVCacheMode::TenderQuantized, true, false, 4,
         120},
    };
    const std::vector<FaultSite> sites = {FaultSite::AllocFail,
                                          FaultSite::CallbackThrow,
                                          FaultSite::StepLatency};

    for (const SoakArm &arm : arms) {
        FaultInjector::instance().disarm();
        const std::map<int, ServeResult> baseline =
            runSoak(model, arm, kc, kRequests);
        int64_t drafted = 0;
        for (const auto &[id, r] : baseline) {
            ASSERT_EQ(RequestState::Finished, r.state)
                << arm.name << " baseline request " << id;
            drafted += r.metrics.draftedTokens;
        }
        EXPECT_EQ(arm.maxDraft > 0, drafted > 0) << arm.name;

        for (uint64_t seed = 1; seed <= 3; ++seed) {
            FaultInjector::instance().arm(
                FaultInjector::randomPlan(seed, sites, 6, arm.maxNth, 100));
            const std::map<int, ServeResult> chaos =
                runSoak(model, arm, kc, kRequests);
            int failed = 0;
            for (const auto &[id, r] : chaos) {
                if (r.state == RequestState::Failed) {
                    ++failed;
                    EXPECT_NE(FailureReason::None, r.failure);
                    continue;
                }
                EXPECT_EQ(RequestState::Finished, r.state)
                    << arm.name << " seed " << seed << " request " << id;
                // The containment contract: a request not hit by a fault
                // generates exactly the tokens of a fault-free run.
                EXPECT_EQ(baseline.at(id).tokens, r.tokens)
                    << arm.name << " seed " << seed << " request " << id;
            }
            EXPECT_LT(failed, kRequests)
                << arm.name << " seed " << seed
                << ": the plan must not take down the whole batch";
        }
    }
}

} // namespace
} // namespace tender
