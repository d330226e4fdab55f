/**
 * @file
 * The benchmark's own tests: the percentile rank rule, and each output
 * check failing when it is fed a deliberately wrong output (a flipped
 * token, a perturbed logit row, a leaked block, a moved schedule).
 *
 *   .bench_build/servebench/servebench_selftest    (exit 0 = all pass)
 */
#include <cstdio>
#include <string>

#include "runtime/kv_cache.h"
#include "serve/sampler.h"
#include "servebench.h"
#include "util/rng.h"

using namespace servebench;
using namespace tender;

namespace {

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    std::printf("%s %s\n", cond ? "pass" : "FAIL", what.c_str());
    if (!cond)
        ++failures;
}

void
testPercentiles()
{
    expect(nearestRank(20, 0.5) == 10 && nearestRank(21, 0.5) == 11,
           "p50 rank is ceil(0.5 n)");
    expect(nearestRank(100, 0.9) == 90 && nearestRank(101, 0.9) == 91,
           "p90 rank is ceil(0.9 n), no float fuzz at n = 100");
    expect(nearestRank(1, 0.5) == 1 && nearestRank(1, 0.9) == 1,
           "rank is at least 1");
    expect(samplesNeeded(0.5) == 20 && samplesNeeded(0.9) == 100,
           "10 samples beyond p50 need n >= 20, beyond p90 n >= 100");
    const Percentile q = percentile({5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 0.9);
    expect(q.value == 9 && q.rank == 9 && q.beyond == 1 && q.samples == 10,
           "p90 of 1..10 is the 9th smallest with 1 beyond");
    expect(percentile({}, 0.5).samples == 0, "empty sample reports n = 0");
}

void
testReplayCheck()
{
    const std::vector<int> served = {3, 1, 4, 1, 5};
    expect(checkReplay(served, served).ok, "replay: equal tokens pass");
    std::vector<int> flipped = served;
    flipped[2] = 7;
    expect(!checkReplay(served, flipped).ok, "replay: one flipped token fails");
    expect(!checkReplay(served, {3, 1, 4, 1}).ok,
           "replay: a missing token fails");
}

void
testLogitChecks()
{
    Rng rng(11);
    const int rows = 6, vocab = 64;
    std::vector<Matrix> ref, arm;
    for (int r = 0; r < rows; ++r) {
        ref.push_back(randomGaussian(1, vocab, rng));
        Matrix a = ref.back();
        for (int j = 0; j < vocab; ++j)
            a(0, j) += 1e-3f * float(rng.gaussian());
        arm.push_back(a);
    }
    // The last three rows produced the outputs; greedy readout.
    SamplingParams greedy;
    std::vector<int> outputs;
    for (int r = rows - 3; r < rows; ++r)
        outputs.push_back(sampleToken(arm[size_t(r)], greedy, r));
    const LogitCompare ok = compareLogits(arm, ref, outputs, greedy);
    expect(ok.tokens.ok && checkNmse(ok.errSq / ok.refSq).ok,
           "logits: close arm passes nmse and reproduces its argmax tokens");

    std::vector<int> flipped = outputs;
    flipped[1] = (flipped[1] + 1) % vocab;
    expect(!compareLogits(arm, ref, flipped, greedy).tokens.ok,
           "logits: one flipped token fails the argmax check");

    std::vector<Matrix> perturbed = arm;
    for (int j = 0; j < vocab; ++j)
        perturbed[1](0, j) += 0.5f * float(rng.gaussian());
    const LogitCompare bad = compareLogits(perturbed, ref, outputs, greedy);
    expect(!checkNmse(bad.errSq / bad.refSq).ok,
           "logits: one perturbed logit row fails the nmse bound");
    expect(!checkNmse(0.0).ok, "logits: nmse of exactly 0 fails (no "
                               "quantization ran)");

    SamplingParams sampled;
    sampled.temperature = 0.8f;
    sampled.topK = 8;
    sampled.seed = 5;
    std::vector<int> drawn;
    for (int i = 0; i < 3; ++i)
        drawn.push_back(sampleToken(arm[size_t(rows - 3 + i)],
                                           sampled, i));
    expect(compareLogits(arm, ref, drawn, sampled).tokens.ok,
           "logits: sampled tokens are reproduced at their positions");
    drawn[2] = (drawn[2] + 1) % vocab;
    expect(!compareLogits(arm, ref, drawn, sampled).tokens.ok,
           "logits: one flipped sampled token fails");
}

void
testPoolCheck()
{
    const ModelConfig model = benchModel();
    const KVCacheConfig cache = benchDecodeOptions().cache;
    BlockAllocator pool(blockPoolConfigFor(model, cache, 0));
    expect(checkPoolDrained(pool).ok, "pool: an empty pool passes");
    const int block = pool.allocate(false);
    expect(!checkPoolDrained(pool).ok, "pool: one leaked block fails");
    pool.release(block);
    expect(pool.tryReserve(1) && !checkPoolDrained(pool).ok,
           "pool: one leaked reservation fails");
    pool.unreserve(1);
    expect(checkPoolDrained(pool).ok, "pool: released again passes");
}

void
testRounds()
{
    // A small closed loop on the benchmark model: one client, two chat
    // turns, so the second prompt carries the first reply.
    Workload w;
    w.name = "selftest";
    w.maxBatch = 2;
    w.prefixCache = true;
    Client c;
    c.carryHistory = true;
    Rng rng(3);
    for (int t = 0; t < 2; ++t) {
        Turn turn;
        for (int i = 0; i < 40; ++i)
            turn.text.push_back(int(rng.randint(0, w.vocabSize - 1)));
        turn.maxNewTokens = 4;
        turn.sampling.temperature = 0.7f;
        turn.sampling.seed = 9 + uint64_t(t);
        c.turns.push_back(turn);
    }
    w.clients.push_back(c);
    w.clients.push_back(c); // a second client with the same turns
    Setup setup = buildSetup(w, 1);
    const Round a = runRound(*setup.session, w, false);
    const Round b = runRound(*setup.session, w, true);
    expect(a.failed == 0 && a.outputs.size() == 4 && a.tokens == 16,
           "round: every request finished with its budget");
    expect(a.prompts[1].size() == 40 + 4 + 40,
           "round: the second turn resends prompt + reply + new text");
    expect(a.stats.prefillSkippedRows > 0,
           "round: the prefix cache served rows to the repeated prompts");
    expect(checkSchedule(a, b).ok, "round: a second round repeats the "
                                   "first exactly");
    expect(b.stepUs.size() == size_t(b.stats.steps),
           "round: timed steps recorded");
    expect(checkPoolDrained(setup.session->scheduler().pool()).ok,
           "round: pool drained after the prefix cache is cleared");
    Round moved = b;
    moved.outputs[3][0] ^= 1;
    expect(!checkSchedule(a, moved).ok, "round: one flipped token fails "
                                        "the schedule check");
    moved = b;
    ++moved.stats.steps;
    expect(!checkSchedule(a, moved).ok, "round: a moved step count fails");

    const OutputChecks out = runOutputChecks(w, setup, a, 1);
    bool all = true;
    for (const Check &ck : out.checks)
        all = all && ck.ok;
    expect(all && out.requests == 4 && out.nmse > 0.0,
           "checks: replay, arm readout, nmse and pool audit pass");
}

} // namespace

int
main()
{
    testPercentiles();
    testReplayCheck();
    testLogitChecks();
    testPoolCheck();
    testRounds();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
    return failures ? 1 : 0;
}
