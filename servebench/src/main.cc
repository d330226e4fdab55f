/**
 * @file
 * servebench: one closed-loop serving workload per process.
 *
 *   servebench --workload chat|long_doc|offline_w8a8 --seed N --seconds S
 *              --trace 0|1 [--workers W]
 *
 * Set-up is built kSetupRepeats times, half before the warm-up and half
 * after the output checks (median reported as setup_s; once with --trace
 * 1, which does not report it). One untimed
 * warm-up round fixes the reference schedule and tokens, then
 * whole rounds run until S seconds have passed and every reported
 * percentile has kMinBeyond samples beyond it. Every round must
 * reproduce the warm-up round exactly. --trace 0 reports the end-to-end
 * metrics; --trace 1 alternates with traced rounds on a second session
 * whose probes are on and reports the per-layer metrics. The output
 * checks run after the timed window. The last stdout line is one JSON
 * object: correct, attempted, failed, metrics.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "servebench.h"
#include "util/rng.h"

using namespace servebench;
using namespace tender;
using Clock = std::chrono::steady_clock;

namespace {

/** Worker threads of the kernel context; see README for the study. */
constexpr int kDefaultWorkers = 2;
/** Set-ups per run (~0.5 s each). The host's speed drifts over seconds,
 *  so they are split between the start and the end of the run. */
constexpr int kSetupRepeats = 10;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int workers = kDefaultWorkers;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload "
                 "chat|long_doc|offline_w8a8 --seed N --seconds S "
                 "--trace 0|1 [--workers W]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (k == "--workers") {
            a.workers = int(std::strtol(v, &end, 10));
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + k).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown or missing --workload");
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    if (!(a.seconds > 0.0) || a.workers < 1 || a.workers > nproc)
        usage("--seconds must be > 0 and 1 <= --workers <= nproc");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< report-only (sample counts, modes)
};

/** The metrics of one run, in report order. A percentile with fewer than
 *  kMinBeyond samples beyond its rank clears samplesOk. */
struct Reporter
{
    std::vector<Metric> metrics;
    bool samplesOk = true;

    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "")
    {
        metrics.push_back({name, value, unit, note});
    }
    /** @param mayBeEmpty the workload may have no such samples at all
     *  (verify steps without speculation): then 0 is reported with n=0
     *  and the guard does not apply. */
    void addPercentileMs(const std::string &name, const std::vector<double> &us,
                         double p, const std::string &note = "",
                         bool mayBeEmpty = false)
    {
        const Percentile q = percentile(us, p);
        char buf[160];
        std::snprintf(buf, sizeof buf, "n=%d rank=%d beyond=%d%s%s",
                      q.samples, q.rank, q.beyond, note.empty() ? "" : " ",
                      note.c_str());
        if (q.beyond < kMinBeyond && !(mayBeEmpty && q.samples == 0))
            samplesOk = false;
        add(name, q.value * 1e-3, "ms", buf);
    }
};

/** Which itl mode the p-th percentile lands in, and how many ranks it is
 *  from the nearest sample of another mode (below, above). */
std::string
modeNote(const std::vector<double> &us, const std::vector<int> &mode,
         double p)
{
    static const char *names[] = {"same-step", "decode-step", "prefill-step"};
    std::vector<std::pair<double, int>> v;
    for (size_t i = 0; i < us.size(); ++i)
        v.push_back({us[i], mode[i]});
    if (v.empty())
        return "";
    std::sort(v.begin(), v.end());
    const size_t r = size_t(nearestRank(int(v.size()), p)) - 1;
    const int m = v[r].second;
    size_t below = 0, above = 0;
    while (below < r && v[r - below - 1].second == m)
        ++below;
    while (r + above + 1 < v.size() && v[r + above + 1].second == m)
        ++above;
    int count[3] = {0, 0, 0};
    for (const auto &x : v)
        ++count[x.second];
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "mode=%s (same-step %d, decode-step %d, prefill-step %d; "
                  "%zu ranks of this mode below, %zu above)",
                  names[m], count[0], count[1], count[2], below, above);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** GFLOP/s (or GOP/s) of a kernel call repeated for ~0.2 s. */
template <class F>
double
rateOf(double ops_per_call, F &&call)
{
    int reps = 0;
    const auto t0 = Clock::now();
    do {
        call();
        ++reps;
    } while (reps < 3 || secondsSince(t0) < 0.2);
    return ops_per_call * reps / secondsSince(t0) * 1e-9;
}

/** Mean stacked rows over the steps of one kind (at least 1). */
int
meanRows(const Round &r, StepKind kind)
{
    double rows = 0.0;
    int n = 0;
    for (size_t i = 0; i < r.stepKind.size(); ++i)
        if (r.stepKind[i] == kind) {
            rows += double(r.stepRows[i]);
            ++n;
        }
    return n ? std::max(1, int(std::lround(rows / n))) : 1;
}

int
countSteps(const Round &r, StepKind kind)
{
    return int(std::count(r.stepKind.begin(), r.stepKind.end(), kind));
}

int
roundsFor(int perRound, int needed)
{
    return perRound > 0 ? (needed + perRound - 1) / perRound : 1;
}

void
appendAll(std::vector<double> &dst, const std::vector<double> &src)
{
    dst.insert(dst.end(), src.begin(), src.end());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = makeWorkload(args.workload, args.seed);
    std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d "
                "workers=%d nproc=%ld backend=%s calibration_mflops=%.0f\n",
                w.name.c_str(), (unsigned long long)args.seed, args.seconds,
                int(args.trace), args.workers, sysconf(_SC_NPROCESSORS_ONLN),
                backendName(defaultKernels().backend()).c_str(),
                bench::calibrationScoreMflops());

    // ---- Set-up (timed, repeated) -------------------------------------
    const int setups = args.trace ? 1 : kSetupRepeats;
    std::vector<double> setupS;
    Setup setup;
    for (int i = 0; i < (setups + 1) / 2; ++i) {
        // Release the previous copy first, the session before the model
        // and kernel context it points into.
        setup.session.reset();
        setup = Setup{};
        const auto t0 = Clock::now();
        setup = buildSetup(w, args.workers);
        setupS.push_back(secondsSince(t0));
    }
    ServeSession &session = *setup.session;

    // ---- Warm-up round: the reference schedule ------------------------
    std::vector<Check> checks;
    const Round warm = runRound(session, w, false);
    checks.push_back(checkPoolDrained(session.scheduler().pool()));
    std::printf("warm-up: %lld steps, %lld rows (%.2f rows/step), %zu "
                "requests, %lld tokens, %.2f s; prefix hits %lld, evictions "
                "%lld, deferred steps %lld, drafts %lld/%lld accepted\n",
                (long long)warm.stats.steps, (long long)warm.stats.batchedRows,
                double(warm.stats.batchedRows) / double(warm.stats.steps), warm.outputs.size(),
                (long long)warm.tokens, warm.seconds,
                (long long)warm.stats.prefixHits,
                (long long)warm.stats.prefixEvictions,
                (long long)warm.stats.deferred,
                (long long)warm.stats.acceptedDraftTokens,
                (long long)warm.stats.draftedTokens);

    // ---- Measured window ----------------------------------------------
    // Whole rounds until the window has passed and every percentile has
    // its samples; both counts are per-round constants, so the number of
    // rounds depends only on host speed.
    const int minRounds = std::max(
        roundsFor(int(warm.ttftUs.size()), samplesNeeded(0.5)),
        roundsFor(int(warm.itlUs.size()), samplesNeeded(0.9)));
    const int minTraced = std::max(
        {roundsFor(countSteps(warm, StepKind::Decode), samplesNeeded(0.5)),
         roundsFor(countSteps(warm, StepKind::Prefill), samplesNeeded(0.5)),
         roundsFor(countSteps(warm, StepKind::Verify), samplesNeeded(0.5)),
         roundsFor(int(warm.queueUs.size()), samplesNeeded(0.5))});

    Probes probes;
    std::unique_ptr<ServeSession> traced;
    if (args.trace)
        traced = std::make_unique<ServeSession>(
            *setup.model, sessionOptions(w, setup, &probes));

    std::vector<Round> plain, tracedRounds;
    int failed = 0, attempted = 0;
    bool scheduleOk = true;
    const auto window0 = Clock::now();
    for (;;) {
        const bool timeUp = secondsSince(window0) >= args.seconds;
        const bool enough = args.trace
            ? int(tracedRounds.size()) >= minTraced
            : int(plain.size()) >= minRounds;
        if (timeUp && enough)
            break;
        // Trace mode alternates plain and traced rounds so the tracing
        // overhead compares rounds run under the same host conditions.
        const bool runTraced =
            args.trace && plain.size() > tracedRounds.size();
        ServeSession &s = runTraced ? *traced : session;
        Round r = runRound(s, w, runTraced);
        const Check sched = checkSchedule(warm, r);
        const Check pool = checkPoolDrained(s.scheduler().pool());
        if (!sched.ok || !pool.ok) {
            scheduleOk = false;
            checks.push_back(sched.ok ? pool : sched);
        }
        failed += r.failed;
        attempted += int(r.outputs.size());
        (runTraced ? tracedRounds : plain).push_back(std::move(r));
    }
    const double rssMb = peakRssMb();
    checks.push_back({scheduleOk,
                      scheduleOk ? "every round reproduced the warm-up "
                                   "schedule and tokens"
                                 : "a round left the warm-up schedule"});

    // ---- Output checks (untimed) --------------------------------------
    const OutputChecks out = runOutputChecks(w, setup, warm, args.seed);
    checks.insert(checks.end(), out.checks.begin(), out.checks.end());

    // ---- Set-up, second half (timed; each copy released after) --------
    while (int(setupS.size()) < setups) {
        const auto t0 = Clock::now();
        const Setup extra = buildSetup(w, args.workers);
        setupS.push_back(secondsSince(t0));
    }
    std::printf("setup seconds:");
    for (double x : setupS)
        std::printf(" %.3f", x);
    std::printf("\n");

    // ---- Metrics -------------------------------------------------------
    Reporter rep;
    const ModelConfig cfg = setup.model->config();
    const BlockPoolStats poolStats = session.poolStats();
    if (!args.trace) {
        double secs = 0.0;
        int64_t tokens = 0;
        std::vector<double> ttft, itl;
        std::vector<int> itlMode;
        for (const Round &r : plain) {
            secs += r.seconds;
            tokens += r.tokens;
            appendAll(ttft, r.ttftUs);
            appendAll(itl, r.itlUs);
            itlMode.insert(itlMode.end(), r.itlMode.begin(), r.itlMode.end());
        }
        rep.add("setup_s", median(setupS), "s");
        rep.add("tokens_per_s", double(tokens) / secs, "1/s");
        rep.addPercentileMs("ttft_p50_ms", ttft, 0.5);
        rep.addPercentileMs("itl_p50_ms", itl, 0.5,
                            modeNote(itl, itlMode, 0.5));
        rep.addPercentileMs("itl_p90_ms", itl, 0.9,
                            modeNote(itl, itlMode, 0.9));
        rep.add("peak_rss_mb", rssMb, "MB");
        rep.add("kv_peak_mb",
                double(poolStats.peakAllocatedBytes()) / (1024.0 * 1024.0),
                "MB");
        rep.add("logit_nmse", out.nmse, "ratio");
    } else {
        const double nTraced = double(tracedRounds.size());
        std::vector<double> decodeUs, prefillUs, verifyUs, queueUs, plainS,
            tracedS;
        double stepUs = 0.0;
        for (const Round &r : tracedRounds) {
            for (size_t i = 0; i < r.stepUs.size(); ++i) {
                stepUs += r.stepUs[i];
                (r.stepKind[i] == StepKind::Decode    ? decodeUs
                 : r.stepKind[i] == StepKind::Prefill ? prefillUs
                                                      : verifyUs)
                    .push_back(r.stepUs[i]);
            }
            appendAll(queueUs, r.queueUs);
            tracedS.push_back(r.seconds);
        }
        for (const Round &r : plain)
            plainS.push_back(r.seconds);
        const DecodePhaseTimes &ph = probes.phases;
        const double phaseUs =
            ph.projectionsUs + ph.appendUs + ph.historyUs + ph.attentionUs;
        const double flopsPerRow = 2.0 * double(cfg.blockWeights()) *
            double(cfg.nLayers);
        const SchedulerStats &st = warm.stats;
        const KernelContext &kc = *setup.kernels;

        rep.add("sched.steps", double(st.steps), "count");
        rep.add("sched.rows_per_step",
                double(st.batchedRows) / double(st.steps), "rows");
        rep.addPercentileMs("sched.decode_step_ms_p50", decodeUs, 0.5);
        rep.addPercentileMs("sched.prefill_step_ms_p50", prefillUs, 0.5);
        rep.addPercentileMs("sched.verify_step_ms_p50", verifyUs, 0.5, "",
                            true);
        rep.addPercentileMs("sched.queue_wait_ms_p50", queueUs, 0.5);
        rep.add("sched.outside_engine_ms", (stepUs - phaseUs) * 1e-3 / nTraced,
                "ms");
        rep.add("engine.projections_ms", ph.projectionsUs * 1e-3 / nTraced,
                "ms");
        rep.add("engine.projection_gflops",
                flopsPerRow * double(st.batchedRows) * nTraced /
                    (ph.projectionsUs * 1e-6) * 1e-9,
                "GFLOP/s");
        rep.add("engine.attention_ms", ph.attentionUs * 1e-3 / nTraced, "ms");
        rep.add("engine.history_ms", ph.historyUs * 1e-3 / nTraced, "ms");
        rep.add("engine.append_ms", ph.appendUs * 1e-3 / nTraced, "ms");
        rep.add("tender.matmul_calls", double(probes.tender.calls) / nTraced,
                "count");
        rep.add("tender.matmul_ms", probes.tender.us * 1e-3 / nTraced, "ms");
        rep.add("tender.matmul_gops",
                probes.tender.us > 0.0
                    ? probes.tender.ops / (probes.tender.us * 1e-6) * 1e-9
                    : 0.0,
                "GOP/s");

        // Direct kernel calls at this workload's shapes: the fc1 weight
        // (d x dFfn) at the mean decode and prefill step heights, and one
        // fused-attention panel (the q-heads of one kv head against one
        // KV chunk).
        Rng rng(args.seed ^ 0x6e33ULL);
        const int d = cfg.dModel, f = cfg.dFfn;
        const Matrix wfc = randomGaussian(d, f, rng);
        auto gemmRate = [&](int m) {
            const Matrix x = randomGaussian(m, d, rng);
            return rateOf(2.0 * m * d * f, [&] { kc.gemm(x, wfc); });
        };
        const int mDecode = meanRows(warm, StepKind::Decode);
        const int mPrefill = meanRows(warm, StepKind::Prefill);
        const int hd = cfg.headDim();
        const int panelRows = cfg.nHeads / cfg.kvHeads;
        const int chunk = benchDecodeOptions().cache.tender.rowChunk;
        IntMatrix qa(panelRows, hd), kb(chunk, hd);
        for (int32_t &x : qa.data())
            x = int32_t(rng.randint(-127, 127));
        for (int32_t &x : kb.data())
            x = int32_t(rng.randint(-127, 127));
        rep.add("kernels.gemm_decode_gflops", gemmRate(mDecode), "GFLOP/s",
                "m=" + std::to_string(mDecode));
        rep.add("kernels.gemm_prefill_gflops", gemmRate(mPrefill), "GFLOP/s",
                "m=" + std::to_string(mPrefill));
        rep.add("kernels.gemm_int8_gops",
                rateOf(2.0 * panelRows * hd * chunk,
                       [&] { kc.gemmInt8(qa, kb, 127, 127); }),
                "GOP/s");

        rep.add("kv.peak_blocks", double(poolStats.peakAllocatedBlocks),
                "count");
        rep.add("kv.cow_copies", double(warm.cowCopies), "count");
        rep.add("prefix.evictions", double(st.prefixEvictions), "count");
        const double promptRows =
            double(st.prefillRows + st.prefillSkippedRows);
        rep.add("prefix.hit_rows_share",
                promptRows > 0 ? double(st.prefillSkippedRows) / promptRows
                               : 0.0,
                "ratio");
        rep.add("draft.acceptance",
                st.draftedTokens > 0 ? double(st.acceptedDraftTokens) /
                        double(st.draftedTokens)
                                     : 0.0,
                "ratio");
        rep.add("draft.fallback_steps", double(st.specFallbackSteps),
                "count");
        rep.add("trace.overhead", median(tracedS) / median(plainS) - 1.0,
                "ratio");

        // Report-only context: the unattributed share of step time.
        std::printf("step wall %.1f ms/round: phases %.1f ms, outside the "
                    "engine %.1f ms (%.1f%%: readout, sampling, staging, "
                    "admit/retire)\n",
                    stepUs * 1e-3 / nTraced, phaseUs * 1e-3 / nTraced,
                    (stepUs - phaseUs) * 1e-3 / nTraced,
                    100.0 * (stepUs - phaseUs) / stepUs);
    }

    // ---- Report --------------------------------------------------------
    bool correct = failed == 0;
    std::printf("rounds: %zu plain, %zu traced (+1 warm-up); requests "
                "attempted=%d failed=%d; round seconds:",
                plain.size(), tracedRounds.size(), attempted, failed);
    for (const Round &r : plain)
        std::printf(" %.3f", r.seconds);
    for (const Round &r : tracedRounds)
        std::printf(" %.3f(traced)", r.seconds);
    std::printf("\n");
    for (const Check &c : checks) {
        std::printf("check %s: %s\n", c.ok ? "ok  " : "FAIL",
                    c.detail.c_str());
        correct = correct && c.ok;
    }
    for (const Metric &m : rep.metrics)
        std::printf("metric %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    if (!rep.samplesOk) {
        std::fprintf(stderr, "servebench: a percentile has fewer than %d "
                             "samples beyond it\n",
                     kMinBeyond);
        return 3;
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < rep.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", rep.metrics[i].name.c_str(),
                    rep.metrics[i].value, rep.metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
