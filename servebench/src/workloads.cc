/**
 * @file
 * Workload make-up. The seed only picks token contents and sampling
 * streams; lengths, budgets and client counts follow fixed patterns, so
 * every seed yields the same amount of work and (apart from speculative
 * acceptance on long_doc) the same schedule. The README gives the reasons
 * for each choice.
 */
#include <algorithm>

#include "runtime/kv_cache.h"
#include "servebench.h"
#include "util/check.h"
#include "util/rng.h"

namespace servebench {

using namespace tender;

int
Workload::requestsPerRound() const
{
    int n = 0;
    for (const Client &c : clients)
        n += int(c.turns.size());
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"chat", "long_doc",
                                                   "offline_w8a8"};
    return names;
}

ModelConfig
benchModel()
{
    return replicaOf(modelByName("Llama-2-70B"), 16);
}

DecodeOptions
benchDecodeOptions()
{
    DecodeOptions o;
    o.cache.mode = KVCacheMode::TenderQuantized;
    o.fusedQuantKv = true;
    return o;
}

namespace {

std::vector<int>
randomTokens(Rng &rng, int n, int vocab)
{
    std::vector<int> t(static_cast<size_t>(n));
    for (int &x : t)
        x = int(rng.randint(0, vocab - 1));
    return t;
}

/** A document that reuses its own phrases, as real text does: phrases of
 *  3-8 tokens drawn from a bank private to the document. */
std::vector<int>
document(Rng &rng, int n, int vocab)
{
    std::vector<std::vector<int>> bank(12);
    for (auto &p : bank)
        p = randomTokens(rng, int(rng.randint(3, 8)), vocab);
    std::vector<int> doc;
    while (int(doc.size()) < n) {
        const auto &p = bank[size_t(rng.randint(0, int(bank.size()) - 1))];
        doc.insert(doc.end(), p.begin(), p.end());
    }
    doc.resize(size_t(n));
    return doc;
}

/** Interactive chat: 10 users over 6 batch slots, 3 turns each under one
 *  64-token system prompt (two complete KV chunks, so it is shareable).
 *  Turn text and reply lengths vary per (user, turn) on a fixed pattern so
 *  the users drift out of lockstep. */
Workload
chat(uint64_t seed)
{
    Workload w;
    w.name = "chat";
    w.maxBatch = 6;
    w.prefixCache = true;
    // The system prompt belongs to the deployment, not to the traffic: it
    // is the same for every seed, and the seed draws what users type.
    Rng fixed(0x5157ULL);
    const std::vector<int> system = randomTokens(fixed, 64, w.vocabSize);
    Rng rng(seed ^ 0xc4a7ULL);
    const int users = 10, turns = 3;
    int longest = 0;
    for (int u = 0; u < users; ++u) {
        Client c;
        c.carryHistory = true;
        int history = 0;
        for (int t = 0; t < turns; ++t) {
            Turn turn;
            const int len = 8 + (u * 7 + t * 5) % 9;
            turn.text = randomTokens(rng, len, w.vocabSize);
            if (t == 0)
                turn.text.insert(turn.text.begin(), system.begin(),
                                 system.end());
            turn.maxNewTokens = 8 + (u * 5 + t * 3) % 9;
            turn.sampling.temperature = 0.8f;
            turn.sampling.topK = 40;
            turn.sampling.topP = 0.95f;
            turn.sampling.seed = seed * 1000003ULL + uint64_t(u * 16 + t);
            history += int(turn.text.size()) + turn.maxNewTokens;
            longest = std::max(longest, history);
            c.turns.push_back(std::move(turn));
        }
        w.clients.push_back(std::move(c));
    }
    // Bounded pool: room for four of the longest conversations at once,
    // so admission competes with cached prefixes and the cache evicts.
    w.kvPoolBlocks = 4 *
        KVCache::blocksForTokens(benchModel(), benchDecodeOptions().cache,
                                 longest);
    return w;
}

/** Prefill-bound document rewriting: a client submits batches of 4
 *  unique documents (48-111 tokens, 318 rows per batch) for greedy
 *  rewriting with prompt-lookup speculation, and sends the next batch once
 *  every reply is back; 5 batches per round. The prefix cache is on but
 *  never hit (no two documents share a chunk). Batches keep the prefill
 *  placement independent of how many drafts each document accepts. */
Workload
longDoc(uint64_t seed)
{
    Workload w;
    w.name = "long_doc";
    w.maxBatch = 8;
    w.prefixCache = true;
    w.lockstep = true;
    Rng rng(seed ^ 0x10d0cULL);
    for (int u = 0; u < 4; ++u) {
        Client c;
        for (int t = 0; t < 5; ++t) {
            Turn turn;
            turn.text = document(rng, 48 + ((u + t) % 4) * 21, w.vocabSize);
            turn.maxNewTokens = 12;
            turn.speculation.drafter = DrafterKind::PromptLookup;
            turn.speculation.maxDraft = 4;
            c.turns.push_back(std::move(turn));
        }
        w.clients.push_back(std::move(c));
    }
    return w;
}

/** Offline W8A8 backlog: 12 requests queued at t=0 over 4 slots, greedy,
 *  projections through TenderScheme. Budgets differ so retirements
 *  stagger and freed slots refill one by one (continuous batching). */
Workload
offlineW8a8(uint64_t seed)
{
    Workload w;
    w.name = "offline_w8a8";
    w.maxBatch = 4;
    w.w8a8 = true;
    Rng rng(seed ^ 0x0ff1ULL);
    for (int r = 0; r < 12; ++r) {
        Client c;
        Turn turn;
        turn.text = randomTokens(rng, 24 + (r * 7) % 25, w.vocabSize);
        turn.maxNewTokens = 6 + (r * 5) % 6;
        c.turns.push_back(std::move(turn));
        w.clients.push_back(std::move(c));
    }
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "chat")
        return chat(seed);
    if (name == "long_doc")
        return longDoc(seed);
    TENDER_REQUIRE(name == "offline_w8a8", "unknown workload " << name);
    return offlineW8a8(seed);
}

} // namespace servebench
