/**
 * @file
 * Prompt-lookup draft proposals for speculative decoding
 * (docs/speculation.md).
 *
 * promptLookupDraft proposes a short continuation of a request's token
 * sequence (prompt plus everything generated so far). The scheduler
 * stacks the proposed tokens into one multi-row *verification* step —
 * the same segment shape prefill already uses — reads the model's token
 * at every drafted position, and accepts the longest agreeing prefix;
 * rejected rows are popped again with KVCache::truncateRows. Acceptance
 * compares against exactly the token the request's own readout (greedy
 * argmax or the seeded sampler) would have produced, so speculative
 * decode emits bit-identical tokens to plain decode — the draft only
 * changes how many scheduler iterations that takes.
 *
 * The proposal is n-gram prompt lookup: find the longest suffix of
 * `tokens` (up to maxNgram tokens) that re-occurs earlier in the
 * sequence, take the most recent earlier occurrence, and propose the
 * tokens that followed it. It costs no model work, holds no state, and
 * is a function of its arguments alone, so it never depends on call
 * history, admission order, batch size or worker count — that keeps
 * speculative scheduling inside the runtime's scheduling-independence
 * contract (tests/test_speculation.cc).
 */

#ifndef TENDER_RUNTIME_DRAFT_H
#define TENDER_RUNTIME_DRAFT_H

#include <vector>

namespace tender {

/** Which draft-token proposer a speculating request runs. */
enum class DrafterKind
{
    None = 0,     ///< speculation off (plain one-token steps)
    PromptLookup, ///< n-gram suffix lookup in prompt + generated
};

const char *drafterKindName(DrafterKind kind);

/** Per-request speculative-decoding configuration (docs/speculation.md).
 *  Carried on GenRequest / ServeRequest; DrafterKind::None disables
 *  speculation. Incompatible with a quantizing DecodeOptions::scheme —
 *  a scheme's activation chunk scales depend on the rows a projection
 *  sees, so multi-row verify steps would change tokens (same reason the
 *  prefix cache rejects schemes). */
struct SpeculationParams
{
    /** Draft proposer to run; None = plain decode. */
    DrafterKind drafter = DrafterKind::None;
    /** Draft tokens proposed per verification step (k). The scheduler
     *  additionally caps each step's draft so (a) the transient KV rows
     *  never exceed the request's admission reservation and (b) in
     *  quantized mode no draft row lands in a chunk that would freeze
     *  (frozen chunks are never reopened by rollback). */
    int maxDraft = 4;
    /** PromptLookup: longest suffix n-gram tried before giving up. */
    int lookupMaxNgram = 3;
};

/** Propose up to `max_tokens` (>= 1) continuation tokens for `tokens`
 *  (the request's prompt plus generated tokens, non-empty) by n-gram
 *  prompt lookup over suffixes of at most `max_ngram` (> 0) tokens. May
 *  return fewer, or none — the scheduler then runs a plain single-row
 *  step. */
std::vector<int> promptLookupDraft(const std::vector<int> &tokens,
                                   int max_ngram, int max_tokens);

} // namespace tender

#endif // TENDER_RUNTIME_DRAFT_H
