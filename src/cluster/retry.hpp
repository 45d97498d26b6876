// Jittered retry backoff, shared by everything that re-sends a request:
// psaflow-client (overloaded responses) and the router (shard failover).
//
// Full jitter over an exponentially growing window: attempt k draws
// uniformly from [base/2, cap(base * 2^k)). The half-floor keeps retries
// from landing instantly (a zero draw would), the jitter de-synchronises
// the thundering herd a shard failure creates — every client that saw the
// same failure at the same moment retries at a different moment. When the
// server supplied a retry_after hint, the hint replaces the exponential
// base for that attempt (the server knows its queue better than we do)
// but is still jittered for the same reason.
//
// Deterministic: delays come from a caller-owned SplitMix64, so tests
// replay identical schedules from a seed.
#pragma once

#include <cstdint>

#include "support/prng.hpp"

namespace psaflow::cluster {

struct BackoffPolicy {
    long long base_ms = 50;   ///< window for attempt 0
    long long max_ms = 2000;  ///< window growth cap
    int max_attempts = 3;     ///< total tries (1 = no retry)

    /// The delay before retry `attempt` (0-based: the wait after the
    /// first failure is attempt 0). `hint_ms` > 0 is a server-provided
    /// retry_after that overrides the exponential window.
    [[nodiscard]] long long delay_ms(int attempt, SplitMix64& rng,
                                     long long hint_ms = 0) const {
        long long window = hint_ms > 0 ? hint_ms : base_ms;
        if (hint_ms <= 0) {
            for (int i = 0; i < attempt && window < max_ms; ++i)
                window *= 2;
        }
        if (window > max_ms) window = max_ms;
        if (window < 1) window = 1;
        const long long floor = window / 2;
        return floor +
               static_cast<long long>(rng.next_below(
                   static_cast<std::uint64_t>(window - floor) + 1));
    }
};

} // namespace psaflow::cluster
