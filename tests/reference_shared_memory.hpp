/**
 * @file
 * Frozen per-bank-vector bank-conflict count — the implementation the
 * allocation-free SharedMemory::conflictPasses replaced. Kept verbatim
 * as the oracle for the differential conflict-counting test: every
 * warp access must cost the same number of passes in both.
 *
 * Test-only: not linked into the simulator.
 */

#ifndef SMS_TESTS_REFERENCE_SHARED_MEMORY_HPP
#define SMS_TESTS_REFERENCE_SHARED_MEMORY_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/memory/shared_memory.hpp"
#include "src/util/check.hpp"

namespace sms {

/** Reference SharedMemory::conflictPasses (one vector per bank). */
inline uint32_t
refConflictPasses(const std::vector<SharedLaneRequest> &lanes)
{
    if (lanes.empty())
        return 0;

    // Count distinct words per bank. An 8 B stack entry spans two
    // adjacent 4 B words (two banks). Lanes accessing the *same* word
    // broadcast and cost nothing extra; different words in the same
    // bank serialize.
    std::array<std::vector<Addr>, kSharedBanks> words;
    for (const SharedLaneRequest &req : lanes) {
        SMS_ASSERT(req.bytes % kBankWordBytes == 0,
                   "shared request must be word-aligned in size");
        for (uint32_t off = 0; off < req.bytes; off += kBankWordBytes) {
            Addr word = (req.addr + off) / kBankWordBytes;
            uint32_t bank = static_cast<uint32_t>(word % kSharedBanks);
            words[bank].push_back(word);
        }
    }

    uint32_t passes = 1;
    for (auto &bank_words : words) {
        std::sort(bank_words.begin(), bank_words.end());
        auto end = std::unique(bank_words.begin(), bank_words.end());
        uint32_t distinct =
            static_cast<uint32_t>(end - bank_words.begin());
        passes = std::max(passes, distinct);
    }
    return passes;
}

} // namespace sms

#endif // SMS_TESTS_REFERENCE_SHARED_MEMORY_HPP
