/**
 * @file
 * Cycle-accounting leaf names, conservation helpers and JSON view.
 */

#include "src/stats/cycle_accounting.hpp"

#include <cstdlib>
#include <cstring>

#include "src/stats/report.hpp"
#include "src/util/check.hpp"

namespace sms {

namespace {

const char *const kLeafNames[kCycleLeafCount] = {
    "issue",
    "intersect",
    "stall.stack.spill",
    "stall.stack.refill",
    "stall.stack.borrow_chain",
    "stall.stack.forced_flush",
    "stall.mem.l1_miss",
    "stall.mem.l2_miss",
    "stall.mem.dram_queue",
    "stall.shmem.bank_conflict",
    "stall.arch.backtrack",
    "idle.done",
};

/**
 * The stall.arch.backtrack leaf only exists for the stackless
 * architecture; it is emitted conditionally so default-architecture
 * records (including the checked-in goldens) stay byte-identical.
 */
bool
leafEmittedWhenZero(int idx)
{
    return idx != static_cast<int>(CycleLeaf::StallArchBacktrack);
}

} // namespace

const char *
cycleLeafName(CycleLeaf leaf)
{
    int idx = static_cast<int>(leaf);
    SMS_ASSERT(idx >= 0 && idx < kCycleLeafCount,
               "cycle leaf %d out of range", idx);
    return kLeafNames[idx];
}

int
cycleLeafFromName(const std::string &name)
{
    for (int i = 0; i < kCycleLeafCount; ++i)
        if (name == kLeafNames[i])
            return i;
    return -1;
}

bool
cycleAccountingChecksEnabled()
{
    static const bool enabled = [] {
        if (const char *env = std::getenv("SMS_ACCOUNTING_CHECK"))
            return std::strcmp(env, "0") != 0;
#ifdef NDEBUG
        return false;
#else
        return true;
#endif
    }();
    return enabled;
}

uint64_t
CycleAccount::activeSum() const
{
    uint64_t sum = 0;
    for (int i = 0; i < kCycleLeafCount; ++i)
        if (!cycleLeafIsIdle(static_cast<CycleLeaf>(i)))
            sum += leaves[i];
    return sum;
}

uint64_t
CycleAccount::totalSum() const
{
    uint64_t sum = 0;
    for (int i = 0; i < kCycleLeafCount; ++i)
        sum += leaves[i];
    return sum;
}

void
CycleAccount::merge(const CycleAccount &o)
{
    for (int i = 0; i < kCycleLeafCount; ++i)
        leaves[i] += o.leaves[i];
    warp_active_cycles += o.warp_active_cycles;
    slot_cycles += o.slot_cycles;
}

JsonValue
toJson(const CycleAccount &account)
{
    JsonValue v = JsonValue::object();
    v["version"] = kCycleAccountingVersion;
    v["warp_active_cycles"] = account.warp_active_cycles;
    v["slot_cycles"] = account.slot_cycles;
    JsonValue leaves = JsonValue::object();
    for (int i = 0; i < kCycleLeafCount; ++i) {
        if (account.leaves[i] == 0 && !leafEmittedWhenZero(i))
            continue;
        leaves[kLeafNames[i]] = account.leaves[i];
    }
    v["leaves"] = leaves;
    return v;
}

} // namespace sms
