/**
 * @file
 * A small sweep binary for end-to-end tests of the bench layer: the
 * SMS_SCENES subset at the Tiny profile under RB_8 and SMS, through the
 * same JsonReporter, prepareAllScenes and runSweep path as the figure
 * binaries, so --json, --shards and --shard-workers behave as there.
 *
 * Usage: SMS_SCENES=WKND,BUNNY sweep_fixture --json=PATH
 *            [--shard-workers=N | --shards=i/N]
 */

#include "bench/bench_util.hpp"

using namespace sms;
using namespace sms::benchutil;

int
main(int argc, char **argv)
{
    JsonReporter reporter("sweep_fixture", argc, argv);
    auto workloads = prepareAllScenes(ScaleProfile::Tiny);
    SweepResult sweep = runSweep(
        workloads, std::vector<StackConfig>{StackConfig::baseline(8),
                                            StackConfig::sms()});
    reporter.addSweep(sweep);
    reporter.finish();
    return 0;
}
