/**
 * @file
 * Compile fixture: a dropped trace::TraceStatus must not compile.
 *
 * ctest compiles this file with -Werror=unused-result once per
 * LASER_DROP value (see the root CMakeLists.txt). LASER_DROP 1, 2 and 3
 * each drop one status and must fail with "ignoring return...": from a
 * file-local helper, through a virtual override and from a lambda, the
 * shapes a scan of header declarations cannot see. Without LASER_DROP
 * the file checks every status and must compile.
 */

#include "trace/trace.h"

namespace {

using laser::trace::TraceStatus;

TraceStatus
helper()
{
    return TraceStatus::Ok;
}

struct Step
{
    virtual ~Step() = default;
    virtual TraceStatus run() = 0;
};

struct OkStep final : Step
{
    TraceStatus run() override { return TraceStatus::Ok; }
};

} // namespace

int
main()
{
    OkStep ok;
    Step &step = ok;
    const auto corrupt = [] { return TraceStatus::Corrupt; };
#if LASER_DROP == 1
    helper();
#elif LASER_DROP == 2
    step.run();
#elif LASER_DROP == 3
    corrupt();
#endif
    const bool good = helper() == TraceStatus::Ok &&
                      step.run() == TraceStatus::Ok &&
                      corrupt() == TraceStatus::Corrupt;
    return good ? 0 : 1;
}
