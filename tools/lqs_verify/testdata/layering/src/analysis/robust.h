// Layering fixture: analysis/ may depend on lqs/ (clean include below) but
// monitor/ sits above it — that include is the seeded violation checking
// the analysis layer entry in the DAG.
#ifndef FIXTURE_ANALYSIS_ROBUST_H_
#define FIXTURE_ANALYSIS_ROBUST_H_

#include "lqs/progress.h"
#include "monitor/service.h"  // VIOLATION: analysis -> monitor is upward

namespace fixture {
double RobustProgress();
}  // namespace fixture

#endif  // FIXTURE_ANALYSIS_ROBUST_H_
