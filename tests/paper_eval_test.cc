// The paper's evaluation, pinned at scale 0.1 (bench/bench_util.h):
//  - the rendered tables equal tests/testdata/paper_eval_scale0.1.txt byte
//    for byte (every value is a pure function of the virtual clock);
//  - the figures keep the paper's shapes, which survive intended changes;
//  - the gates hold: Table 1 finds no bound violation, and intersecting
//    LpBound with Appendix A neither inverts an interval nor worsens
//    Error_time;
//  - every preset's estimator output over every snapshot of the five §5
//    workloads hashes to a pinned digest.
//
// An intended change to the tables regenerates the golden file with the
// command in kRegenerate below; an intended change to the estimator's output
// updates the digest constants from the values the failing test prints.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "bench/bench_util.h"
#include "common/stringf.h"
#include "lqs/estimator.h"
#include "tests/test_util.h"

namespace lqs {
namespace testing {
namespace {

using bench::PaperEval;

constexpr double kScale = 0.1;
constexpr char kRegenerate[] =
    "LQS_BENCH_SCALE=0.1 ./build/bench/paper_eval > "
    "tests/testdata/paper_eval_scale0.1.txt";

/// One digest per registry preset and its `_lp` variant, in registry order.
struct PresetDigest {
  std::string name;
  EstimatorOptions options;
  BitHash digest;
};

struct Shared {
  PaperEval eval;
  std::vector<PresetDigest> digests;
  uint64_t estimates = 0;
};

// Runs the evaluation once for every test. While it holds each §5 trace,
// every preset replays that trace's snapshots in order through one
// workspace and hashes every field of every report.
const Shared& Evaluated() {
  static const Shared* shared = [] {
    auto* s = new Shared();
    for (int i = 0; i < EstimatorOptions::kPresetCount; ++i) {
      const std::string name = EstimatorOptions::PresetName(i);
      for (const std::string& variant : {name, name + "_lp"}) {
        PresetDigest preset;
        preset.name = variant;
        EXPECT_TRUE(
            EstimatorOptions::PresetFromName(variant, &preset.options));
        s->digests.push_back(preset);
      }
    }
    auto visit = [s](const Workload& workload, const WorkloadQuery& query,
                     const ProfileTrace& trace) {
      for (PresetDigest& preset : s->digests) {
        ProgressEstimator estimator(&query.plan, workload.catalog.get(),
                                    preset.options);
        ProgressEstimator::Workspace workspace;
        ProgressReport report;
        for (const ProfileSnapshot& snapshot : trace.snapshots) {
          estimator.EstimateInto(snapshot, &workspace, &report);
          preset.digest.AddDouble(report.query_progress);
          preset.digest.AddVector(report.operator_progress);
          preset.digest.AddVector(report.refined_rows);
          preset.digest.AddVector(report.pipeline_progress);
          preset.digest.AddVector(report.pipeline_weight);
          ++s->estimates;
        }
      }
    };
    auto eval = bench::RunPaperEval(kScale, visit);
    EXPECT_TRUE(eval.ok()) << eval.status().ToString();
    if (eval.ok()) s->eval = std::move(eval).value();
    return s;
  }();
  return *shared;
}

TEST(PaperEvalTest, OutputMatchesGolden) {
  const std::string path =
      std::string(LQS_TESTDATA_DIR) + "/paper_eval_scale0.1.txt";
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream golden;
  golden << file.rdbuf();
  std::istringstream want(golden.str()), got(Evaluated().eval.text);
  std::string want_line, got_line;
  for (int line = 1;; ++line) {
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    if (!has_want && !has_got) break;
    ASSERT_TRUE(has_want && has_got && want_line == got_line)
        << "paper_eval output differs from " << path << " at line " << line
        << "\n  golden: " << (has_want ? want_line : "<end of file>")
        << "\n  actual: " << (has_got ? got_line : "<end of output>")
        << "\nIf the change is intended, regenerate with\n  " << kRegenerate;
  }
  EXPECT_TRUE(golden.str() == Evaluated().eval.text)
      << "the final newline differs; regenerate with\n  " << kRegenerate;
}

TEST(PaperEvalTest, GatesHold) {
  const PaperEval& eval = Evaluated().eval;
  EXPECT_TRUE(bench::CheckGates(eval).ok())
      << bench::CheckGates(eval).ToString();
  EXPECT_GT(eval.table1_checks, 0);
  EXPECT_GT(eval.tightness_queries, 0);
}

// The paper's shapes, which survive intended changes to the numbers.
TEST(PaperEvalTest, FiguresKeepThePapersShapes) {
  const PaperEval& eval = Evaluated().eval;
  // Fig. 14: Bounding+Refinement beats No Refinement on at least 4 of the
  // 5 workloads (TPC-DS, whose optimizer estimates are already good, is
  // the exception).
  ASSERT_EQ(eval.fig14.size(), 5u);
  int wins = 0;
  for (const bench::WorkloadResult& r : eval.fig14) {
    if (r.error_count[2] < r.error_count[0]) ++wins;
  }
  EXPECT_GE(wins, 4);
  // Fig. 17: the two-phase model beats output-only for both bars.
  EXPECT_LT(eval.fig17.hash_match.technique, eval.fig17.hash_match.baseline);
  EXPECT_LT(eval.fig17.sort.technique, eval.fig17.sort.baseline);
  // Figs. 6, 11 and 12: each showcase's technique tracks the truth better.
  EXPECT_LT(eval.fig6.technique, eval.fig6.baseline) << "I/O vs row fraction";
  EXPECT_LT(eval.fig11.technique, eval.fig11.baseline)
      << "two-phase vs output-only";
  EXPECT_LT(eval.fig12.technique, eval.fig12.baseline)
      << "weighted vs unweighted";
}

// Every ProgressReport field, exact bits and vector lengths, of every
// snapshot of every query of the five §5 workloads at scale 0.1, per
// preset. `tgn_lp` equals `tgn` because TGN does not bound.
TEST(PaperEvalTest, PresetDigestsArePinned) {
  const std::vector<std::pair<std::string, uint64_t>> kPinned = {
      {"tgn", 0x928b06e87937251aull},
      {"tgn_lp", 0x928b06e87937251aull},
      {"bounding", 0xac33b80a2ca8f4feull},
      {"bounding_lp", 0x653c176f33359c8full},
      {"refined", 0xfc290d204c095da5ull},
      {"refined_lp", 0xd1c86ef9ef081ce1ull},
      {"lqs", 0x37b5522991a0159dull},
      {"lqs_lp", 0xa724f043201668a0ull},
  };
  const Shared& shared = Evaluated();
  EXPECT_EQ(shared.estimates, 240344u);
  ASSERT_EQ(shared.digests.size(), kPinned.size());
  std::string actual;
  bool match = true;
  for (size_t i = 0; i < kPinned.size(); ++i) {
    const PresetDigest& d = shared.digests[i];
    EXPECT_EQ(d.name, kPinned[i].first);
    match = match && d.digest.value() == kPinned[i].second;
    actual += StringF("      {\"%s\", 0x%016llxull},\n", d.name.c_str(),
                      static_cast<unsigned long long>(d.digest.value()));
  }
  EXPECT_TRUE(match) << "estimator output moved; the digests are now\n"
                     << actual;
}

}  // namespace
}  // namespace testing
}  // namespace lqs
