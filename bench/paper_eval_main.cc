// Prints every table of the paper's evaluation at LQS_BENCH_SCALE (default
// 0.5) and exits non-zero if a gate in CheckGates fails.
//
//   $ LQS_BENCH_SCALE=0.1 ./build/bench/paper_eval    # the golden's scale

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  auto eval = lqs::bench::RunPaperEval(lqs::bench::BenchScale());
  if (!eval.ok()) {
    std::fprintf(stderr, "paper_eval: %s\n",
                 eval.status().ToString().c_str());
    return 1;
  }
  std::fputs(eval->text.c_str(), stdout);
  lqs::Status gates = lqs::bench::CheckGates(eval.value());
  if (!gates.ok()) {
    std::fprintf(stderr, "GATE FAILED: %s\n", gates.ToString().c_str());
    return 1;
  }
  return 0;
}
