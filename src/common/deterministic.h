#ifndef LQS_COMMON_DETERMINISTIC_H_
#define LQS_COMMON_DETERMINISTIC_H_

/// Byte-identity determinism annotation (DESIGN.md §14).
///
/// The estimation core and the wire codec promise byte-identical output for
/// identical input (PR 5's replay-order invariance, PR 7's delta round-trip
/// goldens). Golden tests check that promise only on the inputs they
/// exercise; this marker makes it visible to static analysis:
/// tools/lqs_verify's `determinism` checker walks the call graph from every
/// LQS_DETERMINISTIC function and rejects any non-virtual chain that
/// reaches a source of run-to-run nondeterminism:
///
///   * wall-clock reads (std::chrono::*_clock::now, time, gettimeofday,
///     ...) — lqs::VirtualClock is the sanctioned time source;
///   * std::rand / std::random_device / engine construction (mt19937, ...)
///     — seeded lqs::Rng is the sanctioned randomness source;
///   * environment reads (getenv family);
///   * iteration over std::unordered_* containers (order depends on the
///     hash seed) or over ordered containers keyed on pointers (order
///     depends on allocation addresses) — both can leak into output bytes.
///
/// Place it at the front of the declaration, like LQS_NOALLOC:
///     LQS_NOALLOC LQS_DETERMINISTIC void EstimateInto(...) const;
///
/// Call-site escape hatch (same line or the line directly above):
///     // lqs-verify: det-ok(reason)
/// The reason is mandatory; the checker rejects an empty one.
///
/// The macro expands to nothing: the checker reads the annotation token in
/// the source text, which is the ground truth it consumes.
#define LQS_DETERMINISTIC

#endif  // LQS_COMMON_DETERMINISTIC_H_
