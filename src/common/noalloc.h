#ifndef LQS_COMMON_NOALLOC_H_
#define LQS_COMMON_NOALLOC_H_

/// Allocation-freedom annotation vocabulary (DESIGN.md §12).
///
/// The estimation core's zero-allocation contract (DESIGN.md §11) is
/// enforced at runtime by tests/estimator_alloc_test.cc, but only on the
/// paths that test happens to exercise. These annotations make the contract
/// visible to static analysis: tools/lqs_verify's `noalloc` checker walks
/// the call graph and rejects any non-virtual call chain from an
/// LQS_NOALLOC function to an allocating operation (operator new, the
/// malloc family, growing-container member calls).
///
/// Vocabulary:
///
///   LQS_NOALLOC
///     Marks a function whose steady-state execution must reach no
///     allocating operation through any non-virtual call chain. Place it at
///     the front of the declaration:
///         LQS_NOALLOC void EstimateInto(...) const;
///
///   LQS_ALLOC_OK("justification")
///     Function-level escape hatch: marks a callee as a deliberate
///     allocation boundary — traversal stops here instead of descending.
///     The justification string is mandatory and must be non-empty; the
///     checker rejects an empty one. Use it for one-time sizing paths and
///     off-hot-path arms (e.g. violation reporting) that an LQS_NOALLOC
///     function legitimately reaches:
///         LQS_ALLOC_OK("first-call sizing; zero steady-state allocations")
///         void PrepareWorkspace(Workspace* ws) const;
///
///   // LQS_ALLOC_OK("justification")   (comment form, same line or the
///     line directly above an allocating call)
///     Call-site escape hatch for capacity-reusing container calls inside
///     an LQS_NOALLOC region: `resize`/`assign` on a vector whose capacity
///     was established by the sizing path never allocates in steady state,
///     but is lexically an allocating operation. The justification is
///     mandatory here too.
///
/// Both macros expand to nothing: the checker reads the annotation token in
/// the source text, which is the ground truth it consumes.
#define LQS_NOALLOC
#define LQS_ALLOC_OK(justification)

#endif  // LQS_COMMON_NOALLOC_H_
