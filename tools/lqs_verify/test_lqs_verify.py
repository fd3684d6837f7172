#!/usr/bin/env python3
"""Fixture suite for lqs-verify, run under ctest as `lqs_verify_fixtures`.

Pins each checker's exact findings on the seeded-violation corpus in
testdata/ (the positive cases) and the clean constructs around them (the
negative cases), plus the annotation/runtime-test pairing in both
directions against the real tree.

Fixture lines are located by unique substrings, not hard-coded numbers, so
fixtures can be edited without renumbering the suite.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import frontend_lite  # noqa: E402
import lqs_verify  # noqa: E402

TESTDATA = os.path.join(HERE, "testdata")
REPO_ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))


def files_under(root):
    found = []
    for dirpath, _, names in os.walk(root):
        found.extend(os.path.join(dirpath, n) for n in names)
    return sorted(found)


def line_of(path, needle):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if needle in line:
                return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def parse(*paths):
    model, errors = frontend_lite.parse_files(list(paths))
    if errors:
        raise AssertionError(f"fixture parse errors: {errors}")
    return model


class StatusFixtureTest(unittest.TestCase):
    FIXTURE = os.path.join(TESTDATA, "status_fixture.cc")

    def setUp(self):
        self.findings = checks.check_status(parse(self.FIXTURE))
        self.lines = {f.line for f in self.findings}

    def test_exact_finding_count(self):
        self.assertEqual(len(self.findings), 4,
                         [f.render() for f in self.findings])

    def test_plain_discard_flagged(self):
        line = line_of(self.FIXTURE, 'Connect("a")')
        self.assertIn(line, self.lines)
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("discarded", finding.message)
        self.assertIn("Connect", finding.message)

    def test_void_cast_flagged(self):
        line = line_of(self.FIXTURE, '(void)Connect("b")')
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("(void)-cast", finding.message)

    def test_bound_never_consulted_flagged(self):
        line = line_of(self.FIXTURE, "Status dangling")
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("never consulted", finding.message)
        self.assertIn("'dangling'", finding.message)

    def test_empty_suppression_reason_flagged(self):
        line = line_of(self.FIXTURE, "status-ok()")
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("non-empty reason", finding.message)

    def test_clean_cases_not_flagged(self):
        for needle in ('Connect("d")', "teardown; failure",
                       "SideEffectOnly()", 'holder.status = Connect("e")'):
            self.assertNotIn(line_of(self.FIXTURE, needle), self.lines,
                             f"clean case flagged: {needle}")


class NoallocFixtureTest(unittest.TestCase):
    FIXTURE = os.path.join(TESTDATA, "noalloc_fixture.cc")

    def setUp(self):
        self.findings = checks.check_noalloc(parse(self.FIXTURE))

    def of_root(self, root):
        return [f for f in self.findings if f"'{root}'" in f.message]

    def test_exact_finding_count(self):
        self.assertEqual(len(self.findings), 5,
                         [f.render() for f in self.findings])

    def test_two_deep_chain_reported_with_full_chain(self):
        (finding,) = self.of_root("DeepRoot")
        self.assertEqual(finding.line, line_of(self.FIXTURE, "new int(7)"))
        self.assertIn("operator new", finding.message)
        self.assertIn("'Leaf'", finding.message)
        # DeepRoot -> Middle -> Leaf -> operator new, each with file:line.
        self.assertEqual(len(finding.chain), 4)
        self.assertIn("DeepRoot", finding.chain[0])
        self.assertIn("Middle", finding.chain[1])
        self.assertIn("Leaf", finding.chain[2])
        self.assertIn("operator new", finding.chain[3])

    def test_direct_container_growth_reported(self):
        (finding,) = self.of_root("GrowDirect")
        self.assertIn("push_back", finding.message)

    def test_alloc_ok_boundary_stops_traversal(self):
        self.assertEqual(self.of_root("ThroughBoundary"), [])
        # The boundary's own body is behind the escape, not analyzed.
        self.assertFalse(
            [f for f in self.findings if "SizingBoundary" in f.message])

    def test_line_suppression_with_reason_is_clean(self):
        self.assertEqual(self.of_root("SuppressedLine"), [])

    def test_empty_line_suppression_is_a_finding(self):
        line = line_of(self.FIXTURE, "LQS_ALLOC_OK()")
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("non-empty justification", finding.message)
        # ...and it replaces (not duplicates) the allocation finding.
        self.assertEqual(len(self.of_root("EmptySuppression")), 0)

    def test_virtual_calls_not_followed(self):
        self.assertEqual(self.of_root("ThroughVirtual"), [])

    def test_conflicting_annotations_flagged(self):
        (finding,) = self.of_root("Conflicted")
        self.assertIn("both LQS_NOALLOC and LQS_ALLOC_OK", finding.message)

    def test_empty_function_level_justification_flagged(self):
        (finding,) = self.of_root("Unjustified")
        self.assertIn("non-empty justification", finding.message)


class PairingTest(unittest.TestCase):
    """The LQS_NOALLOC <-> runtime-test pairing, both directions, against
    the real headers and the real allocation test."""

    HEADERS = [
        os.path.join(REPO_ROOT, "src", "lqs", "estimator.h"),
        os.path.join(REPO_ROOT, "src", "lqs", "bounds.h"),
        os.path.join(REPO_ROOT, "src", "monitor", "monitor_service.h"),
    ]
    PAIRING = os.path.join(REPO_ROOT, "tests", "estimator_alloc_test.cc")

    def test_tree_annotations_and_markers_agree(self):
        findings = checks.check_noalloc(parse(*self.HEADERS),
                                        pairing_file=self.PAIRING)
        self.assertEqual(findings, [], [f.render() for f in findings])

    def test_removing_an_annotation_orphans_its_marker(self):
        # Simulates the acceptance scenario: revert LQS_NOALLOC from
        # EstimateInto and the static-analysis job must fail.
        def read_text(path):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith("estimator.h"):
                text = text.replace(
                    "LQS_NOALLOC LQS_DETERMINISTIC void EstimateInto",
                    "LQS_DETERMINISTIC void EstimateInto")
            return text

        model, errors = frontend_lite.parse_files(list(self.HEADERS),
                                                  read_text=read_text)
        self.assertEqual(errors, [])
        findings = checks.check_noalloc(model, pairing_file=self.PAIRING)
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("no such annotation exists", findings[0].message)
        self.assertIn("ProgressEstimator::EstimateInto",
                      findings[0].message)

    def test_removing_a_marker_orphans_its_annotation(self):
        with open(self.PAIRING, "r", encoding="utf-8") as handle:
            text = handle.read()
        text = text.replace(
            "// LQS_NOALLOC_PAIRED: MonitorService::ComputeStatus", "//")
        findings = checks.check_noalloc(parse(*self.HEADERS),
                                        pairing_file=self.PAIRING,
                                        pairing_text=text)
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("no paired runtime check", findings[0].message)
        self.assertIn("MonitorService::ComputeStatus", findings[0].message)


class LocksFixtureTest(unittest.TestCase):
    """The 15 seeded locks violations (and the clean constructs around
    them), pinned by unique substrings."""

    ROOT = os.path.join(TESTDATA, "locks")
    BAD_RANKS = os.path.join(ROOT, "src", "monitor", "bad_ranks.h")
    INVERSION = os.path.join(ROOT, "src", "monitor", "inversion.cc")
    BLOCKING = os.path.join(ROOT, "src", "monitor", "blocking.cc")
    COVERAGE = os.path.join(ROOT, "src", "monitor", "coverage.h")

    @classmethod
    def setUpClass(cls):
        cls.findings = checks.check_locks(parse(*files_under(cls.ROOT)),
                                          cls.ROOT)

    def at(self, path, needle):
        line = line_of(path, needle)
        found = [f for f in self.findings
                 if f.file == path and f.line == line]
        self.assertEqual(len(found), 1,
                         f"{needle!r}: {[f.render() for f in found]}")
        return found[0]

    def assert_clean(self, path, needle):
        line = line_of(path, needle)
        hits = [f for f in self.findings
                if f.file == path and f.line == line]
        self.assertEqual(hits, [], [f.render() for f in hits])

    def test_exact_finding_count(self):
        self.assertEqual(len(self.findings), 15,
                         [f.render() for f in self.findings])

    # -- rule (a): construction ranks ------------------------------------
    def test_default_rank_flagged(self):
        finding = self.at(self.BAD_RANKS, "Mutex default_mu_;")
        self.assertIn("default rank", finding.message)
        self.assertIn("default_mu_", finding.message)

    def test_numeric_literal_rank_flagged(self):
        finding = self.at(self.BAD_RANKS, "literal_mu_{42")
        self.assertIn("numeric rank 42", finding.message)

    def test_unregistered_rank_name_flagged(self):
        finding = self.at(self.BAD_RANKS, "lock_rank::kGhost")
        self.assertIn("kGhost", finding.message)
        self.assertIn("not registered", finding.message)

    def test_function_local_literal_rank_flagged(self):
        finding = self.at(self.BAD_RANKS, 'scratch_mu(7, "scratch")')
        self.assertIn("numeric rank 7", finding.message)

    def test_registered_rank_is_clean(self):
        self.assert_clean(self.BAD_RANKS, 'clean_mu_{lock_rank::kInner')

    # -- rule (b): acquisition order -------------------------------------
    def test_lexical_inversion_flagged(self):
        finding = self.at(self.INVERSION, "then_outer(&outer_mu_)")
        self.assertIn("strictly rank-increasing", finding.message)

    def test_equal_rank_nesting_flagged(self):
        finding = self.at(self.INVERSION, "second(&also_outer_mu_)")
        self.assertIn("strictly rank-increasing", finding.message)

    def test_transitive_inversion_carries_the_call_chain(self):
        finding = self.at(self.INVERSION, "TakeOuter() { MutexLock")
        self.assertIn("strictly rank-increasing", finding.message)
        self.assertTrue(any("ChainInversion" in hop for hop in
                            finding.chain), finding.chain)

    def test_increasing_nesting_is_clean(self):
        line = line_of(self.INVERSION, "void CleanNesting")
        clean = [f for f in self.findings
                 if f.file == self.INVERSION and abs(f.line - line) <= 3]
        self.assertEqual(clean, [], [f.render() for f in clean])

    # -- rule (c): blocking under a lock ---------------------------------
    def test_wait_with_another_lock_held_flagged(self):
        # line_of returns the first occurrence — the one inside
        # WaitUnderOther; WaitClean's identical wait comes later.
        finding = self.at(self.BLOCKING, "cv_.Wait(&inner_mu_);")
        self.assertIn("blocking wait must hold only the waited mutex",
                      finding.message)

    def test_wait_on_the_only_held_lock_is_clean(self):
        line = line_of(self.BLOCKING, "void WaitClean")
        clean = [f for f in self.findings
                 if f.file == self.BLOCKING and 0 < f.line - line <= 3]
        self.assertEqual(clean, [], [f.render() for f in clean])

    def test_direct_poll_under_lock_flagged(self):
        finding = self.at(self.BLOCKING, "endpoint->Poll(0)")
        self.assertIn("SnapshotEndpoint::Poll", finding.message)
        self.assertIn("is held", finding.message)

    def test_direct_fanout_under_lock_flagged(self):
        finding = self.at(self.BLOCKING, "pool->ParallelFor(4)")
        self.assertIn("ThreadPool::ParallelFor", finding.message)

    def test_transitive_blocking_carries_the_call_chain(self):
        finding = self.at(self.BLOCKING, "pool->ParallelFor(2)")
        self.assertIn("ThreadPool::ParallelFor", finding.message)
        self.assertTrue(any("TransitiveBlocking" in hop for hop in
                            finding.chain), finding.chain)

    def test_justified_lock_ok_is_clean(self):
        line = line_of(self.BLOCKING, "this mock endpoint returns")
        clean = [f for f in self.findings
                 if f.file == self.BLOCKING and abs(f.line - line) <= 1]
        self.assertEqual(clean, [], [f.render() for f in clean])

    def test_empty_lock_ok_reason_flagged(self):
        finding = self.at(self.BLOCKING, "lock-ok()")
        self.assertIn("non-empty reason", finding.message)

    # -- rule (d): GUARDED_BY coverage -----------------------------------
    def test_unannotated_member_flagged(self):
        finding = self.at(self.COVERAGE, "int unguarded_counter_")
        self.assertIn("no GUARDED_BY annotation", finding.message)
        self.assertIn("unguarded_counter_", finding.message)

    def test_empty_guard_ok_reason_flagged(self):
        finding = self.at(self.COVERAGE, "guard-ok()")
        self.assertIn("non-empty reason", finding.message)

    def test_guard_naming_a_non_member_mutex_flagged(self):
        finding = self.at(self.COVERAGE, "LQS_GUARDED_BY(phantom_mu_)")
        self.assertIn("phantom_mu_", finding.message)
        self.assertIn("not a mutex member", finding.message)

    def test_exempt_members_are_clean(self):
        for needle in ("guarded_counter_ LQS_GUARDED_BY(cover_mu_)",
                       "int excused_counter_",
                       "const int frozen_limit_",
                       "static int shared_default_",
                       "std::atomic<int> atomic_counter_"):
            self.assert_clean(self.COVERAGE, needle)


class DeterminismFixtureTest(unittest.TestCase):
    """The 10 seeded determinism violations (and the clean constructs
    around them), pinned by unique substrings."""

    FIXTURE = os.path.join(TESTDATA, "determinism_fixture.cc")

    @classmethod
    def setUpClass(cls):
        cls.findings = checks.check_determinism(parse(cls.FIXTURE))

    def of_root(self, root):
        return [f for f in self.findings if f"'{root}'" in f.message]

    def test_exact_finding_count(self):
        self.assertEqual(len(self.findings), 10,
                         [f.render() for f in self.findings])

    def test_direct_wall_clock_flagged(self):
        (finding,) = self.of_root("WallClockDirect")
        self.assertIn("reads the wall clock", finding.message)
        self.assertIn("VirtualClock is the sanctioned time source",
                      finding.message)

    def test_transitive_wall_clock_carries_the_chain(self):
        (finding,) = self.of_root("WallClockTransitive")
        self.assertIn("'NowHelper'", finding.message)
        self.assertTrue(any("WallClockTransitive" in hop for hop in
                            finding.chain), finding.chain)

    def test_c_time_api_flagged(self):
        (finding,) = self.of_root("TimeCall")
        self.assertIn("wall clock", finding.message)

    def test_std_rand_flagged(self):
        (finding,) = self.of_root("RandCall")
        self.assertIn("nondeterministic randomness", finding.message)
        self.assertIn("seeded lqs::Rng is the sanctioned source",
                      finding.message)

    def test_random_device_flagged(self):
        (finding,) = self.of_root("EntropyDraw")
        self.assertIn("random_device", finding.message)

    def test_environment_read_flagged(self):
        (finding,) = self.of_root("EnvRead")
        self.assertIn("reads the environment", finding.message)

    def test_unordered_range_for_flagged(self):
        (finding,) = self.of_root("UnorderedRangeFor")
        self.assertIn("unordered container 'hash_index'", finding.message)
        self.assertIn("hash seed", finding.message)

    def test_unordered_begin_flagged(self):
        (finding,) = self.of_root("UnorderedBegin")
        self.assertIn("unordered container 'hash_index'", finding.message)

    def test_pointer_keyed_iteration_flagged(self):
        (finding,) = self.of_root("PtrKeyedIteration")
        self.assertIn("pointer-keyed container 'ptr_ranks'",
                      finding.message)
        self.assertIn("allocation addresses", finding.message)

    def test_empty_det_ok_reason_flagged(self):
        line = line_of(self.FIXTURE, "det-ok()")
        (finding,) = [f for f in self.findings if f.line == line]
        self.assertIn("non-empty reason", finding.message)

    def test_clean_roots_have_no_findings(self):
        for root in ("JustifiedDetOk", "SanctionedSources",
                     "OrderedIteration", "ThroughVirtualTime",
                     "UnmarkedHazards"):
            self.assertEqual(self.of_root(root), [],
                             f"clean root flagged: {root}")


class DeterminismRequiredRootsTest(unittest.TestCase):
    """The LQS_DETERMINISTIC required-root contract against the real
    headers: present today, and reverting any marker is a finding."""

    HEADERS = [
        os.path.join(REPO_ROOT, "src", "lqs", "estimator.h"),
        os.path.join(REPO_ROOT, "src", "lqs", "bounds.h"),
        os.path.join(REPO_ROOT, "src", "remote", "wire.h"),
        os.path.join(REPO_ROOT, "src", "monitor", "monitor_service.h"),
    ]

    def findings_with(self, read_text=None):
        model, errors = frontend_lite.parse_files(list(self.HEADERS),
                                                  read_text=read_text)
        self.assertEqual(errors, [])
        return checks.check_determinism(
            model, required=checks.REQUIRED_DETERMINISTIC)

    def strip_marker(self, suffix, before, after):
        def read_text(path):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith(suffix):
                new = text.replace(before, after)
                assert new != text, f"revert pattern missed in {suffix}"
                return new
            return text
        return read_text

    def test_every_required_root_is_marked(self):
        findings = self.findings_with()
        self.assertEqual(findings, [], [f.render() for f in findings])

    def test_reverting_the_estimator_marker_is_a_finding(self):
        findings = self.findings_with(self.strip_marker(
            "estimator.h",
            "LQS_NOALLOC LQS_DETERMINISTIC void EstimateInto",
            "LQS_NOALLOC void EstimateInto"))
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("missing its LQS_DETERMINISTIC marker",
                      findings[0].message)
        self.assertIn("ProgressEstimator::EstimateInto",
                      findings[0].message)

    def test_reverting_a_wire_marker_is_a_finding(self):
        findings = self.findings_with(self.strip_marker(
            "wire.h",
            "LQS_DETERMINISTIC\nStatusOr<PollResponse> DecodePollResponse",
            "StatusOr<PollResponse> DecodePollResponse"))
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("'DecodePollResponse'", findings[0].message)

    def test_reverting_a_fused_codec_marker_is_a_finding(self):
        for before, name in (
                ("LQS_DETERMINISTIC\nStatus EncodeDeltaResponse",
                 "EncodeDeltaResponse"),
                ("LQS_DETERMINISTIC\nvoid EncodeSnapshotResponse",
                 "EncodeSnapshotResponse"),
                ("LQS_DETERMINISTIC\nStatus CheckSnapshotDelta",
                 "CheckSnapshotDelta"),
                ("LQS_DETERMINISTIC\nvoid ApplyOperatorDelta",
                 "ApplyOperatorDelta")):
            findings = self.findings_with(self.strip_marker(
                "wire.h", before, before[len("LQS_DETERMINISTIC\n"):]))
            self.assertEqual(len(findings), 1,
                             [f.render() for f in findings])
            self.assertIn(f"'{name}'", findings[0].message)

    def test_reverting_the_monitor_marker_is_a_finding(self):
        findings = self.findings_with(self.strip_marker(
            "monitor_service.h",
            "LQS_NOALLOC LQS_DETERMINISTIC void ComputeStatus",
            "LQS_NOALLOC void ComputeStatus"))
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("MonitorService::ComputeStatus",
                      findings[0].message)


class NoallocRequiredRootsTest(unittest.TestCase):
    """The LQS_NOALLOC required-root contract, symmetric to the
    determinism one: the zero-allocation estimate paths keep their
    markers, and reverting one is a finding on whole-tree runs."""

    HEADERS = [
        os.path.join(REPO_ROOT, "src", "lqs", "estimator.h"),
        os.path.join(REPO_ROOT, "src", "lqs", "bounds.h"),
    ]

    def findings_with(self, read_text=None):
        model, errors = frontend_lite.parse_files(list(self.HEADERS),
                                                  read_text=read_text)
        self.assertEqual(errors, [])
        # No pairing file here: this exercises the required-root half of
        # check_noalloc in isolation (PairingTest covers the other half).
        return checks.check_noalloc(
            model, required=checks.REQUIRED_NOALLOC)

    def strip_marker(self, suffix, before, after):
        def read_text(path):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith(suffix):
                new = text.replace(before, after)
                assert new != text, f"revert pattern missed in {suffix}"
                return new
            return text
        return read_text

    def test_every_required_root_is_marked(self):
        findings = self.findings_with()
        self.assertEqual(findings, [], [f.render() for f in findings])

    def test_reverting_the_estimator_marker_is_a_finding(self):
        findings = self.findings_with(self.strip_marker(
            "estimator.h",
            "LQS_NOALLOC LQS_DETERMINISTIC void EstimateInto",
            "LQS_DETERMINISTIC void EstimateInto"))
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("missing its LQS_NOALLOC marker",
                      findings[0].message)
        self.assertIn("ProgressEstimator::EstimateInto",
                      findings[0].message)


class LocksAnnotationRevertTest(unittest.TestCase):
    """Reverting a MonitorService stats annotation must be a coverage
    finding (the acceptance scenario for the locks checker)."""

    MONITOR = os.path.join(REPO_ROOT, "src", "monitor",
                           "monitor_service.h")
    # mutex.h contributes the lock_rank registry the fixture ranks
    # resolve against.
    MUTEX = os.path.join(REPO_ROOT, "src", "common", "mutex.h")

    def test_annotated_header_is_clean(self):
        findings = checks.check_locks(parse(self.MONITOR, self.MUTEX),
                                      REPO_ROOT)
        self.assertEqual(findings, [], [f.render() for f in findings])

    def test_reverting_a_guard_annotation_is_a_finding(self):
        def read_text(path):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith("monitor_service.h"):
                new = text.replace(
                    "MonitorStats published_ LQS_GUARDED_BY(stats_mu_);",
                    "MonitorStats published_;")
                assert new != text, "revert pattern missed"
                return new
            return text

        model, errors = frontend_lite.parse_files(
            [self.MONITOR, self.MUTEX], read_text=read_text)
        self.assertEqual(errors, [])
        findings = checks.check_locks(model, REPO_ROOT)
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("no GUARDED_BY annotation", findings[0].message)
        self.assertIn("published_", findings[0].message)


class LayeringFixtureTest(unittest.TestCase):
    ROOT = os.path.join(TESTDATA, "layering")

    def test_seeded_upward_includes_are_the_only_findings(self):
        files = files_under(self.ROOT)
        findings = checks.check_layering(parse(*files), self.ROOT)
        self.assertEqual(len(findings), 2,
                         [f.render() for f in findings])
        by_file = {f.file: f for f in findings}
        bad = os.path.join(self.ROOT, "src", "common", "clock.h")
        self.assertEqual(by_file[bad].line, line_of(bad, "lqs/progress.h"))
        self.assertIn("may not include 'lqs/progress.h'",
                      by_file[bad].message)
        # The analysis layer may reach down to lqs/ (that include is clean)
        # but not up to monitor/.
        robust = os.path.join(self.ROOT, "src", "analysis", "robust.h")
        self.assertEqual(by_file[robust].line,
                         line_of(robust, "monitor/service.h"))
        self.assertIn("may not include 'monitor/service.h'",
                      by_file[robust].message)


class CycleFixtureTest(unittest.TestCase):
    ROOT = os.path.join(TESTDATA, "cycle")

    def test_include_cycle_reported_once(self):
        alpha = os.path.join(self.ROOT, "src", "common", "alpha.h")
        beta = os.path.join(self.ROOT, "src", "common", "beta.h")
        findings = checks.check_layering(parse(alpha, beta), self.ROOT)
        self.assertEqual(len(findings), 1,
                         [f.render() for f in findings])
        self.assertIn("include cycle:", findings[0].message)
        self.assertIn("alpha.h", findings[0].message)
        self.assertIn("beta.h", findings[0].message)


class LayerConfigTest(unittest.TestCase):
    def test_default_layers_are_acyclic(self):
        self.assertIsNone(checks._config_cycle(checks.DEFAULT_LAYERS))

    def test_cyclic_config_is_reported(self):
        layers = {"a": {"b"}, "b": {"a"}}
        cycle = checks._config_cycle(layers)
        self.assertEqual(cycle, ["a", "b"])


class DriverTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        self.assertEqual(
            lqs_verify.run(["--root", REPO_ROOT]), 0)

    def test_fixture_violations_exit_nonzero(self):
        code = lqs_verify.run(
            ["--root", TESTDATA, "--checks", "status", "--no-pairing",
             os.path.join(TESTDATA, "status_fixture.cc")])
        self.assertEqual(code, 1)

    def test_locks_fixture_corpus_exits_nonzero(self):
        code = lqs_verify.run(
            ["--root", os.path.join(TESTDATA, "locks"), "--checks",
             "locks"])
        self.assertEqual(code, 1)

    def test_determinism_fixture_exits_nonzero(self):
        code = lqs_verify.run(
            ["--root", TESTDATA, "--checks", "determinism",
             os.path.join(TESTDATA, "determinism_fixture.cc")])
        self.assertEqual(code, 1)

    def test_gating_checks_pass_on_the_real_tree(self):
        # The CI gate: locks + determinism alone, whole tree, exit 0.
        self.assertEqual(
            lqs_verify.run(["--root", REPO_ROOT,
                            "--checks", "locks,determinism"]), 0)

    def test_unknown_check_is_a_usage_error(self):
        self.assertEqual(
            lqs_verify.run(["--root", REPO_ROOT, "--checks", "nope"]), 2)


if __name__ == "__main__":
    unittest.main()
