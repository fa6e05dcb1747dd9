"""Tests of the benchmark's correctness gates and of the replay-fidelity
comparison, on command output in the format `loupe` prints.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The end-to-end fidelity check itself runs in every traced run
(`run.py --trace 1`): the replay's counts must equal these parsed ones.
"""

import copy
import unittest

import run

WARM_SWEEP = """\
swept 116 apps x 3 workloads (348 entries): 0 analyzed, 348 cached, 0 failed (db: d)
engine runs: 0 total (0 framing, 0 feature, 0 bisect)
transfer: 0 feature measurements skipped, 0 runs saved
cache: 348 hits, 0 misses, 0 stale (details: `loupe cache stats --db d`)
static analysis: 464 entries (0 analyzed, 464 cached) under d/static
validated 33 support plans (11 OSes x 3 workloads): 33 valid, 0 invalid, 7 early unlocks (conservative classification)
"""

COLD_MATRIX = """\
swept 116 apps x 3 workloads (348 entries): 0 analyzed, 348 cached, 0 failed (db: d)
engine runs: 0 total (0 framing, 0 feature, 0 bisect)
matrix: 3828 cells (3828 measured, 0 cached) across 33 OS x workload slices
  kerla        health  out-of-the-box  40/116 ( 34%), with plan 116/116 (100%), gain +76
cache: 348 hits, 3828 misses, 0 stale (details: `loupe cache stats --db d`)
"""

GENTESTS_CHECK = """\
gentests: 3828 suites (0 generated, 3828 cached, 0 stale) across 33 OS x workload slices (db: d)
cache: 8004 hits, 0 misses, 0 stale (details: `loupe cache stats --db d`)
"""

COMPARE = "".join(
    f"{w} workload: 116 apps; fleet syscalls: 111 dynamic (54 required); static L0/L1/L2/L3: 1/1/1/1\n"
    "  mean per-app overestimation: 3.57x (L0), 2.74x (L1), 1.93x (L2), 1.15x (L3); "
    "chain dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0: holds for every app\n"
    for w in ("health", "bench", "suite")
)


class ParseCli(unittest.TestCase):
    def test_sweep_counts(self):
        self.assertEqual(
            run.parse_cli("sweep", WARM_SWEEP, ""),
            {
                "analyzed": 0, "cached": 348, "failed": 0,
                "runs_total": 0, "framing_runs": 0, "feature_runs": 0, "bisect_runs": 0,
                "transfer_skips": 0, "saved_runs": 0,
                "cache_hits": 348, "cache_misses": 0, "cache_stale": 0,
                "static_analyzed": 0, "static_cached": 464,
                "plans_valid": 33, "plans_invalid": 0,
            },
        )

    def test_matrix_counts(self):
        parsed = run.parse_cli("matrix", COLD_MATRIX, "")
        self.assertEqual((parsed["matrix_measured"], parsed["matrix_cached"]), (3828, 0))
        self.assertEqual(parsed["cache_misses"], 3828)

    def test_gentests_check_counts(self):
        parsed = run.parse_cli("gentests_check", GENTESTS_CHECK, "")
        self.assertEqual((parsed["generated"], parsed["cached"], parsed["stale"]), (0, 3828, 0))

    def test_compare_chain(self):
        parsed = run.parse_cli("compare", COMPARE, "")
        self.assertEqual((parsed["chain_holds"], parsed["chain_violated"]), (3, 0))

    def test_report_drift(self):
        self.assertEqual(run.parse_cli("report_check", "docs in docs match the database\n", "")["drift"], 0)
        err = "  stale: COMPATIBILITY.md\n  missing: apps/x.md\nloupe: report: 2 file(s) drifted\n"
        self.assertEqual(run.parse_cli("report_check", "", err)["drift"], 2)


class Gates(unittest.TestCase):
    def test_warm_gates_pass_on_a_warm_sweep(self):
        gates = run.Gates()
        run.pipeline_gates("sweep", run.parse_cli("sweep", WARM_SWEEP, ""), True, gates)
        self.assertEqual((gates.attempted, gates.failed), (2, 0))

    def test_a_warm_run_that_measures_fails(self):
        gates = run.Gates()
        run.pipeline_gates("matrix", run.parse_cli("matrix", COLD_MATRIX, ""), True, gates)
        self.assertEqual(gates.failed, 2)  # 3828 measured, 3828 misses

    def test_cold_runs_may_measure(self):
        gates = run.Gates()
        run.pipeline_gates("matrix", run.parse_cli("matrix", COLD_MATRIX, ""), False, gates)
        self.assertEqual(gates.attempted, 0)


def pipe_and_replay():
    sweep = run.parse_cli("sweep", WARM_SWEEP, "")
    compare = run.parse_cli("compare", COMPARE, "")
    namespaces = {"baselines": [348, 0, 0], "plans": [33, 0, 0], "static": [464, 0, 0]}
    pipe = {
        "sweep": {"parsed": sweep, "namespaces": namespaces},
        "compare": {"parsed": compare, "namespaces": None},
    }
    replay = {
        "render_mismatches": 0,
        "stages": {
            "sweep": {"counts": dict(sweep), "namespaces": copy.deepcopy(namespaces)},
            "compare": {"counts": dict(compare), "namespaces": {"static": [464, 0, 0]}},
        },
    }
    return pipe, replay


class Fidelity(unittest.TestCase):
    def setUp(self):
        self.stages = run.STAGES
        run.STAGES = ["sweep", "compare"]

    def tearDown(self):
        run.STAGES = self.stages

    def test_identical_counts_match(self):
        pipe, replay = pipe_and_replay()
        gates = run.Gates()
        self.assertEqual(run.compare_replay(pipe, replay, gates), 0)
        self.assertEqual(gates.failed, 0)

    def test_a_differing_count_is_a_mismatch(self):
        pipe, replay = pipe_and_replay()
        replay["stages"]["sweep"]["counts"]["static_cached"] = 463
        gates = run.Gates()
        self.assertEqual(run.compare_replay(pipe, replay, gates), 1)
        self.assertEqual(gates.failed, 1)

    def test_differing_namespace_counters_are_a_mismatch(self):
        pipe, replay = pipe_and_replay()
        replay["stages"]["sweep"]["namespaces"]["baselines"] = [347, 1, 0]
        self.assertEqual(run.compare_replay(pipe, replay, run.Gates()), 1)

    def test_a_broken_chain_in_the_replay_is_a_mismatch(self):
        pipe, replay = pipe_and_replay()
        replay["stages"]["compare"]["counts"].update(chain_holds=2, chain_violated=1)
        self.assertEqual(run.compare_replay(pipe, replay, run.Gates()), 2)


if __name__ == "__main__":
    unittest.main()
