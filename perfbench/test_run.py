"""Self-tests of the benchmark's own logic: python3 -m unittest perfbench/test_run.py"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 50), 3.0)
        self.assertEqual(run.percentile(values, 100), 5.0)
        self.assertAlmostEqual(run.percentile(values, 95), 4.8)
        self.assertEqual(run.percentile([7.0], 95), 7.0)
        self.assertAlmostEqual(run.percentile(list(range(101)), 95), 95.0)

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.4, 1.1, 2.0, 1.2, 1.3, 0.8, 1.0, 1.6, 1.5]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(10))
        self.assertAlmostEqual(run.tail_percentile(20), 50.0)
        self.assertAlmostEqual(run.tail_percentile(200), 95.0)
        n = 160
        beyond = n - n * run.tail_percentile(n) / 100.0
        self.assertAlmostEqual(beyond, 10.0)


def artifact(experiment, columns, rows):
    return {"experiment": experiment, "columns": columns, "rows": rows}


def result_text(body):
    """A result body as the load generator passes it on."""
    return json.dumps(body)


class Digest(unittest.TestCase):
    def test_excluded_columns_do_not_change_the_digest(self):
        for experiment, excluded in run.EXCLUDED_COLUMNS.items():
            columns = ["app", "l2_misses", *sorted(excluded)]
            row = {"app": "FMM", "l2_misses": 10, **{c: 1.5 for c in excluded}}
            other = {**row, **{c: 99.25 for c in excluded}}
            self.assertEqual(run.digest(experiment, columns, [row]),
                             run.digest(experiment, columns, [other]), experiment)

    def test_kept_columns_change_the_digest(self):
        for experiment in [*run.EXCLUDED_COLUMNS, "fig06"]:
            columns = ["app", "l2_misses", "reorder_s"]
            row = {"app": "FMM", "l2_misses": 10, "reorder_s": 0.1}
            self.assertNotEqual(run.digest(experiment, columns, [row]),
                                run.digest(experiment, columns, [{**row, "l2_misses": 11}]))

    def test_exclusion_list_names_the_wall_clock_columns(self):
        self.assertEqual(run.EXCLUDED_COLUMNS["table2"], {"reorder_s"})
        self.assertEqual(run.EXCLUDED_COLUMNS["table3"], {"reorder_s"})
        self.assertEqual(run.EXCLUDED_COLUMNS["fig08_09"],
                         {"tmk_reordered", "hlrc_reordered", "tmk_gain_pct", "hlrc_gain_pct"})
        for experiment in ("trace_record", "trace_replay"):
            for column in run.EXCLUDED_COLUMNS[experiment]:
                self.assertTrue(column.endswith(("_ms", "_mb_s", "_s")) or column == "corpus")

    def test_digest_depends_on_the_experiment(self):
        row = {"app": "FMM", "x": 1}
        self.assertNotEqual(run.digest("table2", ["app", "x"], [row]),
                            run.digest("table3", ["app", "x"], [row]))


class Directions(unittest.TestCase):
    def test_table3_message_increase_is_flagged(self):
        cols = ["app", "version", "tmk_messages", "hlrc_messages"]
        good = artifact("table3", cols, [
            {"app": "FMM", "version": "original", "tmk_messages": 100, "hlrc_messages": 50},
            {"app": "FMM", "version": "hilbert", "tmk_messages": 10, "hlrc_messages": 49},
        ])
        self.assertEqual(run.direction_failures(good), [])
        bad = artifact("table3", cols, [good["rows"][0], {**good["rows"][1], "hlrc_messages": 50}])
        self.assertEqual(len(run.direction_failures(bad)), 1)

    def test_table2_sequential_misses_may_tie_but_not_grow(self):
        base = {"app": "FMM", "version": "original", "seq_l2_misses": 5, "seq_tlb_misses": 5,
                "par_l2_misses": 9, "par_tlb_misses": 9}
        tie = {**base, "version": "hilbert", "par_l2_misses": 8, "par_tlb_misses": 8}
        self.assertEqual(run.direction_failures(artifact("table2", [], [base, tie])), [])
        grow = {**tie, "seq_tlb_misses": 6}
        self.assertEqual(len(run.direction_failures(artifact("table2", [], [base, grow]))), 1)

    def test_nonpositive_gain_is_flagged(self):
        rows = [{"app": "FMM", "tmk_gain_pct": 10.0, "hlrc_gain_pct": 0.0}]
        self.assertEqual(len(run.direction_failures(artifact("fig08_09", [], rows))), 1)


class TracedConsistency(unittest.TestCase):
    def test_traced_counters_must_equal_the_untraced_pass(self):
        row = {"app": "FMM", "version": "hilbert", "seq_time_s": 1.5, "tmk_messages": 3250,
               "tmk_data_mb": 5.287936, "hlrc_messages": 2618, "hlrc_data_mb": 5.02336}
        res = {"artifacts": {"table3": artifact("table3", list(row), [row])}}
        traced = [{k: v for k, v in row.items() if k != "seq_time_s"}]
        self.assertEqual(run.traced_consistency("dsm", res, traced), [])
        self.assertEqual(len(run.traced_consistency("dsm", res, [{**traced[0], "hlrc_messages": 2619}])), 1)
        self.assertEqual(len(run.traced_consistency("dsm", res, [])), 1)
        self.assertEqual(len(run.traced_consistency("dsm", {"artifacts": {}}, traced)), 1)


class Resubmit(unittest.TestCase):
    def test_a_seed_always_yields_the_same_sequence(self):
        self.assertEqual(run.resubmit_jobs(7), run.resubmit_jobs(7))
        self.assertEqual(run.resubmit_jobs(7, 2), run.resubmit_jobs(7, 2))
        self.assertNotEqual(run.resubmit_jobs(7), run.resubmit_jobs(8))
        self.assertNotEqual(run.resubmit_jobs(7, 0), run.resubmit_jobs(7, 1))

    def test_sequence_shape(self):
        jobs = run.resubmit_jobs(0)
        self.assertEqual(len(jobs), run.RESUBMIT_CLIENTS * run.RESUBMIT_JOBS_PER_CLIENT)
        self.assertTrue({j["experiment"] for j in jobs} <= set(run.RESUBMIT_SPECS))
        for client in range(run.RESUBMIT_CLIENTS):
            mine = [(j["experiment"], j["seed"]) for j in jobs if j["client"] == client]
            # Every spec/seed pair the same number of times: most submissions
            # repeat an earlier one, and every benchmark seed computes the same cells.
            counts = {pair: mine.count(pair) for pair in mine}
            self.assertEqual(len(counts), len(run.RESUBMIT_SPECS) * len(run.RESUBMIT_SPEC_SEEDS))
            self.assertEqual(set(counts.values()), {len(mine) // len(counts)})
            self.assertEqual(mine, [(j["experiment"], j["seed"]) for j in jobs if j["client"] == 0])
        self.assertEqual(sorted(map(str, run.resubmit_jobs(3))), sorted(map(str, jobs)))

    def test_refused_submission_counts_in_the_failed_ratio(self):
        jobs = run.resubmit_jobs(1)[:3]
        body = result_text(artifact("fig06", ["x"], [{"x": 1}]))
        records = [(jobs[0], "ok", 2.0, body), (jobs[1], "refused", 1.0, None),
                   (jobs[2], "ok", 3.0, body)]
        res = run.new_pass()
        run.tally_jobs(jobs, records, res)
        self.assertEqual((res["attempted"], res["failed"]), (3, 1))
        self.assertAlmostEqual(run.ok_ratio(res["attempted"], res["failed"]), 2 / 3)
        self.assertEqual(res["jobs_ms"], [2.0, 1.0, 3.0])

    def test_differing_results_for_identical_jobs_fail(self):
        job = run.resubmit_jobs(1)[0]
        first = result_text(artifact("fig06", ["x"], [{"x": 1}]))
        second = result_text(artifact("fig06", ["x"], [{"x": 2}]))
        res = run.new_pass()
        run.tally_jobs([job, job], [(job, "ok", 1.0, first), (job, "ok", 1.0, second)], res)
        self.assertEqual(res["failed"], 1)

    def test_a_job_that_never_settled_is_failed(self):
        jobs = run.resubmit_jobs(1)[:2]
        res = run.new_pass()
        run.tally_jobs(jobs, [(jobs[0], "ok", 1.0, result_text(artifact("fig06", [], [])))], res)
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))


class Declaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
        with open(path) as f:
            declared = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in declared["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
