"""The pure parts of scripts/bench_pairs.py: quartiles, pair summaries,
verdicts against a bound, perfbench's report lines and the tar extraction
on Pythons whose tarfile has no "data" filter."""

import importlib.util
import io
import os
import tarfile

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7}


def test_quartiles_of_several_values():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0
    }
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


def test_setup_environment_records_each_variable_or_none():
    environ = {"PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "2", "HOME": "/home/x"}
    assert bench_pairs.setup_environment(environ) == {
        "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"
    }


def runs_of(side, values):
    return [{"side": side, "metrics": m} for m in values]


def test_summarize_counts_wins_by_direction():
    parent = runs_of("parent", [{"t": 1.0, "ok": 0.9}, {"t": 2.0, "ok": 1.0}, {"t": 3.0, "ok": 1.0}])
    change = runs_of("change", [{"t": 0.5, "ok": 1.0}, {"t": 2.0, "ok": 0.8}, {"t": 2.5, "ok": 1.0}])
    out = bench_pairs.summarize(parent + change, {"t": "lower", "ok": "higher"})
    # ties count for neither side
    assert out["t"]["wins"] == 2 and out["t"]["pairs"] == 3
    assert out["ok"]["wins"] == 1 and out["ok"]["pairs"] == 3
    assert out["t"]["better"] == "lower" and out["ok"]["better"] == "higher"
    assert out["t"]["parent"]["median"] == 2.0 and out["t"]["change"]["median"] == 2.0
    assert (out["t"]["parent"]["min"], out["t"]["parent"]["max"]) == (1.0, 3.0)
    assert (out["t"]["change"]["min"], out["t"]["change"]["max"]) == (0.5, 2.5)


def test_summarize_skips_unequal_pair_counts():
    parent = runs_of("parent", [{"t": 1.0, "x": 1.0}, {"t": 2.0, "x": 2.0}])
    change = runs_of("change", [{"t": 0.5, "x": 1.0}, {"t": 1.5}])
    out = bench_pairs.summarize(parent + change, {"t": "lower", "x": "lower", "absent": "lower"})
    assert set(out) == {"t"}


@pytest.mark.parametrize(
    "parent_values, verdict",
    [((0.195, 0.202, 0.209), "worse past bound"), ((0.150, 0.202, 0.280), "unresolved")],
)
def test_judge_places_the_median_move_against_the_bound(parent_values, verdict):
    # codebook_mc setup_s medians 0.202 s -> 0.257 s (+27 %, bound 0.25),
    # once with the parent's quartiles 3.5 % apart and once 32 % apart
    parent = runs_of("parent", [{"setup_s": v} for v in parent_values])
    change = runs_of("change", [{"setup_s": v} for v in (0.250, 0.257, 0.264)])
    row = bench_pairs.summarize(parent + change, {"setup_s": "lower"})["setup_s"]
    got = bench_pairs.judge(row, 0.25)
    assert got["verdict"] == verdict
    assert got["move"] == pytest.approx(0.055 / 0.202)
    assert got["bound_share"] == pytest.approx(0.055 / 0.202 / 0.25)
    assert got["bound"] == 0.25


@pytest.mark.parametrize(
    "change_value, verdict",
    [(0.999, "within bound"), (0.99, "worse past bound"), (1.0, "within bound")],
)
def test_judge_signs_a_higher_is_better_metric(change_value, verdict):
    parent = runs_of("parent", [{"ok_share": 1.0}] * 3)
    change = runs_of("change", [{"ok_share": change_value}] * 3)
    row = bench_pairs.summarize(parent + change, {"ok_share": "higher"})["ok_share"]
    got = bench_pairs.judge(row, 0.002)
    assert got["verdict"] == verdict
    assert got["move"] == pytest.approx(1.0 - change_value)
    assert got["parent_spread"] == 0.0


@pytest.mark.parametrize(
    "better, change_values, verdict",
    [
        # parent runs 0.150-0.300 s, quartiles 0.175 and 0.275 (+50 % of
        # the median, over the 25 % bound)
        ("lower", (0.100, 0.120, 0.140), "better in every run"),
        ("lower", (0.100, 0.120, 0.160), "unresolved"),  # one change run inside
        ("lower", (0.400, 0.410, 0.420), "unresolved"),  # worse in every run
        ("higher", (0.310, 0.320, 0.330), "better in every run"),
        ("higher", (0.100, 0.310, 0.320), "unresolved"),
    ],
)
def test_judge_verdicts_past_a_wide_parent_spread(better, change_values, verdict):
    parent = runs_of("parent", [{"m": v} for v in (0.150, 0.200, 0.250, 0.300)])
    change = runs_of("change", [{"m": v} for v in change_values + (change_values[-1],)])
    row = bench_pairs.summarize(parent + change, {"m": better})["m"]
    got = bench_pairs.judge(row, 0.25)
    assert got["parent_spread"] > got["bound"]
    assert got["verdict"] == verdict


def test_judge_a_tie_with_the_best_parent_run_is_not_better():
    # the change's slowest run equals the parent's fastest one
    parent = runs_of("parent", [{"m": v} for v in (0.150, 0.200, 0.250, 0.300)])
    change = runs_of("change", [{"m": v} for v in (0.100, 0.120, 0.150, 0.150)])
    row = bench_pairs.summarize(parent + change, {"m": "lower"})["m"]
    assert bench_pairs.judge(row, 0.25)["verdict"] == "unresolved"


@pytest.mark.parametrize("data_filter", [True, False])
def test_untar_with_and_without_the_data_filter(tmp_path, monkeypatch, data_filter):
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        body = b"print('ok')\n"
        info = tarfile.TarInfo("perfbench/run.py")
        info.size = len(body)
        tar.addfile(info, io.BytesIO(body))
    buf.seek(0)
    if not data_filter:
        # as on Python 3.10.0-3.10.11 and 3.11.0-3.11.3: no data_filter, and
        # extractall takes no filter argument
        monkeypatch.delattr(tarfile, "data_filter")
        real = tarfile.TarFile.extractall

        def old_extractall(self, path=".", members=None, *, numeric_owner=False):
            return real(self, path, members, numeric_owner=numeric_owner)

        monkeypatch.setattr(tarfile.TarFile, "extractall", old_extractall)
    bench_pairs.untar(buf, str(tmp_path))
    assert (tmp_path / "perfbench" / "run.py").read_bytes() == b"print('ok')\n"


def claim_row(parent_values, change_values):
    parent = runs_of("parent", [{"battery_ref_s": v} for v in parent_values])
    change = runs_of("change", [{"battery_ref_s": v} for v in change_values])
    return bench_pairs.summarize(parent + change, {"battery_ref_s": "lower"})["battery_ref_s"]


PARENT_S = [1.02, 1.03, 1.04, 1.05, 1.06, 1.06, 1.07, 1.08, 1.09, 1.10]


def test_claim_met():
    # 10 of 10 wins; medians 1.06 -> 0.96, parent quartiles 1.0425 and 1.0775
    row = claim_row(PARENT_S, [v - 0.10 for v in PARENT_S])
    got = bench_pairs.claim(row)
    assert got["met"]
    assert got["gain"] == pytest.approx(0.10)
    assert got["parent_spread"] == pytest.approx(0.035)


def test_claim_not_met_with_too_few_wins():
    # 8 wins, one tie and one loss: the medians still move by 0.10 s
    change = [v - 0.10 for v in PARENT_S[:8]] + [PARENT_S[8], PARENT_S[9] + 0.01]
    row = claim_row(PARENT_S, change)
    assert row["wins"] == 8
    got = bench_pairs.claim(row)
    assert got["gain"] > got["parent_spread"] and not got["met"]


def test_claim_not_met_within_the_parent_spread():
    # 10 of 10 wins by 0.02 s each, against a 0.035 s quartile distance
    row = claim_row(PARENT_S, [v - 0.02 for v in PARENT_S])
    assert row["wins"] == 10
    got = bench_pairs.claim(row)
    assert got["gain"] == pytest.approx(0.02) and not got["met"]


def test_claim_on_a_higher_is_better_metric():
    parent = runs_of("parent", [{"ok_share": v} for v in (0.90, 0.91, 0.92)])
    change = runs_of("change", [{"ok_share": v} for v in (1.0, 1.0, 1.0)])
    row = bench_pairs.summarize(parent + change, {"ok_share": "higher"})["ok_share"]
    got = bench_pairs.claim(row)
    assert got["met"] and got["gain"] == pytest.approx(0.09)


# perfbench's stdout for a 3 s frontier_two_node run, env line shortened
PERFBENCH_STDOUT = """\
{"env": {"seed": 3, "trace": 0, "workload": "frontier_two_node"}}
frontier_two_node solves_per_s = 917.876 1/s (n=2700)
frontier_two_node failed_share = 0 ratio (n=0/2700)
frontier_two_node peak_rss_mb = 46.6914 MB (n=1)
frontier_two_node battery_wall_s = 0.192282 s (n=15)
frontier_two_node battery_ref_s = 0.232154 s (n=15)
{"correct": true, "attempted": 2700, "failed": 0, "metrics": {}}
"""


def test_parse_report_reads_each_line_of_the_workload():
    got = bench_pairs.parse_report(PERFBENCH_STDOUT, "frontier_two_node")
    assert list(got) == ["solves_per_s", "failed_share", "peak_rss_mb", "battery_wall_s",
                         "battery_ref_s"]
    assert got["battery_wall_s"] == {"value": 0.192282, "unit": "s", "n": 15}
    assert got["solves_per_s"] == {"value": 917.876, "unit": "1/s", "n": 2700}
    assert got["failed_share"] == {"value": 0.0, "unit": "ratio", "n": "0/2700"}
    # another workload's lines, the JSON lines and stderr-like text are not read
    assert bench_pairs.parse_report(PERFBENCH_STDOUT, "oracle_scan") == {}
    assert bench_pairs.parse_report("CHECK FAILED: x = 1 s (n=2)\n", "CHECK") == {}


def test_reported_takes_the_pass_wall_and_count():
    run = {"report": bench_pairs.parse_report(PERFBENCH_STDOUT, "frontier_two_node")}
    assert bench_pairs.reported(run) == {"battery_wall_s": 0.192282, "passes": 15}
    assert bench_pairs.reported({"report": {}}) == {}
    assert bench_pairs.reported({}) == {}  # a run recorded before reports were kept


def test_summarize_seed_adds_the_pass_wall_and_count():
    def run(side, ref, wall, passes):
        return {"side": side, "metrics": {"battery_ref_s": ref},
                "report": {"battery_wall_s": {"value": wall, "unit": "s", "n": passes}}}

    runs = [run("parent", 0.22, 0.159, 162), run("change", 0.176, 0.127, 204),
            run("change", 0.175, 0.128, 203), run("parent", 0.221, 0.160, 161)]
    out = bench_pairs.summarize_seed(runs, {"battery_ref_s": "lower"})
    assert list(out) == ["battery_ref_s", "battery_wall_s", "passes"]
    assert out["battery_wall_s"]["wins"] == 2 and out["battery_wall_s"]["better"] == "lower"
    assert out["battery_wall_s"]["change"]["median"] == pytest.approx(0.1275)
    assert out["passes"]["wins"] == 2 and out["passes"]["better"] == "higher"
    assert out["passes"]["parent"]["median"] == 161.5
    # runs without report lines leave the two rows out
    bare = [{"side": r["side"], "metrics": r["metrics"]} for r in runs]
    assert list(bench_pairs.summarize_seed(bare, {"battery_ref_s": "lower"})) == ["battery_ref_s"]
