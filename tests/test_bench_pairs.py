"""The pure parts of scripts/bench_pairs.py: quartiles, pair summaries,
verdicts against a bound and the tar extraction on Pythons whose tarfile
has no "data" filter."""

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
