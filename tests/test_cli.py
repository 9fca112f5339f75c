import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordlab import cli
from coordlab import coordination_code as cc
from coordlab import instances
from coordlab import oracle as oc
from coordlab import prob_core as pc


def base_spec(**over):
    doc = {
        "schema_version": 1,
        "network": "two_node",
        "alphabets": {"x": 2, "y": 2},
        "source": [0.5, 0.5],
        "target": [[1.0, 0.0], [0.0, 1.0]],
        "delta_grid": [0.0, 0.1, 0.5],
        "n_grid": [1, 2],
        "rates": {"R1_grid": [0.0, 1.0]},
        "monte_carlo": {"samples": 400, "seed": 9},
        "oracle": {"budget": 100000},
    }
    doc.update(over)
    return doc


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestSpecParsing:
    def test_valid_round_trip(self):
        spec = cli.parse_problem_spec(base_spec())
        assert spec.network == "two_node"
        assert spec.delta_grid == (0.0, 0.1, 0.5)
        assert spec.mc_samples == 400

    def test_messages_name_fields(self):
        doc = base_spec(
            source=[0.6, 0.6],
            network="ring",
            schema_version=7,
            bogus=1,
            delta_grid=[0.5, 0.1],
        )
        with pytest.raises(cli.SpecError) as exc:
            cli.parse_problem_spec(doc)
        text = "\n".join(exc.value.messages)
        assert "delta_grid: grid must be sorted ascending" in text
        assert "source:" in text
        assert "network:" in text
        assert "schema_version:" in text
        assert "bogus: unknown field" in text
        # wrong-typed solver fields are named too, not passed to the solver
        tol = "duality_gap_tol must be a positive finite number"
        its = "max_iterations must be an integer >= 1"
        weights = "scalarization_weights must be a non-empty list of numbers"
        for solver, message in (
            ({"duality_gap_tol": "x"}, tol),
            ({"duality_gap_tol": True}, tol),
            ({"max_iterations": 2.5}, its),
            ({"max_iterations": True}, its),
            ({"scalarization_weights": 5}, weights),
            ({"scalarization_weights": []}, weights),
        ):
            with pytest.raises(cli.SpecError) as exc:
                cli.parse_problem_spec(base_spec(solver=solver))
            assert exc.value.messages == [f"solver: {message}"]

    def test_section_messages_exact(self):
        # every sub-object goes through the same checks, in spec order
        doc = base_spec(
            rates=5,
            solver="x",
            monte_carlo={"samples": 0, "seed": -1, "z": 1},
            oracle={"budget": 2.5},
        )
        with pytest.raises(cli.SpecError) as exc:
            cli.parse_problem_spec(doc)
        assert exc.value.messages == [
            "rates: expected an object",
            "solver: expected an object",
            "monte_carlo.z: unknown field",
            "monte_carlo.samples: expected an integer >= 1",
            "monte_carlo.seed: expected an integer >= 0",
            "oracle.budget: expected an integer >= 0",
        ]
        for fields, message in (
            ({"monte_carlo": [400]}, "monte_carlo: expected an object"),
            ({"monte_carlo": {"seed": True}}, "monte_carlo.seed: expected an integer >= 0"),
            ({"oracle": {"budget": -1}}, "oracle.budget: expected an integer >= 0"),
        ):
            with pytest.raises(cli.SpecError) as exc:
                cli.parse_problem_spec(base_spec(**fields))
            assert exc.value.messages == [message]

    def test_both_rate_forms_rejected(self):
        doc = base_spec(rates={"R1": 0.5, "R1_grid": [0.5]})
        with pytest.raises(cli.SpecError, match="R1"):
            cli.parse_problem_spec(doc)

    def test_r2_needs_cascade(self):
        doc = base_spec(rates={"R1": 0.5, "R2": 0.5})
        with pytest.raises(cli.SpecError, match="cascade"):
            cli.parse_problem_spec(doc)

    def test_malformed_json_names_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "network": }')
        rc = cli.main(["region", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "spec error" in err and "line 2" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # json.load refuses int literals past Python's 4,300-digit limit
            (b'"seed": 9', b'"seed": ' + b"9" * 5001, "spec: Exceeds the limit (4300"),
            (b'"two_node"', b'"two\xffnode"', "spec: not UTF-8 at byte"),
            (b'"two_node"', b"[" * 10**5 + b"]" * 10**5, "spec: arrays or objects nested"),
        ],
        ids=["long-integer", "not-utf8", "deep-nesting"],
    )
    def test_unparsable_bytes_exit_two(self, tmp_path, capsys, old, new, message):
        raw = json.dumps(base_spec()).encode()
        assert old in raw
        path = tmp_path / "spec.json"
        path.write_bytes(raw.replace(old, new))
        out = tmp_path / "out"
        rc = cli.main(["region", "--spec", str(path), "--out", str(out)])
        assert rc == cli.EXIT_SCHEMA
        assert f"spec error: {message}" in capsys.readouterr().err
        assert not out.exists()


CASCADE_IDENTITY = dict(
    network="cascade",
    alphabets={"x": 2, "y": 2, "z": 2},
    target=[
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.5]],
    ],
)


# case -> (command, spec fields, the field the message must name); the spec
# JSON carries NaN / Infinity literals, which json.load accepts
NON_FINITE = {
    "delta-nan-region": ("region", {"delta_grid": [0.0, math.nan]}, "delta_grid[1]"),
    "delta-nan-oracle": ("oracle", {"delta_grid": [math.nan]}, "delta_grid[0]"),
    "delta-inf-oracle": ("oracle", {"delta_grid": [0.0, math.inf]}, "delta_grid[1]"),
    "source-nan-region": ("region", {"source": [math.nan, 0.5]}, "source:"),
    "source-nan-oracle": ("oracle", {"source": [math.nan, 0.5]}, "source:"),
    "target-nan": ("region", {"target": [[math.nan, 0.0], [0.0, 1.0]]}, "target:"),
    "r1-grid-nan": (
        "simulate",
        {"rates": {"R1_grid": [0.5, math.nan]}},
        "rates.R1_grid[1]",
    ),
    "r1-inf": ("simulate", {"rates": {"R1": math.inf}}, "rates.R1"),
    "r2-nan": (
        "simulate",
        dict(CASCADE_IDENTITY, rates={"R1": 1.0, "R2": math.nan}),
        "rates.R2",
    ),
    "gap-tol-nan": (
        "region",
        {"solver": {"duality_gap_tol": math.nan}},
        "solver: duality_gap_tol",
    ),
    "gap-tol-inf": (
        "region",
        {"solver": {"duality_gap_tol": math.inf}},
        "solver: duality_gap_tol",
    ),
    "max-iterations-nan": (
        "region",
        {"solver": {"max_iterations": math.nan}},
        "solver: max_iterations",
    ),
    # integers past the float range overflow float(); json.load reads them
    "source-huge-int": ("region", {"source": [10**400, 0.5]}, "source:"),
    "target-huge-int": ("region", {"target": [[10**400, 0.0], [0.0, 1.0]]}, "target:"),
    "r1-grid-huge-int": ("simulate", {"rates": {"R1_grid": [10**400]}}, "rates.R1_grid[0]"),
    "weights-huge-int": (
        "region",
        {"solver": {"scalarization_weights": [0.5, 10**400]}},
        "solver: scalarization weights outside [0, 1]",
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_numbers_rejected(tmp_path, capsys, case):
    command, fields, field = NON_FINITE[case]
    spec = write_spec(tmp_path, base_spec(**fields))
    out = tmp_path / "out"
    rc = cli.main([command, "--spec", spec, "--out", str(out)])
    assert rc == cli.EXIT_SCHEMA
    assert f"spec error: {field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["region", "oracle"])
def test_delta_above_one_rejected(tmp_path, capsys, command):
    # TV never exceeds 1: the library clamps a larger delta with a warning,
    # but in a spec it is an error that names the entry
    spec = write_spec(tmp_path, base_spec(delta_grid=[0.0, 0.5, 1.5]))
    out = tmp_path / "out"
    rc = cli.main([command, "--spec", spec, "--out", str(out)])
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "spec error: delta_grid[2]: expected a finite number in [0, 1]" in err
    assert not out.exists()
    doc = base_spec(delta_grid=[0.0, 1.0])  # 1 itself is a radius
    assert cli.parse_problem_spec(doc).delta_grid == (0.0, 1.0)


SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "specs")


def shipped_specs():
    docs = {}
    for name in sorted(os.listdir(SPEC_DIR)):
        with open(os.path.join(SPEC_DIR, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def leaf_paths(node, path=()):
    """Key paths of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


SHIPPED = shipped_specs()
# what a malformed spec can carry: ints past the float range, non-finite
# floats (json.load accepts NaN and Infinity), short strings and nesting
JUNK_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, -0.0, 2**63, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
JUNK = st.recursive(
    JUNK_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=4,
)
BLOCKS = ["solver", "monte_carlo", "oracle", "output", "rates", "alphabets"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_specs_parse_or_raise_spec_error(data):
    # parsing only: no command runs, whatever sizes a mutation asks for
    doc = copy.deepcopy(SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))])
    paths = list(leaf_paths(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, last = data.draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = data.draw(JUNK)
    if data.draw(st.booleans()):
        doc[data.draw(st.sampled_from(BLOCKS))] = data.draw(JUNK)
    try:
        spec = cli.parse_problem_spec(doc)
    except cli.SpecError as exc:
        assert exc.messages
    else:
        assert isinstance(spec, cli.ProblemSpec)


NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
BAD_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def mutated_spec_bytes(draw):
    """A shipped spec with 1-3 byte-level mutations."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    with open(os.path.join(SPEC_DIR, name), "rb") as fh:
        raw = fh.read()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["digits", "utf8", "truncate", "non-finite"]))
        numbers = list(NUMBER.finditer(raw))
        if kind in ("digits", "non-finite") and numbers:
            span = draw(st.sampled_from(numbers)).span()
            if kind == "digits":
                at = draw(st.integers(*span))
                digit = draw(st.sampled_from([b"%d" % i for i in range(10)]))
                raw = raw[:at] + digit * draw(st.integers(4000, 6000)) + raw[at:]
            else:
                token = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity"]))
                raw = raw[: span[0]] + token + raw[span[1] :]
        elif kind == "utf8":
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw(st.sampled_from(BAD_UTF8)) + raw[at:]
        elif kind == "truncate":
            raw = raw[: draw(st.integers(0, len(raw)))]
    return raw


@settings(max_examples=200, deadline=None)
@given(raw=mutated_spec_bytes())
def test_mutated_spec_bytes_load_or_raise_spec_error(raw):
    # parsing only: no command runs, whatever sizes a mutation asks for
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            spec = cli.load_problem_spec(path)
        except cli.SpecError as exc:
            assert exc.messages
        else:
            assert isinstance(spec, cli.ProblemSpec)


# Sizes for runs come from fixed pools. The small ones finish in
# milliseconds; each hostile one meets a bound before any work is done:
# n >= 10^6 with at least 50 samples is over MAX_HELD_SYMBOLS, and |Y|^n
# is over any budget below 2^n; samples past MAX_SAMPLES and a budget of 0
# are refused outright.
RUN_FIELDS = {
    ("n_grid",): st.lists(st.sampled_from([1, 2, 3, 10**6, 10**9]), min_size=1, max_size=2).map(sorted),
    ("delta_grid",): st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=1, max_size=2).map(sorted),
    ("rates", "R1_grid"): st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10**6]), min_size=1, max_size=2),
    ("rates", "R2"): st.sampled_from([0.0, 0.6, 3.0, 10**6]),
    ("monte_carlo", "samples"): st.sampled_from([50, 200, cc.MAX_SAMPLES + 1]),
    ("monte_carlo", "seed"): st.integers(0, 2**32),
    ("oracle", "budget"): st.sampled_from([0, 40, 1000, 100_000]),
    ("solver", "max_iterations"): st.sampled_from([1, 30, 300]),
    ("source",): st.sampled_from([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]]),
}
# drawn in every example: the grids, the budget and the iteration cap set how
# long a run takes
ALWAYS = [("n_grid",), ("delta_grid",), ("oracle", "budget"), ("solver", "max_iterations")]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_commands_on_mutated_specs_exit_cleanly(data):
    doc = copy.deepcopy(SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))])
    extra = data.draw(st.lists(st.sampled_from(sorted(RUN_FIELDS)), max_size=3))
    for path in ALWAYS + extra:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = data.draw(RUN_FIELDS[path])
    for field_name in ("n_grid", "delta_grid", "rates", "monte_carlo"):
        # one time in ten: Hypothesis draws an integer's lower bound far
        # more often than that, so testing for 0 dropped fields, and ended
        # runs at the spec check, in many more examples
        if data.draw(st.integers(0, 9)) == 9:
            doc.pop(field_name, None)
    command = data.draw(st.sampled_from(["region", "simulate", "oracle"]))
    flags = ["--jobs", "1"] if command == "simulate" else []
    seed = data.draw(st.none() | st.integers(-(2**70), -1) | st.integers(0, 2**70))
    if command != "region" and seed is not None:
        flags += ["--seed", str(seed)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        # the directory, a regular file, or a path under one
        out = data.draw(st.sampled_from([tmp, spec, os.path.join(spec, "out")]))
        with contextlib.redirect_stderr(err):
            rc = cli.main([command, "--spec", spec, "--out", out, *flags])
    assert rc in (cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_GAP, cli.EXIT_PARTIAL), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestRegionCommand:
    def test_identity_frontier(self, tmp_path):
        spec = write_spec(tmp_path, base_spec())
        rc = cli.main(["region", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 0
        raw = (tmp_path / "frontier.csv").read_text()
        assert raw.splitlines()[0].startswith("# columns:")
        rows = read_rows(tmp_path / "frontier.csv")
        assert [r["delta"] for r in rows] == ["0.0", "0.1", "0.5"]
        assert float(rows[0]["R1"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[2]["R1"]) == pytest.approx(0.0, abs=1e-9)
        doc = json.loads((tmp_path / "frontier.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["points"][0]["argmin_conditional"]) == 2

    def test_single_delta_matches_mutual_information(self, tmp_path):
        doc = base_spec(
            source=[0.3, 0.7],
            target=[[0.9, 0.1], [0.2, 0.8]],
            delta_grid=[0.0],
        )
        spec = write_spec(tmp_path, doc)
        assert cli.main(["region", "--spec", spec, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "frontier.csv")
        joint = pc.compose(pc.Pmf([0.3, 0.7]), pc.CondPmf([[0.9, 0.1], [0.2, 0.8]]))
        assert len(rows) == 1
        assert float(rows[0]["R1"]) == pytest.approx(
            pc.mutual_information(joint), abs=1e-7
        )

    def test_cascade_free_radius(self, tmp_path):
        doc = base_spec(
            **CASCADE_IDENTITY,
            delta_grid=[1.0],
            rates={"R1_grid": [1.0], "R2": 1.0},
        )
        spec = write_spec(tmp_path, doc)
        assert cli.main(["region", "--spec", spec, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "frontier.csv")
        for row in rows:
            assert float(row["R1"]) <= 1e-9
            assert float(row["R2"]) <= 1e-9

    @staticmethod
    def ill_conditioned_spec(tmp_path, solver):
        doc = base_spec(
            source=[0.83442136, 0.04017557, 0.12540307],
            alphabets={"x": 3, "y": 3},
            target=[
                [0.01194867, 0.95582632, 0.03222501],
                [0.69300864, 0.08348252, 0.22350884],
                [0.01653146, 0.19299694, 0.7904716],
            ],
            delta_grid=[0.0654],
            solver=solver,
        )
        return write_spec(tmp_path, doc)

    def test_tight_tolerance_reports_gap(self, tmp_path, capsys):
        # the instance certifies at 1e-9 within about 20 iterations; 8 leave
        # its certificate (about 2.6e-4) above the requested tolerance
        spec = self.ill_conditioned_spec(
            tmp_path, {"duality_gap_tol": 1e-9, "max_iterations": 8}
        )
        rc = cli.main(["region", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_GAP
        assert "exceeds tolerance" in capsys.readouterr().err
        # outputs are still written so the run can be inspected
        assert (tmp_path / "frontier.json").exists()

    def test_plateau_reports_gap(self, tmp_path, capsys):
        # at 1e-12 the certificate plateaus near 4e-11 and the solver stops
        # on its stall test, far short of max_iterations
        spec = self.ill_conditioned_spec(tmp_path, {"duality_gap_tol": 1e-12})
        rc = cli.main(["region", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_GAP
        assert "exceeds tolerance" in capsys.readouterr().err
        assert (tmp_path / "frontier.json").exists()


class TestSimulateCommand:
    def test_runs_are_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, base_spec())
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--spec", spec, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--spec", spec, "--out", str(b)]) == 0
        for name in ("simulation.csv", "simulation.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    # sha256 of the simulate outputs on the shipped specs at their seeds:
    # the scan on a packed code (two_node_identity) and on cascade symbol
    # rows (cascade_small)
    GOLDEN = {
        "two_node_identity": {
            "simulation.csv": "0366fb214f6851483e1417ea7a72b7468b298333b26e89c2f50284d63528b9bc",
            "simulation.json": "046928384a9490d2c594c2c3fe56bd67335f96bd134835ae6111421a53ed6754",
        },
        "cascade_small": {
            "simulation.csv": "08f7f3b025b4df38b82ffdc89441897649ff2a92fd0f43acf8c3c9bc0912f99f",
            "simulation.json": "4c57002f927a42c3a6a8a10bcf1db1621ca9eae20922013dcafa17e5dd897654",
        },
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_shipped_specs_golden_bytes(self, tmp_path, name):
        spec = os.path.join(SPEC_DIR, f"{name}.json")
        assert cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)]) == 0
        got = {
            f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in self.GOLDEN[name]
        }
        assert got == self.GOLDEN[name]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        spec = write_spec(tmp_path, base_spec())
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--spec", spec, "--out", str(a), "--jobs", "1"])
        cli.main(["simulate", "--spec", spec, "--out", str(b), "--jobs", "3"])
        assert (a / "simulation.csv").read_bytes() == (b / "simulation.csv").read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = write_spec(tmp_path, base_spec())
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--spec", spec, "--out", str(a)])
        cli.main(["simulate", "--spec", spec, "--out", str(b), "--seed", "10"])
        assert (a / "simulation.csv").read_bytes() != (b / "simulation.csv").read_bytes()

    def test_cells_rebuild_from_recorded_seeds(self, tmp_path):
        doc = base_spec(
            n_grid=[2],
            rates={"R1_grid": [0.0]},
            monte_carlo={"samples": 4000, "seed": 21},
        )
        spec = write_spec(tmp_path, doc)
        assert cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)]) == 0
        cell = json.loads((tmp_path / "simulation.json").read_text())["cells"][0]
        p0 = pc.Pmf([0.5, 0.5])
        target = pc.CondPmf([[1.0, 0.0], [0.0, 1.0]])
        code = cc.build_codebook_code(
            p0, target, 2, rate1=0.0, seed=cell["build_seed"]
        )
        exact = cc.expected_tv_exact(code, p0, pc.compose(p0, target))
        report = cell["report"]
        band = 4 * report["standard_error"] + 1e-12
        assert abs(report["mean_tv"] - exact) <= band

    def test_overflowing_message_set_is_skipped(self, tmp_path, capsys):
        # 2^(64 * 20) messages is past the float range
        spec = write_spec(tmp_path, base_spec(n_grid=[64], rates={"R1": 20.0}))
        rc = cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_PARTIAL
        assert "skipped" in capsys.readouterr().err
        (row,) = read_rows(tmp_path / "simulation.csv")
        assert row["skipped"] == "1"
        assert "float range" in row["reason"]

    def test_oversized_message_set_names_guard(self, tmp_path, capsys):
        # 2^(64 * 15) messages fit a float but not the table cap; the reason
        # gives the count as a power of two, not its 290 digits
        spec = write_spec(tmp_path, base_spec(n_grid=[64], rates={"R1": 15.0}))
        rc = cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_PARTIAL
        assert "skipped" in capsys.readouterr().err
        (row,) = read_rows(tmp_path / "simulation.csv")
        assert row["skipped"] == "1"
        assert row["reason"] == "message set 2^960 exceeds table_cap 67108864"

    def test_hostile_samples_refused(self, tmp_path, capsys, refuse_work, traced):
        # 10^18 samples once ended in a MemoryError traceback
        doc = base_spec(monte_carlo={"samples": 10**18, "seed": 9})
        spec = write_spec(tmp_path, doc)
        rc, peak = traced(lambda: cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)]))
        assert rc == cli.EXIT_SCHEMA and peak < 1 << 20
        assert "monte_carlo.samples: at most MAX_SAMPLES" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "samples, reason",
        [
            (2000, "source symbols 2000000000000 exceed MAX_SAMPLE_SYMBOLS 2^32"),
            (1, "chunk symbols 1000000000 exceed MAX_HELD_SYMBOLS 2^24"),
        ],
    )
    def test_hostile_blocklength_skipped(self, tmp_path, capsys, refuse_work, traced, samples, reason):
        # n = 10^9 at R1 = 0 once drew 8 GB of uniforms for its one codeword
        doc = base_spec(n_grid=[10**9], rates={"R1": 0.0}, monte_carlo={"samples": samples, "seed": 9})
        spec = write_spec(tmp_path, doc)
        rc, peak = traced(lambda: cli.main(["simulate", "--spec", spec, "--out", str(tmp_path)]))
        assert rc == cli.EXIT_PARTIAL and peak < 1 << 20
        assert "skipped" in capsys.readouterr().err
        (row,) = read_rows(tmp_path / "simulation.csv")
        assert row["skipped"] == "1" and row["reason"] == reason

    def test_env_jobs_capped(self, tmp_path, monkeypatch, pool_workers):
        monkeypatch.setattr(cc, "MC_CHUNK", 8)  # 400 samples, 50 chunks
        spec = write_spec(tmp_path, base_spec())
        argv = ["simulate", "--spec", spec, "--out", str(tmp_path), "--jobs", "1000000"]
        assert cli.main(argv) == 0
        assert pool_workers == [cc.MAX_JOBS] * 4


class TestUnusedInputsRefused:
    """The CLI takes only what a command uses."""

    @pytest.mark.parametrize(
        "command, flag",
        [("region", "--jobs"), ("region", "--seed"), ("oracle", "--jobs")],
    )
    def test_flag_a_command_ignores(self, tmp_path, capsys, command, flag):
        spec = write_spec(tmp_path, base_spec())
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--spec", spec, flag, "1"])
        assert exc.value.code == cli.EXIT_SCHEMA
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_output_section_is_unknown(self):
        # output.dir was parsed but never read: the files go to --out
        with pytest.raises(cli.SpecError) as exc:
            cli.parse_problem_spec(base_spec(output={"dir": "elsewhere"}))
        assert exc.value.messages == ["output: unknown field"]


class TestBadFlagsRefused:
    """A negative --seed, or an --out that is not a directory, exits 2 with
    a message naming the flag, before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in [
            (cli.rs, "solve_two_node"),
            (cli.rs, "solve_cascade"),
            (cli.cc, "build_codebook_code"),
            (cli.oc, "theorem_consistency_scan"),
        ]:
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_negative_seed(self, tmp_path, capsys, no_work, command):
        spec = write_spec(tmp_path, base_spec())
        out = tmp_path / "out"
        rc = cli.main([command, "--spec", spec, "--out", str(out), "--seed", "-1"])
        assert rc == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == "spec error: --seed: expected an integer >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["region", "simulate", "oracle"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, no_work, command, under):
        spec = write_spec(tmp_path, base_spec())
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "out" if under else taken
        rc = cli.main([command, "--spec", spec, "--out", str(out)])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: --out: cannot create directory {out}: ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert taken.read_text() == "kept"


class TestOracleCommand:
    def test_scan_identity(self, tmp_path):
        spec = write_spec(tmp_path, base_spec(delta_grid=[0.25, 0.5], n_grid=[1, 2]))
        rc = cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "scan.json").read_text())
        assert doc["flag_count"] == 0
        rows = read_rows(tmp_path / "scan.csv")
        assert len(rows) == 4
        assert all(row["flagged"] == "0" for row in rows)

    def test_zero_budget_partial(self, tmp_path, capsys):
        spec = write_spec(tmp_path, base_spec(oracle={"budget": 0}))
        rc = cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_PARTIAL
        assert "budget" in capsys.readouterr().err

    def test_hostile_blocklength_partial(self, tmp_path, capsys, traced):
        # |Y|^n = 3^(10^9) is over the budget: refused before it is built
        doc = base_spec(
            alphabets={"x": 2, "y": 3},
            target=[[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
            n_grid=[1, 10**9],
            oracle={"budget": 1000},
        )
        spec = write_spec(tmp_path, doc)
        rc, peak = traced(lambda: cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)]))
        assert rc == cli.EXIT_PARTIAL and peak < 1 << 24
        assert "budget 1000 exhausted after 7 codes" in capsys.readouterr().err
        rows = read_rows(tmp_path / "scan.csv")
        assert [row["n"] for row in rows] == ["1"] * 3

    def test_unenumerable_sources_refused(self, tmp_path, capsys):
        # one action symbol: every blocklength has a one-word universe, so
        # the source blocks are what the scan cannot enumerate
        doc = base_spec(alphabets={"x": 2, "y": 1}, target=[[1.0], [1.0]], n_grid=[10**9])
        spec = write_spec(tmp_path, doc)
        rc = cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "spec error: n_grid: 2^1000000000 sequences exceed ENUM_GUARD 4096" in err

    def test_table_past_its_bound_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oc, "MAX_CODE_TABLE", 4**3 - 1)
        spec = write_spec(tmp_path, base_spec(n_grid=[1, 2, 3]))
        assert cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)]) == cli.EXIT_SCHEMA
        assert "exceeds MAX_CODE_TABLE 63" in capsys.readouterr().err

    def test_cascade_not_supported(self, tmp_path, capsys):
        doc = base_spec(
            **CASCADE_IDENTITY,
            rates={"R1_grid": [1.0], "R2": 1.0},
        )
        spec = write_spec(tmp_path, doc)
        rc = cli.main(["oracle", "--spec", spec, "--out", str(tmp_path)])
        assert rc == cli.EXIT_SCHEMA
        assert "network" in capsys.readouterr().err


class TestCheckCommand:
    # the real criteria run in test_acceptance.py; these pin the exit codes
    def test_battery_passes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            instances, "CRITERIA", [(1, "stub", lambda: (True, "fine"))]
        )
        assert cli.main(["check"]) == cli.EXIT_OK
        assert capsys.readouterr().out == "ok   01 stub: fine\n"

    def test_failing_criterion_exits_one(self, monkeypatch, capsys):
        stubs = [(1, "good", lambda: (True, "fine")), (10, "bad", lambda: (False, "off"))]
        monkeypatch.setattr(instances, "CRITERIA", stubs)
        assert cli.main(["check"]) == cli.EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines == ["ok   01 good: fine", "FAIL 10 bad: off"]
        assert "1 criterion(s) failed" in captured.err


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        spec = write_spec(tmp_path, base_spec(delta_grid=[0.5]))
        # the child imports the same package tree as this process
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "coordlab",
                "region",
                "--spec",
                spec,
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "frontier.csv").exists()
