"""Command-line interface tests.

Every run is exercised in process through main(argv) with an --out directory
under tmp_path. Checks cover exit codes (0 success, 2 usage, 3 numeric),
output file schemas, manifest provenance, and byte-level determinism of the
data files across reruns of the same config and seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import tempfile
import time
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import vrjp
import vrjp.cli
from vrjp import BandSample, Trajectory, WeightedGraph, sample_banded
from vrjp.cli import NUMERIC_EXIT, USAGE_EXIT, Run, main

from _oracles import (
    NoDraws,
    reference_sample_batch,
    save_graph,
    time_change_maps,
    two_level_order,
)


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture
def graph_file(tmp_path) -> Path:
    g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.5), (0, 2, 0.5)))
    path = tmp_path / "triangle.json"
    save_graph(g, str(path))
    return path


class TestSampleBeta:
    def test_box_run_writes_positive_samples(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "50",
             "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "beta.csv")
        assert len(rows) == 50
        assert list(rows[0]) == ["beta_0", "beta_1", "beta_2"]
        values = np.array([[float(v) for v in r.values()] for r in rows])
        assert np.all(values > 0)

    def test_graph_file_run(self, tmp_path, graph_file):
        out = tmp_path / "run"
        rc = main(
            ["sample-beta", "--graph", str(graph_file), "--n", "10",
             "--eta", "1.0", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "beta.csv")
        assert len(rows) == 10
        assert list(rows[0]) == ["beta_0", "beta_1", "beta_2"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["sample-beta", "--dim", "2", "--radius", "1", "--n", "20",
                "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "beta.csv").read_bytes() == (out2 / "beta.csv").read_bytes()

    def test_needs_graph_or_box(self, tmp_path):
        rc = main(["sample-beta", "--n", "5", "--out", str(tmp_path / "x")])
        assert rc == USAGE_EXIT

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_is_usage_error(self, tmp_path, graph_file, eta, capsys):
        # a NaN eta would draw every site as if it had no boundary weight
        out = tmp_path / "run"
        rc = main(
            ["sample-beta", "--graph", str(graph_file), "--eta", eta, "--n", "5",
             "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert "eta entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_weight_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--W", "nan", "--n",
             "5", "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert "weight must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_box_refuses_eta(self, tmp_path, monkeypatch, capsys):
        # a box's boundary vector is its wiring, so --eta would be ignored;
        # it is refused before any draw and before any output
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        out = tmp_path / "run"
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--eta", "0.5",
             "--n", "5", "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert "--eta applies to --graph only" in capsys.readouterr().err
        assert not out.exists()


class TestGreen:
    def test_default_box_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["green", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "green.csv")
        # dim 2, radius 1: nine retained vertices plus the boundary state
        assert len(rows) == 10
        assert rows[-1]["vertex"] == "delta"
        assert list(rows[0]) == ["vertex", "beta", "psi", "u", "green_root_row"]
        psis = np.array([float(r["psi"]) for r in rows])
        assert np.all(psis > 0)
        assert float(rows[-1]["psi"]) == 1.0

    def test_summary_reports_bundle_and_residuals(self, tmp_path):
        out = tmp_path / "run"
        assert main(["green", "--seed", "3", "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["command"] == "green"
        assert summary["gamma"] > 0
        assert len(summary["psi"]) == 9
        assert len(summary["hat_g_diagonal"]) == 9
        assert summary["max_residual"] < 1e-9
        assert set(summary["residuals"]) == {
            "hg_block", "full_inverse", "harmonic", "beta_reconstruction",
            "cauchy_schwarz", "gcheck_min_violation", "telescoping",
        }

    def test_root_must_be_retained(self, tmp_path):
        rc = main(
            ["green", "--i0", "1000000", "--seed", "3",
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dim,radius", [(2, 3), (3, 2)])
    def test_band_draw_matches_dense_draw(self, tmp_path, dim, radius):
        # the field is drawn in band storage: beta matches the dense
        # batch-of-one loop in the band sampler's order (R, B) up to
        # rounding, and gamma, the generator's next draw, is the same, so
        # both consumed the same variates
        out = tmp_path / "run"
        argv = ["--dim", str(dim), "--radius", str(radius), "--seed", "5"]
        assert main(["green", *argv, "--out", str(out)]) == 0
        g = vrjp.build_lattice_box(dim, radius + 1, 1.0)
        subset = [v for v in range(g.n) if max(map(abs, g.coords[v])) <= radius]
        rng = vrjp.stream(5, "cli-green")
        params = vrjp.WiredBand.from_graph(g, subset).params()
        want = reference_sample_batch(
            params, 1, rng, order=two_level_order(params.p)
        )[0]
        got = [float(r["beta"]) for r in read_csv(out / "green.csv")[:-1]]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert read_json(out / "summary.json")["gamma"] == float(rng.gamma(0.5, 1.0))

    def test_never_runs_the_dense_sampler(self, tmp_path, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense elimination on a lattice box")

        monkeypatch.setattr(vrjp.betafield, "_schur_loop", dense)
        rc = main(
            ["green", "--dim", "2", "--radius", "2", "--seed", "3",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 0


class TestSimulateVrjp:
    def test_trajectory_schema(self, tmp_path, graph_file):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "vrjp", "--graph", str(graph_file),
             "--horizon", "10", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert list(rows[0]) == ["step", "vertex", "entry_time",
                                 "transformed_time"]
        assert rows[0]["vertex"] == "0"
        assert float(rows[0]["entry_time"]) == 0.0
        entry = np.array([float(r["entry_time"]) for r in rows])
        trans = np.array([float(r["transformed_time"]) for r in rows])
        assert np.all(np.diff(entry) > 0)
        assert np.all(np.diff(trans) > 0)
        # transformed clocks run strictly ahead once local time accrues
        assert np.all(trans[1:] > entry[1:])

    def test_rerun_is_byte_identical(self, tmp_path, graph_file):
        args = ["simulate", "--process", "vrjp", "--graph", str(graph_file),
                "--horizon", "10", "--seed", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv"
        ).read_bytes()

    def test_seed_changes_trajectory(self, tmp_path, graph_file):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            rc = main(
                ["simulate", "--process", "vrjp", "--graph", str(graph_file),
                 "--horizon", "10", "--seed", seed, "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_horizon_required(self, tmp_path, graph_file):
        rc = main(
            ["simulate", "--process", "vrjp", "--graph", str(graph_file),
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_nonfinite_horizon_is_usage_error(self, tmp_path, monkeypatch, horizon):
        # a walk that never reaches its horizon would never return
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        rc = main(
            ["simulate", "--process", "vrjp", "--dim", "1", "--radius", "1",
             "--horizon", horizon, "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_graph_weight_is_usage_error(
        self, tmp_path, monkeypatch, capsys, weight
    ):
        # a NaN wait never reaches the horizon, and a finite graph puts no
        # cap on the walk; the graph is refused before any walk starts
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        graph = tmp_path / "g.json"
        graph.write_text(f'{{"n": 3, "edges": [[0, 1, {weight}], [1, 2, 1.0]]}}')
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "vrjp", "--graph", str(graph),
             "--horizon", "5", "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert "weight must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateErrw:
    def test_trajectory_schema(self, tmp_path, graph_file):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "errw", "--graph", str(graph_file),
             "--steps", "25", "--a", "2.0", "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 26
        assert list(rows[0]) == ["step", "vertex", "entry_time"]
        assert all(r["entry_time"] == "" for r in rows)
        verts = [int(r["vertex"]) for r in rows]
        assert verts[0] == 0
        assert all(0 <= v <= 2 for v in verts)

    def test_steps_required(self, tmp_path, graph_file):
        rc = main(
            ["simulate", "--process", "errw", "--graph", str(graph_file),
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    @pytest.mark.parametrize("a", ["nan", "inf", "-inf", "0"])
    def test_unusable_initial_weight_is_usage_error(self, tmp_path, monkeypatch, a):
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "errw", "--dim", "2", "--radius", "2",
             "--steps", "50", "--a", a, "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert not out.exists()

    def test_walk_beyond_physical_memory_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "errw", "--dim", "2", "--radius", "2",
             "--steps", str(10**15), "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert not out.exists()

    def test_chain_beyond_physical_memory_is_usage_error(self, tmp_path):
        # the environment is drawn, then the chain is refused before it steps
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "quenched", "--dim", "2", "--radius", "2",
             "--steps", str(10**15), "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert not out.exists()


def csv_module_text(fields, columns) -> str:
    """The CSV that csv.writer writes for a Run's fields and columns, each
    cell given as the writer formatted it before the %-template writer: a
    float array's cells and a list's float cells (numpy floats included) in
    .17g, any other cell as it is."""

    def cells(column):
        if isinstance(column, np.ndarray):
            out = column.tolist()
            return [format(x, ".17g") for x in out] if column.dtype.kind == "f" else out
        return [format(x, ".17g") if isinstance(x, float) else x for x in column]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    writer.writerows(zip(*(cells(c) for c in columns)))
    return buf.getvalue()


def written_text(fields, columns) -> str:
    with tempfile.TemporaryDirectory() as out:
        vrjp.cli._write_run(
            "test", "", Path(out), Run({}, 0, "t.csv", fields, columns, "")
        )
        return (Path(out) / "t.csv").read_bytes().decode()


TEXT = st.text(alphabet='a,"\r\n ', max_size=4)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16]),
)
CELLS = st.one_of(
    FLOATS,
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(), TEXT),
    TEXT,
)


@st.composite
def a_column(draw, n_rows):
    kind = draw(st.sampled_from(["float", "int", "bool", "range", "strings", "mixed"]))
    if kind == "float":
        return np.array(draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows)))
    if kind == "int":
        values = st.integers(-(2**63), 2**63 - 1)
        return np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    if kind == "range":
        return range(n_rows)
    if kind == "strings":
        # the labels and blank entry times of the discrete walks
        texts = draw(st.lists(TEXT, min_size=n_rows, max_size=n_rows))
        return np.array(texts, dtype=object)
    return draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows))


class TestCsvWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_csv_module(self, data):
        n_cols = data.draw(st.integers(1, 4))
        n_rows = data.draw(st.integers(0, 12))
        fields = data.draw(st.lists(TEXT, min_size=n_cols, max_size=n_cols))
        cols = [data.draw(a_column(n_rows)) for _ in range(n_cols)]
        block = data.draw(st.sampled_from([1, 2, 3, 5, 1 << 17]))
        with pytest.MonkeyPatch.context() as mp:
            # small blocks split the rows over several templates
            mp.setattr(vrjp.cli, "_BLOCK_CELLS", block)
            assert written_text(fields, cols) == csv_module_text(fields, cols)

    @pytest.mark.parametrize(
        "fields, cols",
        [
            ([""], [[None, "", "a", 1.5]]),
            (["x"], [np.array(["", "a"], dtype=object)]),
            (["x", "y"], [["", None], ["", ""]]),
            (["x"], [[]]),
        ],
        ids=["one-column-empty", "one-column-blank-strings", "two-blank-columns",
             "no-rows"],
    )
    def test_edge_rows(self, fields, cols):
        # csv writes a row whose only cell is empty as "", and no rows as
        # the header alone
        assert written_text(fields, cols) == csv_module_text(fields, cols)

    def test_text_is_never_held_whole(self, tmp_path):
        n = 10**6
        rng = np.random.default_rng(0)
        run = Run(
            {}, 0, "t.csv", ["step", "vertex", "entry_time", "transformed_time"],
            [np.arange(n), rng.integers(0, 10**6, n), rng.random(n),
             1e3 * rng.standard_normal(n)],
            "",
        )
        tracemalloc.start()
        try:
            vrjp.cli._write_run("test", "", tmp_path, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "t.csv").stat().st_size / 4


VRJP_RUN = ["--process", "vrjp", "--dim", "2", "--radius", "3",
            "--horizon", "200", "--seed", "3"]


class TestTrajectoryBytes:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--process", "errw", "--dim", "2", "--radius", "10",
              "--steps", "200000", "--seed", "7"],
             "d9e4572671fd6ff182b650909d2d94683ffc861910582c6e1a7c100bc1cb07ed"),
            # taken again when the D column came from the walk's own waits
            # instead of differences of its entry times (see below), and
            # again when the walk drew its waits and picks a chunk at a time
            (VRJP_RUN,
             "ad6a3cd44b0560080d5bd4710696ec569450bed8f8adfc3e1a4664cd780d2b60"),
            # taken again when the band draw became two-level
            (["--process", "quenched", "--dim", "2", "--radius", "2",
              "--steps", "2000", "--seed", "3"],
             "aab4aa2398c61551ce1c92e2335ab9df8a9942cf9fb7b820f22c27c16d0c8c97"),
        ],
        ids=["errw", "vrjp", "quenched"],
    )
    def test_bytes_are_pinned(self, tmp_path, argv, digest):
        # digests of the trajectories written before the scalar discrete walk
        # and the column-wise writer
        out = tmp_path / "run"
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        data = (out / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_vrjp_d_column_moved_by_rounding_only(self, tmp_path):
        # each D entry the walk wrote from its own waits is within 1e-12 of
        # the time change rebuilt from the entry times, and some differ from
        # it by rounding
        out = tmp_path / "run"
        assert main(["simulate", *VRJP_RUN, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_bytes().splitlines()
        rows = np.array([line.split(b",")[1:] for line in lines[1:]], dtype=float)
        traj = Trajectory(vertices=rows[:, 0], times=rows[:, 1], horizon=200.0)
        d_map, _ = time_change_maps(traj)
        want = d_map(traj.times)
        assert (np.abs(rows[:, 2] - want) <= 1e-12 * want).all()
        assert (rows[:, 2] != want).any()


# one small run per command, each with the sha256 of its data files and its
# manifest without the timestamps, all taken before the commands shared one
# writer; the green residuals and C2/C3 details are printed from the draws.
# green's data files were taken again when its bundle moved from a second
# Cholesky factor of H_beta to the draw's kept factor: beta and gamma kept
# their bits, and psi, u, the root row and the residuals moved by rounding.
# green's and experiment's data files were taken again when the band draw
# became two-level, which consumes the generator in the order (R, B).
# green.csv was taken again when the bundle stopped storing a symmetrized
# hat_g: the root row is now the root's solved column, and one cell of u and
# of green_root_row moved by an ulp; summary.json kept its bits. green's
# summary.json was taken again when gcheck_min_violation stopped being
# written as -0.0 (4add0d49... before); its other fields kept their bits
RUNS = {
    "sample-beta": (
        ["sample-beta", "--dim", "2", "--radius", "1", "--n", "20", "--seed", "11"],
        {"beta.csv": "33705f25f29ad2aa1eba0e1304f60cb4cf1699f86aa5b8a19032138f60526ee3"},
        {"command": "sample-beta",
         "config": {"W": 1.0, "dim": 2, "n": 20, "radius": 1, "seed": 11},
         "content_hash":
             "9e98f488ea50f90e89b970bbad0ac163e6503ae6fd52f8bf41e7747278f0cb1c",
         "outputs": ["beta.csv"], "seed": 11, "version": "0.1.0"},
    ),
    "green": (
        ["green", "--dim", "2", "--radius", "2", "--seed", "3"],
        {"green.csv": "fdccfc4856bf17565df680f82f451841c9f6282e0db5c1a6d97f8f4a5963a247",
         "summary.json":
             "575267d599de62ead1ed0d00f6fd61d3bada904313a5866f2ca542d0b64dfc3b"},
        {"command": "green",
         "config": {"W": 1.0, "dim": 2, "radius": 2, "seed": 3},
         "content_hash":
             "5bf377381611d74b7e9ef8c9d6b92270ff70589350dbb2618378b12666efa67c",
         "outputs": ["green.csv", "summary.json"], "seed": 3, "version": "0.1.0"},
    ),
    "simulate": (
        ["simulate", "--process", "errw", "--dim", "1", "--radius", "2",
         "--steps", "30", "--seed", "4"],
        {"trajectory.csv":
             "6a27c400de3f49deddc4ac5444792264bf470bd23928b9c1bfd4f17550bc09c8"},
        {"command": "simulate",
         "config": {"W": 1.0, "a": 1.0, "dim": 1, "i0": 0, "process": "errw",
                    "radius": 2, "seed": 4, "steps": 30},
         "content_hash":
             "ffd786cd5ddf6f345eb796eea9801d47e3ee61cfe19c5e1663cc35f0bfaa947a",
         "outputs": ["trajectory.csv"], "seed": 4, "version": "0.1.0"},
    ),
    "verify": (
        ["verify", "--only", "2,3", "--seed", "7"],
        {"verify.csv": "aa1f2f16308139fb81b54a100d1de5bfaf99f09d030a05730d640e3a49626c7f",
         "summary.json":
             "f2bcfc89426258564365b2f21a87cfd21245524a57ff14622fe8b047d5cc918c"},
        {"command": "verify",
         "config": {"only": "2,3", "seed": 7, "tier": "quick"},
         "content_hash":
             "d88559f584e5dbcd2fdc18cb26cecb82cd7cd72fdc395ce9379686716143f13c",
         "outputs": ["verify.csv", "summary.json"], "seed": 7, "version": "0.1.0"},
    ),
    "experiment": (
        ["experiment", "--name", "psi-decay", "--seed", "5"],
        {"experiment.csv":
             "40f114a08ea5b1060a60331be408ffc857f775213612cf06d3fa2acf51f46a1b",
         "summary.json":
             "30a359aa44c2edd75228de457f70739f7cafac1e174fa163e8b75e12b3081fb1"},
        {"command": "experiment",
         "config": {"experiment": "psi-decay", "seed": 5},
         "content_hash":
             "e759f57946b408618a724751119a8c6ef61870261b914eee5ddaf998ebd37a73",
         "outputs": ["experiment.csv", "summary.json"], "seed": 5, "version": "0.1.0"},
    ),
}

MANIFEST_KEYS = {
    "command", "config", "content_hash", "seed", "version", "started",
    "finished", "outputs",
}


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """Each command of RUNS run once, by name: (exit code, output dir)."""
    runs = {}
    for name, (argv, _, _) in RUNS.items():
        out = tmp_path_factory.mktemp(name)
        runs[name] = main([*argv, "--out", str(out)]), out
    return runs


@pytest.mark.parametrize("command", list(RUNS))
class TestCommandOutputs:
    def test_data_bytes_are_pinned(self, command_runs, command):
        rc, out = command_runs[command]
        assert rc == 0
        for name, digest in RUNS[command][1].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_manifest_is_pinned(self, command_runs, command):
        _, out = command_runs[command]
        manifest = read_json(out / "manifest.json")
        assert set(manifest) == MANIFEST_KEYS
        for key in ("started", "finished"):
            manifest.pop(key)
        assert manifest == RUNS[command][2]

    def test_outputs_are_the_files_written(self, command_runs, command):
        _, out = command_runs[command]
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(read_json(out / "manifest.json")["outputs"]) == written


class TestSimulateQuenched:
    def test_wired_box_trajectory(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "quenched", "--dim", "1", "--radius",
             "1", "--steps", "40", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 41
        assert list(rows[0]) == ["step", "vertex", "entry_time"]
        assert all(r["entry_time"] == "" for r in rows)
        labels = {r["vertex"] for r in rows}
        assert labels <= {"0", "1", "2", "3", "4", "delta"}

    def test_solves_two_right_hand_sides_in_all(self, tmp_path, monkeypatch):
        # eta and the root's unit vector, in one solve on the kept factor:
        # the chain reads psi and the root's column of hat_g alone
        solve = vrjp.schrodinger.green_solve_banded
        columns = []

        def counted(sample, rhs):
            columns.append(np.asarray(rhs).reshape(sample.pivots.shape[0], -1).shape[1])
            return solve(sample, rhs)

        monkeypatch.setattr(vrjp.schrodinger, "green_solve_banded", counted)
        rc = main(
            ["simulate", "--process", "quenched", "--dim", "2", "--radius",
             "4", "--steps", "100", "--seed", "2", "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        assert columns == [2]

    def test_rejects_graph_file(self, tmp_path, graph_file):
        rc = main(
            ["simulate", "--process", "quenched", "--graph", str(graph_file),
             "--steps", "10", "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_steps_required(self, tmp_path):
        rc = main(
            ["simulate", "--process", "quenched", "--dim", "1", "--radius",
             "1", "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_root_must_be_retained(self, tmp_path, monkeypatch, capsys):
        # vertex 0 is a corner of the outer box, outside the retained set;
        # the refusal comes before any draw and before any output
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--process", "quenched", "--dim", "2", "--radius",
             "1", "--steps", "10", "--i0", "0", "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert "--i0 must be a retained vertex id" in capsys.readouterr().err
        assert not out.exists()


# the two commands that solve one environment's Green bundle on a wired
# box, here the 121-site box of radius 5
BUNDLE_RUNS = {
    "green": ["green", "--dim", "2", "--radius", "5", "--seed", "3"],
    "quenched": ["simulate", "--process", "quenched", "--dim", "2", "--radius",
                 "5", "--steps", "100", "--seed", "3"],
}


@pytest.mark.parametrize("command", list(BUNDLE_RUNS))
class TestWiredBoxBundle:
    def test_bundle_beyond_physical_memory_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # the memory reported is a page short of the band draw's own count
        # on the 121-site box at bandwidth 11 (124 kB): refused before the
        # band is filled, before any draw and before any output
        def filled(*args, **kwargs):
            raise AssertionError("the band was filled before the refusal")

        need = vrjp.betafield._draw_bytes(121, 11, 2)
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (need - 1) // 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        monkeypatch.setattr(vrjp.betafield.WiredBand, "fill", filled)
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        out = tmp_path / "run"
        assert main([*BUNDLE_RUNS[command], "--out", str(out)]) == USAGE_EXIT
        err = capsys.readouterr().err
        assert "the band draw of 121 sites with its neighbour tables needs" in err
        assert not out.exists()

    def test_draw_with_its_tables_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # the memory reported holds the band draw of the 121-site box, but
        # a page short of the draw with the neighbour tables, 16 bytes on
        # each of 122 x 40 slots, and, for the chain, the rate table's 24
        # more: refused up front, with no draw, where the tables or the
        # rates alone would have been refused only after the draw
        drawn = []

        def counted(*args):
            drawn.append(args)
            return sample_banded(*args)

        draw = vrjp.betafield._draw_bytes(121, 11, 2)
        need = draw + {"green": 16, "quenched": 40}[command] * 122 * 40
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (need - 1) // 4096}
        assert draw < 4096 * fake["SC_PHYS_PAGES"]
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        monkeypatch.setattr(vrjp.cli, "sample_banded", counted)
        out = tmp_path / "run"
        assert main([*BUNDLE_RUNS[command], "--out", str(out)]) == USAGE_EXIT
        assert "neighbour tables needs" in capsys.readouterr().err
        assert not out.exists()
        assert drawn == []

    def test_bundle_is_refused_before_the_box_is_built(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # the d=3 radius-60 box: 123^3 outer vertices fit MAX_VERTICES, but
        # the band draw of its 121^3 sites at bandwidth 121^2, with its
        # neighbour tables, does not fit in memory; refused from the
        # geometry alone, with no graph, no edge arrays and no draw
        def built(*args, **kwargs):
            raise AssertionError("the box was built before the refusal")

        monkeypatch.setattr(vrjp.cli, "build_lattice_box", built)
        monkeypatch.setattr(vrjp.betafield.WiredBand, "from_graph", built)
        monkeypatch.setattr(vrjp.betafield.WiredBand, "box", built)
        monkeypatch.setattr(vrjp.cli, "stream", lambda *key: NoDraws())
        argv = list(BUNDLE_RUNS[command])
        argv[argv.index("--dim") + 1] = "3"
        argv[argv.index("--radius") + 1] = "60"
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == USAGE_EXIT
        err = capsys.readouterr().err
        assert "the band draw of 1771561 sites with its neighbour tables needs" in err
        assert not out.exists()

    def test_forms_no_dense_marginal(self, tmp_path, monkeypatch, command):
        # W reaches the bundle, the check and the chain as the box's
        # neighbour tables: the dense marginal is never formed
        def dense(*args, **kwargs):
            raise AssertionError("a dense marginal was formed")

        monkeypatch.setattr(vrjp.betafield.WiredBand, "params", dense)
        assert main([*BUNDLE_RUNS[command], "--out", str(tmp_path / "run")]) == 0

    def test_factors_each_environment_once(self, tmp_path, monkeypatch, command):
        # the bundle solves on the factor the draw kept: no Cholesky and no
        # dense solve runs
        def second_factor(*args, **kwargs):
            raise AssertionError("a drawn environment was factored again")

        monkeypatch.setattr(scipy.linalg, "cho_factor", second_factor)
        monkeypatch.setattr(np.linalg, "cholesky", second_factor)
        monkeypatch.setattr(np.linalg, "solve", second_factor)
        assert main([*BUNDLE_RUNS[command], "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize(
    "argv",
    [["green"], ["simulate", "--process", "quenched", "--steps", "1000"]],
    ids=["green", "quenched"],
)
def test_bundle_peak_is_inside_the_size_limit(tmp_path, argv):
    # the whole command's traced peak on the 1,681-site box stays below half
    # of one dense (m + 1)^2 array (it reads 0.32 for green and 0.39 for the
    # chain), so a dense copy added to the bundle or to its readers shows
    # here: the refusals count the band draw, the neighbour tables and the
    # chain's rate table, and no dense array
    m = 41**2
    tracemalloc.start()
    try:
        rc = main([*argv, "--dim", "2", "--radius", "20", "--seed", "3",
                   "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 0.5 * 8 * (m + 1) ** 2


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    rc = main(["verify", "--quick", "--seed", "7", "--out", str(out)])
    return rc, out


class TestVerifyCommand:
    def test_quick_tier_passes(self, quick_run):
        rc, out = quick_run
        assert rc == 0
        rows = read_csv(out / "verify.csv")
        assert len(rows) == 13
        assert [int(r["criterion"]) for r in rows] == list(range(1, 14))
        assert all(r["status"] in ("PASS", "DIAG") for r in rows)

    def test_identity_residuals_listed(self, quick_run):
        _, out = quick_run
        detail = read_csv(out / "verify.csv")[0]["detail"]
        residuals = re.findall(r"(\w+) (\d\.\d{2}e[+-]\d{2})", detail)
        assert {name for name, _ in residuals} == {
            "hg_block", "full_inverse", "harmonic", "beta_reconstruction",
            "cauchy_schwarz", "gcheck_min_violation", "telescoping",
        }
        assert all(float(v) <= 1e-9 for _, v in residuals)

    def test_summary_and_manifest(self, quick_run):
        rc, out = quick_run
        summary = read_json(out / "summary.json")
        assert summary["command"] == "verify"
        assert summary["tier"] == "quick"
        assert len(summary["rows"]) == 13
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "verify"
        assert manifest["seed"] == 7
        assert sorted(manifest["outputs"]) == ["summary.json", "verify.csv"]

    def test_only_subset(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["verify", "--only", "1,4", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "verify.csv")
        assert [int(r["criterion"]) for r in rows] == [1, 4]

    def test_only_rerun_is_byte_identical(self, tmp_path):
        args = ["verify", "--only", "1", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "verify.csv").read_bytes() == (
            out2 / "verify.csv"
        ).read_bytes()

    def test_unknown_criterion_id(self, tmp_path):
        rc = main(["verify", "--only", "99", "--out", str(tmp_path / "x")])
        assert rc == USAGE_EXIT

    def test_parallelism_flag_is_usage_error(self, tmp_path):
        rc = main(
            ["verify", "--only", "1", "--parallelism", "2",
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT


class TestExperimentCommand:
    def test_named_experiment(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["experiment", "--name", "conductance-ratio", "--seed", "6",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "experiment.csv")
        assert list(rows[0]) == ["ell", "mean", "stderr", "n"]
        summary = read_json(out / "summary.json")
        assert summary["command"] == "experiment"
        assert summary["config"] == {"experiment": "conductance-ratio", "seed": 6}

    def test_config_file_run(self, tmp_path):
        cfg = {"experiment": "psi-decay", "dim": 2, "w": 0.2,
               "radii": [2, 3], "n_samples": 8, "seed": 9}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = main(
            ["experiment", "--config", str(cfg_path), "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "experiment.csv")
        assert [int(r["radius"]) for r in rows] == [2, 3]
        med = [float(r["median"]) for r in rows]
        assert med[1] < med[0]

    def test_non_positive_definite_psi_solve_is_numeric_failure(
        self, tmp_path, monkeypatch
    ):
        # a band draw whose pivots are all zero, as for beta = 0, where the
        # banded H = -P is not positive definite: a factorization failure,
        # exit 3, not the usage error a bare LinAlgError (a ValueError) would
        # give
        def not_positive_definite(band, eta, rng):
            zeros = np.zeros(len(eta))
            return BandSample(
                beta=zeros, psd_certificate=False, rows=np.zeros((0, 1)), pivots=zeros
            )

        monkeypatch.setattr(vrjp.harness, "sample_banded", not_positive_definite)
        rc = main(
            ["experiment", "--name", "psi-decay", "--out", str(tmp_path / "run")]
        )
        assert rc == NUMERIC_EXIT

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "psi-decay", "bogus": 1}))
        rc = main(
            ["experiment", "--config", str(cfg_path),
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_config_round_trip(self, tmp_path):
        raw = {"experiment": "psi-decay", "seed": 3, "dim": 2, "radii": [2, 3],
               "n_samples": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert read_json(out / "summary.json")["config"] == raw
        manifest = read_json(out / "manifest.json")
        assert manifest["config"] == raw and manifest["seed"] == 3

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"experiment": "x", "turbo": True}, "unknown config keys"),
            ({"seed": 1}, "config needs an 'experiment' name"),
            # the knob is gone: any parallelism is an unknown key
            ({"experiment": "x", "parallelism": 2}, "unknown config keys"),
            (["experiment"], "config must be a JSON object"),
        ],
        ids=["unknown-key", "no-experiment", "parallelism", "not-an-object"],
    )
    def test_config_is_refused(self, tmp_path, capsys, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert rc == USAGE_EXIT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"experiment": "psi-decay", "radii": 5}, "'radii'"),
            ({"experiment": "psi-decay", "seed": [1]}, "'seed'"),
            ({"experiment": "conductance-ratio", "ells": 4}, "'ells'"),
            ({"experiment": "vrjp-diffusion", "n_walks": None}, "'n_walks'"),
            ({"experiment": "cosh-moment", "graph": 5}, "'graph'"),
            # a string is not iterated as digits, a count is not truncated,
            # and a bool is not a number
            ({"experiment": "psi-decay", "radii": "24"}, "'radii'"),
            ({"experiment": "psi-decay", "n_samples": 2.9}, "'n_samples'"),
            ({"experiment": "psi-decay", "seed": True}, "'seed'"),
        ],
        ids=["radii-number", "seed-list", "ells-number", "walks-null", "graph-number",
             "radii-string", "samples-float", "seed-bool"],
    )
    def test_wrong_typed_value_is_usage_error(self, tmp_path, capsys, raw, key):
        # a TypeError traceback and exit 1 before: now a usage error that
        # names the key, and no data file
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert rc == USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("usage error: config key") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": "psi-decay", "n_samples": 0},
            {"experiment": "conductance-ratio", "n_samples": 0},
            {"experiment": "conductance-ratio", "n_samples": 1},
            {"experiment": "cosh-moment", "n_samples": 0},
            {"experiment": "cosh-moment", "n_samples": 1},
            {"experiment": "vrjp-diffusion", "n_walks": 0},
        ],
        ids=["psi-0", "ratio-0", "ratio-1", "cosh-0", "cosh-1", "diffusion-0"],
    )
    def test_unreportable_count_is_usage_error(self, tmp_path, monkeypatch, capsys, raw):
        # a count with no quantile, mean or standard error to report is
        # refused before any draw, and no NaN row is written
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert rc == USAGE_EXIT
        assert capsys.readouterr().err.startswith("usage error")
        assert not out.exists()

    def test_unknown_name_rejected_by_parser(self, tmp_path):
        rc = main(
            ["experiment", "--name", "nope", "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_needs_config_or_name(self, tmp_path):
        rc = main(["experiment", "--out", str(tmp_path / "x")])
        assert rc == USAGE_EXIT


class TestManifest:
    def test_fields_and_hash_stability(self, tmp_path, graph_file):
        args = ["simulate", "--process", "errw", "--graph", str(graph_file),
                "--steps", "5", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        m1, m2 = read_json(out1 / "manifest.json"), read_json(out2 / "manifest.json")
        assert m1["command"] == "simulate"
        assert m1["version"] == vrjp.__version__
        assert m1["seed"] == 3
        assert m1["outputs"] == ["trajectory.csv"]
        assert len(m1["content_hash"]) == 64
        assert int(m1["content_hash"], 16) >= 0
        # timestamps are the only varying fields across reruns
        for key in ("started", "finished"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_started_is_stamped_before_the_work(self, tmp_path, monkeypatch):
        def slow_suite(*args, **kwargs):
            time.sleep(0.3)
            return []

        monkeypatch.setattr(vrjp.cli, "run_suite", slow_suite)
        out = tmp_path / "run"
        assert main(["verify", "--only", "1", "--out", str(out)]) == 0
        m = read_json(out / "manifest.json")
        span = datetime.fromisoformat(m["finished"]) - datetime.fromisoformat(
            m["started"]
        )
        assert span.total_seconds() >= 0.3

    def test_hash_tracks_input_file_bytes(self, tmp_path):
        g1 = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        g2 = WeightedGraph(n=2, edges=((0, 1, 2.0),))
        hashes = []
        for k, g in enumerate((g1, g2)):
            path = tmp_path / f"g{k}" / "pair.json"
            path.parent.mkdir()
            save_graph(g, str(path))
            out = tmp_path / f"out{k}"
            # identical config dicts except for the referenced file's bytes
            rc = main(
                ["simulate", "--process", "errw", "--graph",
                 str(path.parent / "pair.json"), "--steps", "4",
                 "--seed", "1", "--out", str(out)]
            )
            assert rc == 0
            hashes.append(read_json(out / "manifest.json")["content_hash"])
        assert hashes[0] != hashes[1]

    def test_experiment_hash_tracks_config_graph(self, tmp_path):
        # the same config file names a pair graph whose weight changes
        # between runs; the hash covers the graph file's bytes too
        cfg_path = tmp_path / "cfg.json"
        graph = tmp_path / "g.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "cosh-moment", "graph": str(graph), "n_samples": 50}
        ))
        hashes, means = [], []
        for k, w in enumerate((1.0, 2.0)):
            save_graph(WeightedGraph(n=2, edges=((0, 1, w),)), str(graph))
            out = tmp_path / f"out{k}"
            assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
            hashes.append(read_json(out / "manifest.json")["content_hash"])
            means.append(read_csv(out / "experiment.csv")[0]["mean"])
        assert means[0] != means[1]
        assert hashes[0] != hashes[1]

    def test_hash_tracks_seed(self, tmp_path):
        hashes = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(
                ["sample-beta", "--dim", "1", "--radius", "1", "--n", "5",
                 "--seed", seed, "--out", str(out)]
            ) == 0
            hashes.append(read_json(out / "manifest.json")["content_hash"])
        assert hashes[0] != hashes[1]


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == USAGE_EXIT

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_missing_graph_file(self, tmp_path):
        rc = main(
            ["simulate", "--process", "errw", "--graph",
             str(tmp_path / "absent.json"), "--steps", "5",
             "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_malformed_graph_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        rc = main(
            ["simulate", "--process", "errw", "--graph", str(bad),
             "--steps", "5", "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    def test_unknown_process_rejected_by_parser(self, tmp_path):
        rc = main(
            ["simulate", "--process", "walk", "--out", str(tmp_path / "x")]
        )
        assert rc == USAGE_EXIT

    @pytest.mark.parametrize("count", ["-3", str(10**12)])
    def test_unusable_sample_count_is_usage_error(self, tmp_path, count, capsys):
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", count,
             "--out", str(tmp_path / "run")]
        )
        assert rc == USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "sample" in err
        assert not (tmp_path / "run" / "beta.csv").exists()

    def test_numeric_exit_is_distinct(self):
        assert NUMERIC_EXIT == 3
        assert USAGE_EXIT == 2


class TestOutputDirectory:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("VRJP_OUT", str(target))
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "3",
             "--seed", "1"]
        )
        assert rc == 0
        assert (target / "beta.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VRJP_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "3",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "beta.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VRJP_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "3",
             "--seed", "1"]
        )
        assert rc == 0
        assert (tmp_path / "vrjp-out" / "beta.csv").exists()

    def test_refused_command_leaves_no_directory(self, tmp_path):
        out = tmp_path / "refused"
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "-3",
             "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert not out.exists()

    def test_output_path_that_is_a_file_is_usage_error(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(
            ["sample-beta", "--dim", "1", "--radius", "1", "--n", "3",
             "--out", str(out)]
        )
        assert rc == USAGE_EXIT
        assert out.read_text() == ""
