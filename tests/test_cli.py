import json
import math

import numpy as np
import pytest

from loopstatics import (
    Bivector6,
    SelfStressState,
    axial_selfstress_basis,
    axial_to_state,
    fundamental_cycles,
    k5_frame,
    serialize_state,
    validate_structure,
    parse_structure,
)
from loopstatics.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k5_path(tmp_path, capsys):
    path = tmp_path / "k5.json"
    code, _, _ = run(capsys, "gen", "k5", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture()
def k5_axial_paths(tmp_path, k5_path):
    """K5's document and its axial state."""
    g = k5_frame()
    basis = fundamental_cycles(g)
    state_path = tmp_path / "ax.json"
    state_path.write_text(serialize_state(axial_to_state(g, basis, axial_selfstress_basis(g)[0])))
    return k5_path, state_path


class TestGen:
    def test_k5_document(self, capsys):
        code, out, _ = run(capsys, "gen", "k5")
        assert code == 0
        g = validate_structure(parse_structure(out))
        assert (g.v, g.e) == (5, 10)

    def test_prism_critical(self, capsys):
        for extra in ((), ("--half-height", "-0.5")):
            code, out, _ = run(capsys, "gen", "prism", "--critical", *extra)
            assert code == 0
            doc = parse_structure(out)
            assert doc.metadata["twist"] == pytest.approx(np.pi / 6, abs=1e-9)
            assert doc.metadata["twist"] == math.pi / 6

    @pytest.mark.parametrize("text", ["-1e5", "-1E+5", "-1.e5", "-.1e6", "-100000"])
    def test_negative_center_in_exponent_form(self, capsys, text):
        """A negative number is a value, not an option flag, in every form
        that float() reads, exponent form included."""
        code, out, err = run(capsys, "gen", "k5", "--center", text, "0", "0")
        assert (code, err) == (0, ""), err
        center = parse_structure(out).nodes[0]
        assert (center.id, center.x, center.y) == ("c", -1e5, 0.0)

    @pytest.mark.parametrize("flag", ["--twist", "--half-height"])
    def test_negative_prism_value_in_exponent_form(self, capsys, flag):
        code, out, err = run(capsys, "gen", "prism", flag, "-1.5e-1")
        assert (code, err) == (0, ""), err
        key = flag[2:].replace("-", "_")
        assert parse_structure(out).metadata[key] == -0.15

    def test_negative_radius_in_exponent_form_reaches_the_range_check(self, capsys):
        code, out, err = run(capsys, "gen", "prism", "--radius", "-1.5e-1")
        assert (code, out, err) == (2, "", "error: radius must be positive\n")

    def test_flat_prism_has_no_critical_twist(self, capsys, tmp_path):
        """At half-height 0 every twist gives s = m = 3: no critical twist."""
        path = tmp_path / "flat.json"
        code, out, err = run(capsys, "gen", "prism", "--critical", "--half-height", "0",
                             "-o", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "half-height" in err
        assert not path.exists()


class TestCycles:
    def test_report_counts(self, capsys, k5_path):
        code, out, _ = run(capsys, "cycles", str(k5_path))
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["cycles"] == 6
        assert report["counts"]["selfstress_dimension"] == 36
        assert len(report["cycles"]) == 6

    def test_byte_identical_runs(self, capsys, k5_path):
        _, out1, _ = run(capsys, "cycles", str(k5_path))
        _, out2, _ = run(capsys, "cycles", str(k5_path))
        assert out1 == out2

    def test_tree_root_flag(self, capsys, k5_path):
        code, out, _ = run(capsys, "cycles", str(k5_path), "--tree-root", "o1")
        assert code == 0
        assert json.loads(out)["tree"]["root"] == "o1"


class TestAxial:
    def test_k5_full_report(self, capsys, k5_path):
        code, out, _ = run(capsys, "axial", str(k5_path))
        assert code == 0
        report = json.loads(out)
        assert report["statics"]["s"] == 1
        assert report["statics"]["m"] == 0
        assert report["statics"]["rank"] == 9
        assert len(report["bar_resultants"]) == 10
        assert all(row["is_axial"] for row in report["axial_check"])
        for row in report["node_residuals"]:
            assert np.linalg.norm(row["force"]) < 1e-12
            assert np.linalg.norm(row["moment"]) < 1e-12

    def test_text_format(self, capsys, k5_path):
        code, out, _ = run(capsys, "axial", str(k5_path), "--format", "text")
        assert code == 0
        assert "s=1 m=0 rank=9" in out


class TestCheck:
    def test_supplied_state_report(self, capsys, tmp_path, k5_path):
        basis = fundamental_cycles(k5_frame())
        state = SelfStressState(
            {c.generator: Bivector6(ih=1.0, jh=-2.0) for c in basis}
        )
        state_path = tmp_path / "state.json"
        state_path.write_text(serialize_state(state))
        code, out, _ = run(capsys, "check", str(k5_path), "--state", str(state_path))
        assert code == 0
        report = json.loads(out)
        for row in report["node_residuals"]:
            assert np.linalg.norm(row["force"]) < 1e-12
            assert np.linalg.norm(row["moment"]) < 1e-12
        # pure moment areas on every loop: not an axial state
        assert not all(row["is_axial"] for row in report["axial_check"])


class TestExport:
    def test_axial_export_writes_both_files(self, capsys, tmp_path, k5_path):
        out_dir = tmp_path / "diag"
        code, out, _ = run(
            capsys, "export", str(k5_path), "--axial",
            "--loops", "cycles", "--share-vertex", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "form.obj").exists()
        assert (out_dir / "force.obj").exists()
        assert (out_dir / "force.obj").read_text().count("o cycle_") == 6

    def test_forceless_axial_loop_is_a_zero_bar(self, capsys, tmp_path, k5_path):
        """A loop that passes the axial test with zero force and a moment
        within tolerance is a Zero Bar: it gets no loop, and no note."""
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
        resultants = dict(state.resultants)
        resultants["o01"] = Bivector6(*[0.0] * 3, 1e-13, -2e-13, 0.0)
        state_path = tmp_path / "state.json"
        state_path.write_text(serialize_state(SelfStressState(resultants)))
        code, out, _ = run(capsys, "check", str(k5_path), "--state", str(state_path),
                           "--format", "text")
        assert code == 0 and "axial check o01: pass" in out
        code, _, err = run(capsys, "export", str(k5_path), "--state", str(state_path),
                           "--loops", "cycles", "--out-dir", str(tmp_path / "d"))
        assert (code, err) == (0, "")
        text = (tmp_path / "d" / "force.obj").read_text()
        assert text.count("\no cycle_") == 5 and "o cycle_o01\n" not in text

    def test_untwisted_prism_has_nothing_to_export(self, capsys, tmp_path):
        prism_path = tmp_path / "prism.json"
        run(capsys, "gen", "prism", "--twist", "0.0", "-o", str(prism_path))
        code, _, err = run(
            capsys, "export", str(prism_path), "--axial",
            "--out-dir", str(tmp_path / "d"),
        )
        assert code == 2
        assert "no axial self-stress" in err


class TestIntegerIds:
    def test_tree_root_flag_parses_integer_ids(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"id": 0, "x": 0, "y": 0, "z": 0},
                {"id": 1, "x": 1, "y": 0, "z": 0},
                {"id": 2, "x": 0, "y": 1, "z": 0},
            ],
            "bars": [
                {"id": 10, "tail": 0, "head": 1},
                {"id": 11, "tail": 1, "head": 2},
                {"id": 12, "tail": 0, "head": 2},
            ],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "cycles", str(path), "--tree-root", "2")
        assert code == 0
        report = json.loads(out)
        assert report["tree"]["root"] == 2
        assert report["counts"]["cycles"] == 1


class TestMergedStateExport:
    def test_welded_state_exports_merged_chains(self, capsys, tmp_path, k5_path):
        """Every resultant is one connected loop, so `--merge-loops` has
        nothing to splice: it is accepted and changes no byte."""
        basis = fundamental_cycles(k5_frame())
        state = SelfStressState(
            {c.generator: Bivector6(jk=1.0, kh=2.0) for c in basis}
        )
        state_path = tmp_path / "state.json"
        state_path.write_text(serialize_state(state))
        texts = []
        for flags in (["--merge-loops"], []):
            out_dir = tmp_path / f"diag{len(texts)}"
            code, _, err = run(
                capsys, "export", str(k5_path), "--state", str(state_path),
                "--loops", "cycles", *flags, "--out-dir", str(out_dir),
            )
            assert (code, err) == (0, "")
            texts.append((out_dir / "force.obj").read_text())
        assert texts[0] == texts[1]
        # exactly one polyline object per basis cycle
        assert texts[0].startswith("# loopstatics mesh 2\n")
        assert texts[0].count("o cycle_") == 6 and "_part" not in texts[0]


class TestErrors:
    def test_bad_document_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "cycles", str(bad))
        assert code == 2
        assert "syntax error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "cycles", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error" in err

    def test_ambiguous_rank_cut_exits_2(self, capsys, k5_path):
        """At a tolerance inside K5's singular values the redundant bars,
        read in bar order, do not match the rank: a defined error."""
        code, out, err = run(capsys, "axial", str(k5_path), "--tol", "0.2")
        assert (code, out) == (2, "")
        assert err.startswith("error: rank cut is ambiguous") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "1", "2", "1e300"])
    @pytest.mark.parametrize("command", ["cycles", "axial", "check", "export"])
    def test_tol_outside_zero_to_one_is_rejected(self, capsys, tmp_path, k5_axial_paths,
                                                 command, tol):
        """Only a finite 0 <= tol < 1 is a tolerance: NaN failed every bar,
        inf passed every bar, and both gave false errors in axial and export."""
        k5_path, state_path = k5_axial_paths
        extra = {"check": ["--state", str(state_path)],
                 "export": ["--state", str(state_path), "--out-dir", str(tmp_path / "d")]}
        with pytest.raises(SystemExit) as exc:
            main([command, str(k5_path), f"--tol={tol}", *extra.get(command, [])])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        expected = (f"loopstatics {command}: error: argument --tol: "
                    f"must be a number with 0 <= tol < 1, got {tol!r}")
        if command == "cycles":  # which takes no tolerance at all
            expected = f": error: unrecognized arguments: --tol={tol}"
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and lines[0].endswith(expected), lines
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("tol", ["0", "0.999"])
    def test_tol_inside_zero_to_one_is_accepted(self, capsys, k5_axial_paths, tol):
        k5_path, state_path = k5_axial_paths
        code, _, err = run(capsys, "check", str(k5_path), "--state", str(state_path),
                           "--tol", tol)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ["cycles", "--tol", "0.9"],
        ["cycles", "--tol=nan"],
        ["export", "--axial", "-o", "x.txt"],
        ["export", "--axial", "--out", "x.txt"],
        ["export", "--axial", "--format", "text"],
        ["export", "--state", "ax.json", "--format", "json"],
    ], ids=" ".join)
    def test_options_the_command_does_not_read_are_rejected(self, capsys, tmp_path,
                                                            k5_axial_paths, monkeypatch, argv):
        """cycles takes no tolerance, and export writes meshes, not a report:
        each such option was accepted and ignored, and is now a usage error.
        `--out` is not taken for an abbreviation of export's `--out-dir`."""
        monkeypatch.chdir(tmp_path)
        command, *rest = argv
        extra = ["--out-dir", "d"] if command == "export" else []
        with pytest.raises(SystemExit) as exc:
            main([command, str(k5_axial_paths[0]), *extra, *rest])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        unread = " ".join(rest[-1:] if rest[-1].startswith("--") else rest[-2:])
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and lines[0].endswith(f": error: unrecognized arguments: {unread}")
        assert not (tmp_path / "x.txt").exists() and not (tmp_path / "d").exists()

    def test_statics_of_a_two_node_frame_exit_2(self, capsys, tmp_path):
        """One bar has no rigid-body count of 6: axial printed m = -1.  The
        commands that run no statics still read the frame."""
        doc = {"nodes": [{"id": "x", "x": 0, "y": 0, "z": 0},
                         {"id": "y", "x": 1, "y": 0, "z": 0}],
               "bars": [{"id": "a", "tail": "x", "head": "y"}]}
        path, state = tmp_path / "bar.json", tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        state.write_text(serialize_state(SelfStressState({})))
        for extra in ((), ("--format", "text")):
            code, out, err = run(capsys, "axial", str(path), *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "at least 3 nodes" in err and err.count("\n") == 1
        code, out, err = run(capsys, "export", str(path), "--axial", "--out-dir", str(tmp_path / "a"))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert not (tmp_path / "a").exists()
        for argv in (("cycles",), ("check", "--state", str(state))):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, err) == (0, "") and json.loads(out)["counts"]["e"] == 1
        code, out, err = run(capsys, "export", str(path), "--state", str(state),
                             "--out-dir", str(tmp_path / "s"))
        assert (code, err) == (0, "") and (tmp_path / "s" / "form.obj").exists()

    def test_unwritable_export_path(self, capsys, tmp_path, k5_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run(
            capsys, "export", str(k5_path), "--axial",
            "--out-dir", str(blocker / "sub"),
        )
        assert code == 2
        assert "error" in err
