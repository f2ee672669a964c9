"""Config parsing, artifact emission and end-to-end command runs.

The CSV and JSON emitters are checked against frozen fold constants that
earlier test modules pinned with independent oracles, against exact format
strings, and for byte reproducibility across repeated runs. Command tests
drive main() with real config files in temporary directories.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import bifurcate.cli as cli
import bifurcate.spectral as spectral_mod
from bifurcate.grid import build_grid
from bifurcate.model import HarvestSpec, Nonlinearity
from bifurcate.solver import Problem
from bifurcate.continuation import Branch
from bifurcate.diagram import assemble_diagram
from bifurcate.cli import (
    CSV_HEADER,
    ConfigError,
    diagram_payload,
    diagrams_equal,
    emit_csv,
    load_diagram,
    main,
    parse_config,
    render_svg,
)

# Fold of the stable/index-1 pair at a = 20, pinned by the extremum oracle
# in test_continuation.
C_FOLD_20 = 128.207253840662


@pytest.fixture(scope="module")
def problem():
    return Problem(build_grid(399, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def diagram20(problem):
    return assemble_diagram(problem, 20.0)


@pytest.fixture(scope="module")
def diagram_lam1(problem):
    return assemble_diagram(problem, problem.modes()[0].eigenvalue)


@pytest.fixture(scope="module")
def diagram_lam2(problem):
    return assemble_diagram(problem, problem.modes()[1].eigenvalue)


def reference_json(doc) -> str:
    """The layout every JSON artifact must have, byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture(autouse=True)
def written_json(monkeypatch):
    """Check every JSON artifact a test writes against json.dumps of the same
    document; the list collects the names of the files checked."""
    written = []
    write = cli._write_json

    def checked(doc, path):
        write(doc, path)
        assert Path(path).read_text() == reference_json(doc)
        written.append(Path(path).name)

    monkeypatch.setattr(cli, "_write_json", checked)
    return written


def write_config(tmp_path, body):
    path = tmp_path / "run.yaml"
    path.write_text(body)
    return str(path)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config("schema_version: 1\n")
        assert cfg.grid == {"n_interior": 399, "length": 1.0}
        assert cfg.model["M"] == 0.2
        assert cfg.model["p_f"] == 3
        assert cfg.model["harvest"] == "bump"
        assert set(cfg.run).isdisjoint({"tol", "k_eigs", "max_step"})
        assert cfg.run["n_starts"] == 400
        assert cfg.output["formats"] == ["csv", "json", "svg"]
        assert cfg.output["directory"] == "out"

    def test_echo_carries_all_blocks(self):
        cfg = parse_config("schema_version: 1\nrun:\n  a: 20.0\n")
        echo = cfg.echo
        assert echo["schema_version"] == "1"
        assert set(echo) == {"schema_version", "grid", "model", "run", "output"}
        assert echo["run"]["a"] == 20.0

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version is mandatory"):
            parse_config("run:\n  a: 1.0\n")

    def test_schema_version_int_accepted(self):
        assert parse_config("schema_version: 1\n").echo["schema_version"] == "1"

    def test_schema_version_unsupported(self):
        with pytest.raises(ConfigError, match="unsupported schema_version"):
            parse_config("schema_version: 2\n")

    def test_syntax_error_reports_line(self):
        # the unclosed bracket is noticed at the stream end one line below
        with pytest.raises(ConfigError, match=r"line 4, column 1"):
            parse_config("schema_version: 1\nrun:\n  a: [20.0\n")

    def test_unknown_key_reports_line(self):
        text = "schema_version: 1\nrun:\n  a: 20.0\n  bogus: 1\n"
        with pytest.raises(ConfigError, match=r"'bogus' in block 'run' \(line 4\)"):
            parse_config(text)
        # the Newton tolerance, the spectrum size and the step ceiling are
        # fixed, so configs naming them are rejected
        for key, value in (("tol", "1.0e-10"), ("k_eigs", "3"), ("max_step", "0.5")):
            text = f"schema_version: 1\nrun:\n  a: 20.0\n  seed: 1\n  {key}: {value}\n"
            with pytest.raises(
                ConfigError, match=rf"'{key}' in block 'run' \(line 5\)"
            ):
                parse_config(text)

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError, match="unknown block 'extras'"):
            parse_config("schema_version: 1\nextras:\n  x: 1\n")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config("- 1\n- 2\n")

    def test_block_must_be_mapping(self):
        with pytest.raises(ConfigError, match="block 'run' must be a mapping"):
            parse_config("schema_version: 1\nrun: 7\n")

    @pytest.mark.parametrize("body,message", [
        ("run:\n  command: explode\n", "unknown run.command"),
        ("run:\n  regime: sideways\n", "unknown run.regime"),
        ("run:\n  direction: 2\n", "direction must be 1 or -1"),
        ("run:\n  a_range: [5.0]\n", "two-element list"),
        ("run:\n  c_range: [3.0, -3.0]\n", "must be increasing"),
        ("output:\n  formats: [csv, png]\n", "unknown output formats"),
        ("output:\n  svg_axis: height\n", "svg_axis"),
    ])
    def test_invalid_values_rejected(self, body, message):
        with pytest.raises(ConfigError, match=message):
            parse_config("schema_version: 1\n" + body)

    @pytest.mark.parametrize("alias,canonical", [
        ("theorem1", "between-lambda1-lambda2"),
        ("theorem2", "at-lambda2"),
        ("theorem3", "above-lambda2"),
        ("below-lambda1", "below-lambda1"),
    ])
    def test_regime_labels_normalized(self, alias, canonical):
        cfg = parse_config(f"schema_version: 1\nrun:\n  regime: {alias}\n")
        assert cfg.run["regime"] == canonical

    def test_build_problem(self):
        cfg = parse_config(
            "schema_version: 1\nmodel:\n  M: 0.1\n  p_f: 4\ngrid:\n  n_interior: 99\n"
        )
        prob = cfg.build_problem()
        assert prob.domain.n_interior == 99
        assert prob.nonlinearity.M == 0.1
        assert prob.nonlinearity.p_f == 4


class TestEmitCsv:
    def test_header_and_shape(self, diagram20, tmp_path):
        branch = diagram20.branch("Mstar")
        path = tmp_path / "b.csv"
        emit_csv(branch, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "s,c,t_proj,u_l2,u_max,u_min,mu1,mu2,morse_index,tag"
        assert len(lines) == len(branch.points) + 1
        assert text.endswith("\n")
        assert all(len(ln.split(",")) == 10 for ln in lines)

    def test_twelve_significant_digits(self, diagram20, tmp_path):
        path = tmp_path / "b.csv"
        emit_csv(diagram20.branch("Mstar"), path)
        row = path.read_text().splitlines()[1].split(",")
        for cell in row[:8]:
            digits = cell.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(digits) <= 12
        # the arclength origin prints bare
        assert row[0] == "0"

    def test_row_values_roundtrip(self, diagram20, tmp_path):
        branch = diagram20.branch("Msharp")
        path = tmp_path / "b.csv"
        emit_csv(branch, path)
        i = len(branch.points) // 2
        row = path.read_text().splitlines()[1 + i].split(",")
        p = branch.points[i]
        dom = p.u.domain
        assert float(row[1]) == pytest.approx(p.c, rel=1e-11)
        assert float(row[2]) == pytest.approx(branch.t_proj[i], rel=1e-11)
        assert float(row[3]) == pytest.approx(
            np.sqrt(dom.inner(p.u.values, p.u.values)), rel=1e-11
        )
        assert int(row[8]) == p.morse_index
        assert row[9] == "Msharp"

    def test_fold_is_the_c_maximum(self, diagram20, tmp_path):
        # the stable sheet climbs toward the fold; sampled points stay just
        # below it (the refined fold itself is a degenerate point, not a row)
        path = tmp_path / "b.csv"
        emit_csv(diagram20.branch("Mstar"), path)
        cs = [float(ln.split(",")[1]) for ln in path.read_text().splitlines()[1:]]
        assert max(cs) <= C_FOLD_20
        assert max(cs) == pytest.approx(C_FOLD_20, rel=1e-4)
        assert cs[0] == diagram20.c_min

    def test_empty_branch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty branch"):
            emit_csv(Branch((), (), "phi", ()), tmp_path / "x.csv")


class TestJsonRoundTrip:
    def test_payload_keys(self, diagram20):
        doc = diagram_payload(diagram20)
        assert set(doc) == {
            "a", "c_min", "complete", "regime", "branches",
            "degenerate_points", "segment",
        }
        assert doc["regime"] == "between-lambda1-lambda2"
        assert doc["segment"] is None
        tags = {b["tag"] for b in doc["branches"]}
        assert tags == {"Mstar", "Msharp"}

    def test_reload_preserves_everything(self, problem, diagram20):
        doc = json.loads(json.dumps(diagram_payload(diagram20)))
        rebuilt = load_diagram(doc, problem=problem)
        assert diagrams_equal(rebuilt, diagram20)
        assert rebuilt.regime == diagram20.regime
        assert rebuilt.complete

    def test_segment_survives_reload(self, problem, diagram_lam2):
        doc = json.loads(json.dumps(diagram_payload(diagram_lam2)))
        rebuilt = load_diagram(doc, problem=problem)
        assert diagrams_equal(rebuilt, diagram_lam2)
        seg = rebuilt.segment
        assert seg is not None
        assert seg.t_min == diagram_lam2.segment.t_min
        assert seg.t_max == diagram_lam2.segment.t_max

    def test_degenerate_ray_survives_reload(self, problem, diagram_lam1):
        # reloading reclassifies every point; the ray states are degenerate,
        # where that is most fragile
        doc = json.loads(json.dumps(diagram_payload(diagram_lam1)))
        rebuilt = load_diagram(doc, problem=problem)
        assert diagrams_equal(rebuilt, diagram_lam1)
        ray = rebuilt.branch("ray")
        assert all(p.degenerate and p.tag == "degenerate-0" for p in ray.points)

    def test_window_reload_keeps_every_classification(self, problem, monkeypatch):
        # reloading tracks each point's spectrum from the branch's previous
        # point; only the first point of a branch gets the full eigensolve
        a = problem.modes()[1].eigenvalue + 0.5 * 0.962759859621
        window = assemble_diagram(problem, a)
        doc = json.loads(json.dumps(diagram_payload(window)))
        outcome = {"certified": 0, "refused": 0}
        track = spectral_mod.track_tridiagonal_eigenpairs

        def spy(*args):
            pairs = track(*args)
            outcome["refused" if pairs is None else "certified"] += 1
            return pairs

        monkeypatch.setattr(spectral_mod, "track_tridiagonal_eigenpairs", spy)
        rebuilt = load_diagram(doc, problem=problem)
        points = sum(len(b["points"]) for b in doc["branches"])
        assert outcome == {"certified": points - len(doc["branches"]), "refused": 0}
        for stored, br in zip(doc["branches"], rebuilt.branches):
            assert [
                (p["morse_index"], p["degenerate"], p["tag"]) for p in stored["points"]
            ] == [(p.morse_index, p.degenerate, p.tag) for p in br.points]
        assert diagrams_equal(rebuilt, window)

    def test_diagrams_equal_detects_difference(self, diagram20, diagram_lam2):
        assert diagrams_equal(diagram20, diagram20)
        assert not diagrams_equal(diagram20, diagram_lam2)


class TestJsonWriter:
    """The streaming writer against json.dumps on hand-made documents; the
    command tests check it on every document the CLI writes."""

    @pytest.mark.parametrize("doc", [
        {"floats": [1.0, -0.0, 1e-300, 2.5e17, math.nan, math.inf, -math.inf]},
        {"scalars": [math.nan, math.inf, -math.inf], "x": math.nan,
         "y": math.inf, "z": -math.inf},
        {"empty_list": [], "empty_dict": {}, "nested": {"a": [], "b": {}}},
        {"rows": [[1.0, 2.0], [], [3.0, [4.0, {"k": [5.0]}]]]},
        {"mixed": [1.0, 2, True, False, None, "s", -3, 0.5]},
        {"tuple": (1.0, 2.0), "tuples": ((1, "a"), (0.5,)), "pair": (None, True)},
        {"caf\u00e9": "\u03b4 = 0.96 \u2014 \"quoted\"\n\ttab", "\u00e9": ["\u2603"]},
        {"f64": np.float64(0.1), "f64_nan": np.float64(math.nan),
         "in_list": [1.0, np.float64(2.5), 3.0], "all_f64": [np.float64(-1.5)]},
        {"b": {"z": 1, "a": {"y": [0.25], "b": 2}}, "a": 0},
        [1.0, 2.0, 3.0],
        [],
        "top",
        None,
        12345678901234567890,
    ])
    def test_matches_json_dumps(self, doc, tmp_path):
        path = tmp_path / "doc.json"
        cli._write_json(doc, path)
        assert path.read_bytes() == reference_json(doc).encode("ascii")

    @pytest.mark.parametrize("leaf", [np.int64(3), {1, 2}, np.bool_(True), object()])
    def test_unsupported_leaf_raises_type_error(self, leaf, tmp_path):
        doc = {"ok": [1.0, 2.0], "bad": [0.5, leaf]}
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_json(doc, path)
        assert not path.exists()

    def test_non_string_key_raises_type_error(self, tmp_path):
        # json.dumps would print 1 as "1"; no CLI document has such keys
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError):
            cli._write_json({"ok": {1: 2.0}}, path)
        assert not path.exists()


class TestRenderSvg:
    def test_dash_styles_and_markers(self, diagram20, tmp_path):
        path = tmp_path / "d.svg"
        render_svg(diagram20, path)
        text = path.read_text()
        assert text.startswith("<svg ")
        assert "<polyline" in text
        # stable runs are solid, index-1 runs dashed
        assert 'stroke-dasharray="8,5"' in text
        solid = [ln for ln in text.splitlines()
                 if "<polyline" in ln and "dasharray" not in ln]
        assert solid
        assert text.count("<circle") == len(diagram20.degenerate_points)

    def test_segment_drawn_as_vertical_bar_at_czero(self, diagram_lam2, tmp_path):
        path = tmp_path / "seg.svg"
        render_svg(diagram_lam2, path)
        bars = [ln for ln in path.read_text().splitlines()
                if 'stroke-width="5"' in ln]
        assert len(bars) == 1
        x1 = bars[0].split('x1="')[1].split('"')[0]
        x2 = bars[0].split('x2="')[1].split('"')[0]
        assert x1 == x2

    def test_t_axis_variant(self, diagram_lam2, tmp_path):
        path = tmp_path / "t.svg"
        render_svg(diagram_lam2, path, "t_proj")
        assert ">t</text>" in path.read_text()

    def test_unknown_axis_rejected(self, diagram20, tmp_path):
        with pytest.raises(ValueError, match="unknown y axis"):
            render_svg(diagram20, tmp_path / "x.svg", "volume")


class TestCountCommand:
    def test_prints_and_records_count(self, tmp_path, capsys, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: count\n  a: 40.0\n  c: -0.005\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        code = main(["count", "--config", cfg])
        assert code == 0
        assert "count=4" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "count.json").read_text())
        assert doc["count"] == 4
        assert doc["morse_indices"] == [0, 1, 1, 2]
        assert len(doc["members"]) == 4
        assert all(m["residual_norm"] < 1e-8 for m in doc["members"])
        assert doc["config_echo"]["run"]["a"] == 40.0
        assert written_json == ["count.json"]

    def test_missing_parameter_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: count\n  a: 40.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["count", "--config", cfg]) == 1
        assert "run.c is required" in capsys.readouterr().err


class TestDiagramCommand:
    def test_produces_three_artifacts(self, tmp_path, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: diagram\n  a: 20.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["diagram", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "diagram.json").exists()
        assert (out / "branches.csv").exists()
        assert (out / "diagram.svg").exists()
        doc = json.loads((out / "diagram.json").read_text())
        assert set(doc) >= {
            "schema_version", "config_echo", "regime", "branches",
            "degenerate_points", "segment", "report",
        }
        assert doc["report"] is None
        tags = {row.rsplit(",", 1)[1]
                for row in (out / "branches.csv").read_text().splitlines()[1:]}
        assert tags == {"Mstar", "Msharp"}
        assert written_json == ["diagram.json"]

    def test_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: diagram\n  a: 20.0\n"
            f"output:\n  directory: {tmp_path / 'o1'}\n"
        ))
        assert main(["diagram", "--config", cfg]) == 0
        assert main(["diagram", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
        for name in ("diagram.json", "branches.csv", "diagram.svg"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2

    def test_json_reloads_into_equal_diagram(self, tmp_path, diagram20):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: diagram\n  a: 20.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["diagram", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "diagram.json").read_text())
        echo = doc["config_echo"]
        assert set(echo["run"]).isdisjoint({"tol", "k_eigs", "max_step"})
        assert diagrams_equal(load_diagram(doc), diagram20)
        # documents written while the run block still carried the solver
        # settings reload all the same
        old_run = {**echo["run"], "tol": 1e-10, "k_eigs": 3, "max_step": None}
        old = {**doc, "config_echo": {**echo, "run": old_run}}
        assert diagrams_equal(load_diagram(old), diagram20)

    def test_formats_subset_respected(self, tmp_path):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: diagram\n  a: 20.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n  formats: [csv]\n"
        ))
        assert main(["diagram", "--config", cfg]) == 0
        assert (tmp_path / "out" / "branches.csv").exists()
        assert not (tmp_path / "out" / "diagram.json").exists()
        assert not (tmp_path / "out" / "diagram.svg").exists()

    def test_incomplete_assembly_writes_partial_diagram(
        self, tmp_path, capsys, problem, written_json,
    ):
        a = problem.modes()[1].eigenvalue + 3.0  # past the four-solution window
        cfg = write_config(tmp_path, (
            f"schema_version: 1\nrun:\n  command: diagram\n  a: {a!r}\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["diagram", "--config", cfg]) == 1
        assert "assembly incomplete" in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "diagram.json").read_text())
        assert doc["complete"] is False
        assert doc["regime"] == "above-lambda2"
        assert [b["tag"] for b in doc["branches"]] == ["Mnatural"]
        assert (tmp_path / "out" / "branches.csv").exists()
        assert written_json == ["diagram.json"]


class TestVerifyCommand:
    def test_matching_regime_passes(self, tmp_path, capsys, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: verify\n  a: 20.0\n  regime: theorem1\n"
            "  n_starts: 60\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[FAIL]" not in out
        doc = json.loads(
            (tmp_path / "out" / "verification_report.json").read_text()
        )
        assert doc["regime"] == "between-lambda1-lambda2"
        assert doc["regime_matches"] is True
        assert doc["report"]["passed"] is True
        assert all(c["passed"] for c in doc["report"]["checks"])
        assert written_json == ["verification_report.json"]

    def test_wrong_regime_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: verify\n  a: 20.0\n  regime: theorem2\n"
            "  n_starts: 60\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["verify", "--config", cfg]) == 2
        assert "detected between-lambda1-lambda2" in capsys.readouterr().out
        doc = json.loads(
            (tmp_path / "out" / "verification_report.json").read_text()
        )
        assert doc["regime_matches"] is False


class TestOtherCommands:
    def test_check_hypotheses(self, tmp_path, capsys, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: check-hypotheses\n  a: 20.0\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["check-hypotheses", "--config", cfg]) == 0
        assert "(alpha" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert doc["satisfied"] is True
        assert any(c["label"] == "alpha" for c in doc["checks"])
        assert written_json == ["hypotheses.json"]

    def test_check_hypotheses_failure_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nmodel:\n  harvest: sine\n"
            "run:\n  command: check-hypotheses\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["check-hypotheses", "--config", cfg]) == 2
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert doc["satisfied"] is False

    def test_continue_traces_to_fold(self, tmp_path, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: continue\n  a: 20.0\n  start: stable\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["continue", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "branch.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["n_points"] == len(rows) - 1
        kinds = {ev["kind"] for ev in doc["events"]}
        assert "fold" in kinds
        fold_c = [ev["c"] for ev in doc["events"] if ev["kind"] == "fold"][0]
        assert fold_c == pytest.approx(C_FOLD_20, rel=1e-9)
        assert written_json == ["run.json"]

    def test_fold_curve_sweep(self, tmp_path, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: fold-curve\n  a: 20.0\n  a_range: [15.0, 25.0]\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["fold-curve", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "fold_curve.csv").read_text().splitlines()
        assert rows[0] == "param,a,c,u_l2,u_max,u_min,residual_sup,kind"
        a_vals = [float(r.split(",")[1]) for r in rows[1:]]
        c_vals = [float(r.split(",")[2]) for r in rows[1:]]
        assert a_vals[0] == 15.0 and a_vals[-1] == 25.0
        assert all(np.diff(c_vals) > 0)
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["max_slope_mismatch"] < 0.05
        assert written_json == ["run.json"]

    def test_dsigma_curve(self, tmp_path, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: dsigma-curve\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["dsigma-curve", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["delta"] == pytest.approx(0.962759859621, rel=1e-6)
        assert written_json == ["run.json"]

    def test_czero_branch(self, tmp_path, written_json):
        cfg = write_config(tmp_path, (
            "schema_version: 1\n"
            "run:\n  command: czero-branch\n  which: dagger\n"
            "  a_range: [11.0, 20.0]\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        ))
        assert main(["czero-branch", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "czero_branch.csv").read_text().splitlines()
        assert rows[0] == "s,a,t_proj,u_l2,u_max,u_min,mu1,mu2,morse_index,tag"
        assert rows[1].endswith(",dagger")
        a_vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert a_vals[0] == 11.0 and a_vals[-1] == 20.0
        assert written_json == ["run.json"]


class TestGateAndErrors:
    def test_hypothesis_gate_blocks(self, tmp_path, capsys):
        body = (
            "schema_version: 1\nmodel:\n  harvest: sine\n"
            "run:\n  command: count\n  a: 40.0\n  c: -0.005\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["count", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "hypothesis check failed: c" in captured.err

    def test_force_overrides_gate(self, tmp_path, capsys):
        body = (
            "schema_version: 1\nmodel:\n  harvest: sine\n"
            "run:\n  command: count\n  a: 40.0\n  c: -0.005\n"
            f"output:\n  directory: {tmp_path / 'out'}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["count", "--config", cfg, "--force"]) == 0
        assert "count=" in capsys.readouterr().out

    def test_command_mismatch_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "schema_version: 1\nrun:\n  command: count\n  a: 40.0\n  c: -1.0\n"
        ))
        assert main(["diagram", "--config", cfg]) == 1
        assert "declares run.command 'count'" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["count", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "schema_version: 1\nrun:\n  a: [1.0\n")
        assert main(["count", "--config", cfg]) == 1
        assert "line 4, column 1" in capsys.readouterr().err
