import json
import xml.dom.minidom
from pathlib import Path

import pytest

from pentaflow import analysis, orbits, periods, tracer
from pentaflow.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from pentaflow.directions import DirectionIndex, coordinate_of_index
from pentaflow.golden import GoldenNum

PINNED = Path(__file__).parent / "data"

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_direction_report(capsys):
    code, out = run(capsys, "direction", "0", "1")
    assert code == EXIT_OK
    assert "short 3, long 5" in out

    code, out = run(capsys, "direction")
    assert code == EXIT_OK
    assert "short 1, long 1" in out


def test_direction_index_forms_agree(capsys):
    # one argument per digit or one run of digits: the same index
    _, spaced = run(capsys, "direction", "0", "1")
    code, joined = run(capsys, "direction", "01")
    assert code == EXIT_OK and joined == spaced


def test_direction_json_round_trips(capsys):
    code, out = run(capsys, "direction", "1", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    coeffs = data["coordinate"]["coeffs"]
    assert GoldenNum.from_json(coeffs) == GoldenNum.of(-4, "5/2")
    assert data["periods"]["short"] == 2


def test_direction_folds_the_vectors_once(monkeypatch, capsys):
    # the periods are read off the vectors the report already holds; the
    # periods module binds its own name, so both are counted
    calls = []
    fold = orbits.vectors_of_index

    def counted(idx):
        calls.append(idx)
        return fold(idx)

    monkeypatch.setattr(orbits, "vectors_of_index", counted)
    monkeypatch.setattr(periods, "vectors_of_index", counted)
    code, out = run(capsys, "direction", "1", "2", "--json")
    assert code == EXIT_OK and json.loads(out)["periods"]["arabic"] == [14, 22]
    assert len(calls) == 1


def test_direction_usage_error(capsys):
    for digits in ("9", "5"):
        with pytest.raises(SystemExit) as e:
            main(["direction", digits])
        assert e.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"direction: bad index '{digits}'" in err


def test_orbit_outputs(capsys):
    code, out = run(capsys, "orbit", "0", "3", "--short", "--arabic")
    assert code == EXIT_OK and out.strip() == "4 3 2 5 2 5 2 3"

    code, out = run(capsys, "orbit", "3", "1", "--short", "--arabic")
    assert code == EXIT_OK and out.strip() == "4 1 4 3 2 3 4 1"

    code, out = run(capsys, "orbit", "1", "1", "--short", "--roman")
    assert code == EXIT_OK and out.strip() == "IV I III IV I"

    code, out = run(capsys, "orbit", "--long")
    assert code == EXIT_OK and out.strip() == "4 3"


def test_verify_table(capsys):
    code, out = run(capsys, "verify", "--depth", "1", "--suite", "table")
    assert code == EXIT_OK
    assert "9 checked, 0 failures" in out


def test_verify_periods_depth_three(capsys):
    code, out = run(capsys, "verify", "--depth", "3", "--suite", "periods")
    assert code == EXIT_OK
    assert "64 checked, 0 failures" in out


def test_verify_usage(capsys):
    code, _ = run(capsys, "verify", "--depth", "0")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "verify", "--depth", "1", "--suite", "nope")
    assert code == EXIT_USAGE


def test_verify_depth_limit(monkeypatch, capsys):
    # depth 8 is the deepest; the guard names the limit before any suite runs
    from pentaflow import verify

    def must_not_run(depth):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, must_not_run)
    assert main(["verify", "--depth", "9"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "verify: depth must be 1 to 8, not 9\n")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    usage = capsys.readouterr().out
    assert "--depth" in usage
    assert "--max-depth" not in usage and "--conjectures-advisory" not in usage


def test_a_failed_conjecture_fails_the_run(monkeypatch, capsys):
    from pentaflow import verify

    monkeypatch.setitem(verify.SUITES, "conjectures",
                        lambda depth: [{"case": "concat:x", "ok": False}])
    code, out = run(capsys, "verify", "--depth", "1", "--suite", "conjectures")
    assert code == EXIT_VERIFY
    assert out == "suite conjectures: 1 checked, 1 failures\n"


@pytest.mark.parametrize("suite", ["orbits-vs-oracle", "billiard"])
def test_verify_oracle_budget_row(suite, tmp_path, monkeypatch, capsys):
    # a trace that misses its period fails its own row, with the error, and
    # the other directions are still checked and the ledger written
    strips = tracer.strip_cells_for_coordinate
    stuck = coordinate_of_index(DirectionIndex((2,))).value

    def too_small_at_2(x, expected_long):
        return strips(x, 1 if x == stuck else expected_long)

    # both suites search the strips, the billiard through its own import
    monkeypatch.setattr(tracer, "strip_cells_for_coordinate", too_small_at_2)
    monkeypatch.setattr(analysis, "strip_cells_for_coordinate", too_small_at_2)
    with pytest.raises(tracer.TraceBudgetExceeded) as e:
        too_small_at_2(stuck, 4)
    out = tmp_path / "ledger.json"
    code, stdout = run(capsys, "verify", "--depth", "1", "--suite", suite,
                       "--json-out", str(out))
    assert code == EXIT_VERIFY
    assert stdout == f"suite {suite}: 4 checked, 1 failures\n"
    rows = json.loads(out.read_text())[suite]["rows"]
    assert {r["case"]: r for r in rows}["2"] == {"case": "2", "ok": False,
                                                 "error": str(e.value)}
    assert str(e.value).endswith("made 2 crossings without closing (cap 2)")
    assert sum(r["ok"] for r in rows) == 3


def test_verify_budget_exhausted(monkeypatch):
    # a suite records a missed period in its row, so verify has no budget
    # exit: an error raised out of a suite itself, a budget one included,
    # propagates
    from pentaflow import verify

    for error in (tracer.TraceBudgetExceeded("d", 8, 8), RuntimeError("not a budget")):
        def broken(depth):
            raise error

        monkeypatch.setitem(verify.SUITES, "table", broken)
        with pytest.raises(type(error)) as e:
            main(["verify", "--depth", "1", "--suite", "table"])
        assert e.value is error


def test_verify_deterministic_ledger(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code, _ = run(capsys, "verify", "--depth", "2",
                      "--suite", "m-relation", "--suite", "reduction",
                      "--json-out", str(out))
        assert code == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_verify_ledger_matches_pinned_file(tmp_path, capsys):
    # the ledger of the fast suites at depth 3, byte for byte as committed;
    # a change that alters any row shows here
    out = tmp_path / "ledger.json"
    code, _ = run(capsys, "verify", "--depth", "3", "--suite", "periods",
                  "--suite", "m-relation", "--suite", "reduction",
                  "--suite", "displacement", "--suite", "conjectures",
                  "--json-out", str(out))
    assert code == EXIT_OK
    assert out.read_bytes() == (PINNED / "ledger_depth3_fast.json").read_bytes()


def test_no_suite_lists_a_case_twice(tmp_path, capsys):
    # every suite at depth 1, and the pinned depth-3 ledger of the fast
    # suites: a ledger row is one case, checked once
    out = tmp_path / "ledger.json"
    assert main(["verify", "--depth", "1", "--json-out", str(out)]) == EXIT_OK
    for path in (out, PINNED / "ledger_depth3_fast.json"):
        for name, suite in json.loads(path.read_text()).items():
            cases = [row["case"] for row in suite["rows"]]
            assert len(set(cases)) == len(cases) == suite["checked"], (path.name, name)


def test_render_surface_and_billiard(tmp_path, capsys):
    out = tmp_path / "orbit.svg"
    code, _ = run(capsys, "render", "2", "--surface", "--out", str(out))
    assert code == EXIT_OK
    doc = xml.dom.minidom.parse(str(out))
    assert doc.getElementsByTagName("polyline")
    assert len(doc.getElementsByTagName("polygon")) == 2

    out2 = tmp_path / "billiard.svg"
    code, _ = run(capsys, "render", "2", "--billiard", "--out", str(out2))
    assert code == EXIT_OK
    doc = xml.dom.minidom.parse(str(out2))
    assert len(doc.getElementsByTagName("polygon")) == 1


def test_render_strip_parameter(tmp_path, capsys):
    out = tmp_path / "strips.svg"
    code = main(["render", "--u", "0", "--out", str(out)])
    assert code == EXIT_OK
    xml.dom.minidom.parse(str(out))
    # before tracing, stderr names the index and its exact periods
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}\n"
    assert "index 2, periods 2/4" in captured.err

    # this close to the vertex 2, renormalization runs out of depth first
    code = main(["render", "--u", "1/100000", "--out", str(out)])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("render: no index found within "
                                              "depth budget; prefix (")


@pytest.mark.parametrize("u, reason", [
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("1/0", "zero denominator"),
])
def test_render_bad_u_is_a_usage_error(tmp_path, capsys, u, reason):
    out = tmp_path / "o.svg"
    assert main(["render", "--u", u, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"render: bad --u '{u}': {reason}\n"
    assert not out.exists()


def test_render_refuses_an_index_with_u(tmp_path, capsys):
    # the digits and --u each name a direction; neither is dropped
    out = tmp_path / "o.svg"
    assert main(["render", "1", "--u", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "render: give an index or --u, not both\n")
    assert not out.exists()


def test_negative_u_is_written_with_an_equals_sign(tmp_path, capsys):
    # after a space argparse reads -1/2 as an option, so the help and the
    # README show --u=-1/10; that form reaches the sector check
    out = tmp_path / "o.svg"
    with pytest.raises(SystemExit) as exc:
        main(["render", "--u", "-1/2", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "argument --u: expected one argument" in capsys.readouterr().err
    assert main(["render", "--u=-1/2", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("render: --u must lie in the closed "
                                       "principal sector\n")
    assert not out.exists()
    with pytest.raises(SystemExit):
        main(["render", "--help"])
    assert "--u=-1/10" in capsys.readouterr().out.split()


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # the path is checked before any suite runs or any strip is traced
    ledger = tmp_path / "missing" / "ledger.json"
    assert main(["verify", "--depth", "1", "--suite", "table",
                 "--json-out", str(ledger)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"verify: cannot write ledger {ledger}: "
                            "No such file or directory\n")
    assert main(["verify", "--depth", "1", "--suite", "table",
                 "--json-out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"verify: cannot write ledger {tmp_path}: "
                                       "Is a directory\n")

    svg = tmp_path / "missing" / "orbit.svg"
    assert main(["render", "2", "--out", str(svg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"render: cannot write {svg}: "
                                 "No such file or directory\n")


@pytest.mark.parametrize("argv, name", [
    (("2",), "render_2.svg"),
    (("2", "--billiard"), "render_2_billiard.svg"),
    (("0", "3"), "render_03.svg"),
    (("bottom", "--billiard"), "render_bottom_billiard.svg"),
    (("--u", "0"), "render_u0.svg"),
])
def test_render_matches_pinned_svg(tmp_path, capsys, argv, name):
    # the drawing, byte for byte as committed: every coordinate is printed
    # to 15 significant digits, so a change in the plane geometry shows here
    out = tmp_path / name
    assert main(["render", *argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (PINNED / name).read_bytes()


@pytest.mark.parametrize("argv, calls", [
    (("0", "3"), 20),  # strips of 8 and 12 crossings
    (("0", "3", "--billiard"), 60),  # and 5 x 8 reflections
])
def test_render_traces_each_orbit_once(tmp_path, monkeypatch, argv, calls):
    # every crossing and reflection asks tracer._exit_side once; the drawing
    # comes from the paths the traces recorded, not from a second walk
    count = 0
    exit_side = tracer._exit_side

    def counted(*args):
        nonlocal count
        count += 1
        return exit_side(*args)

    monkeypatch.setattr(tracer, "_exit_side", counted)
    assert main(["render", *argv, "--out", str(tmp_path / "o.svg")]) == EXIT_OK
    assert count == calls


def test_render_refuses_periods_above_the_limit(tmp_path, monkeypatch, capsys):
    # --u 1/1000 lies 80 digits deep; the limit is checked on its exact
    # periods before any strip is traced or any file written
    def must_not_trace(*args):
        raise AssertionError("traced past the period limit")

    monkeypatch.setattr(tracer, "_exit_side", must_not_trace)
    out = tmp_path / "o.svg"
    assert main(["render", "--u", "1/1000", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" has periods 196418000/317811000, above the "
                                 "limit of 10000\n")
    assert not out.exists()
