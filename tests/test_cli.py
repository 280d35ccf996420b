import json
import os
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import pytest

from pentaflow import analysis, orbits, periods, tracer
from pentaflow.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    unwritable,
)
from pentaflow.directions import DirectionIndex, coordinate_of_index
from pentaflow.golden import GoldenNum
from pentaflow.orbits import orbit_of_index, roman_of_arabic

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
    # int() reads an Arabic-Indic and a fullwidth three as 3; an index's
    # digits are 0-9 alone
    for digits in ("9", "5", "\u0663", "\uff13", "1\u0663"):
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

    # --json: the text json.dumps gives the list of symbols, in either alphabet
    w = orbit_of_index(DirectionIndex((1, 2, 1)), "long")
    for alphabet, word in (("arabic", w), ("roman", roman_of_arabic(w))):
        code, out = run(capsys, "orbit", "121", "--long", f"--{alphabet}", "--json")
        want = {"index": "121", "kind": "long", "alphabet": alphabet, "word": list(word.symbols)}
        assert code == EXIT_OK and out == json.dumps(want) + "\n"


def test_orbit_json_makes_no_int_per_symbol(monkeypatch):
    """orbit --json writes the symbols through one translate table: the
    depth-9 long word of 121212121, three characters a symbol, written to
    devnull, peaks below ten bytes per character (a list of ints peaked at
    26)."""
    w = orbit_of_index(DirectionIndex.parse("121212121"), "long")
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["orbit", "121212121", "--long", "--json"]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 10 * 3 * len(w), (peak, len(w))


def test_a_closed_stdout_exits_as_sigpipe():
    # the reader takes 10 bytes of a 2.3 MB word and closes the pipe: the
    # writer exits 141, as a shell reports a writer stopped by SIGPIPE,
    # with no traceback
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    proc = subprocess.Popen([sys.executable, "-m", "pentaflow.cli", "orbit",
                             "121212121212", "--long"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""


def test_verify_table(capsys):
    code, out = run(capsys, "verify", "--depth", "1", "--suite", "table")
    assert code == EXIT_OK
    assert "9 checked, 0 failures" in out


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
    # a wrong period (the oracle suite) or multiplier (the billiard) at
    # index 2 fails its own row: no trace is capped by it, so the other
    # directions are still checked and the ledger written
    two = DirectionIndex((2,))
    if suite == "orbits-vs-oracle":
        period = periods.period_of_index
        monkeypatch.setattr(periods, "period_of_index", lambda idx: (
            periods.PeriodPair(2, 5) if idx == two else period(idx)))
        want = {"case": "2", "ok": False}
    else:
        mult, at_two = orbits.billiard_multiplier, set(orbits.vectors_of_index(two))
        monkeypatch.setattr(analysis, "billiard_multiplier",
                            lambda v: 5 if v in at_two else mult(v))
        want = {"case": "2", "ok": False, "multiplier": 5}
    out = tmp_path / "ledger.json"
    code, stdout = run(capsys, "verify", "--depth", "1", "--suite", suite,
                       "--json-out", str(out))
    assert code == EXIT_VERIFY
    assert stdout == f"suite {suite}: 4 checked, 1 failures\n"
    rows = json.loads(out.read_text())[suite]["rows"]
    assert {r["case"]: r for r in rows}["2"] == want
    assert sum(r["ok"] for r in rows) == 3


@pytest.mark.parametrize("fault", ["cell", "displacement"])
def test_verify_oracle_row_checks_the_geometry(fault, tmp_path, monkeypatch, capsys):
    # at index 2, a short strip's cell narrowed to half its width (unequal
    # moduli), or the engine's long displacement off by one symbol's
    # vector, fails that row alone; the words and periods still agree
    two = DirectionIndex((2,))
    if fault == "cell":
        search, x2 = tracer.strip_cells_for_coordinate, coordinate_of_index(two).value

        def narrowed(x):
            (lo, hi, s_tr), long = search(x)
            return [(lo, (lo + hi) / GoldenNum.of(2) if x == x2 else hi, s_tr), long]
        monkeypatch.setattr(tracer, "strip_cells_for_coordinate", narrowed)
    else:
        exact, (_, long_two) = analysis.displacement, orbits.vectors_of_index(two)
        one = exact(orbits.OrbitVector(1, 0, 0, 0))
        monkeypatch.setattr(analysis, "displacement", lambda v: (
            exact(v) + one if v == long_two else exact(v)))
    out = tmp_path / "ledger.json"
    code, stdout = run(capsys, "verify", "--depth", "1", "--suite", "orbits-vs-oracle",
                       "--json-out", str(out))
    assert code == EXIT_VERIFY
    assert stdout == "suite orbits-vs-oracle: 4 checked, 1 failures\n"
    rows = json.loads(out.read_text())["orbits-vs-oracle"]["rows"]
    assert [r for r in rows if not r["ok"]] == [{"case": "2", "ok": False}]


def test_verify_budget_exhausted(monkeypatch, capsys):
    # verify has no budget exit: a strip trace still open at its cap means
    # the tracer contradicts itself, and its ArithmeticError propagates out
    # of the suite before any line is printed
    trace = tracer.trace_surface
    monkeypatch.setattr(tracer, "trace_surface",
                        lambda start, direction, max_crossings: trace(start, direction, 1))
    with pytest.raises(ArithmeticError):
        main(["verify", "--depth", "1", "--suite", "orbits-vs-oracle"])
    assert capsys.readouterr().out == ""


def test_verify_searches_each_directions_strips_once(tmp_path, monkeypatch, capsys):
    # orbits-vs-oracle and billiard read the same strip search of each of
    # the 16 directions to depth 2, and give the rows each gives alone;
    # analysis binds the search at import, so both names are counted
    count = 0
    search = tracer.strip_cells_for_coordinate

    def counted(x):
        nonlocal count
        count += 1
        return search(x)

    monkeypatch.setattr(tracer, "strip_cells_for_coordinate", counted)
    monkeypatch.setattr(analysis, "strip_cells_for_coordinate", counted)
    suites = ("billiard", "orbits-vs-oracle")
    ledgers = {}
    for run_of in (suites, *((n,) for n in suites)):
        out = tmp_path / f"{'+'.join(run_of)}.json"
        count = 0
        code, stdout = run(capsys, "verify", "--depth", "2",
                           *(a for n in run_of for a in ("--suite", n)),
                           "--json-out", str(out))
        assert code == EXIT_OK and count == 16
        assert stdout == "".join(f"suite {n}: 16 checked, 0 failures\n" for n in run_of)
        ledgers[run_of] = json.loads(out.read_text())
    assert ledgers[suites] == {n: ledgers[(n,)][n] for n in suites}


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
    assert main(["render", "2", "--billiard", "--out", str(out2)]) == EXIT_OK
    # the billiard's cap is five periods of the short strip, as
    # analysis.strip_billiard caps it
    assert capsys.readouterr().err == (
        "render: index 2, periods 2/4: tracing strips of 4 and 8 crossings "
        "and a billiard of at most 20 reflections\n")
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

    # an empty path names no file: refused before any suite runs or any
    # strip is traced (render says "tracing strips" first when it traces)
    assert main(["verify", "--depth", "1", "--suite", "periods", "--json-out", ""]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "verify: cannot write ledger : No such file or directory\n")
    assert main(["render", "2", "--out", ""]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "render: cannot write : No such file or directory\n")


def test_unwritable_judges_an_existing_file_by_its_own_mode(tmp_path, monkeypatch, capsys):
    # os.access is patched, since a superuser may write any file: a
    # read-only file in a writable directory is refused before any work, a
    # writable file in a read-only directory is written, and a new file is
    # judged by its directory
    (tmp_path / "open").mkdir()
    (tmp_path / "locked").mkdir()
    ro, rw = tmp_path / "open" / "ro.json", tmp_path / "locked" / "rw.json"
    ro.write_text("")
    rw.write_text("")
    denied = {str(ro), str(tmp_path / "locked")}
    monkeypatch.setattr(os, "access", lambda path, mode: str(path) not in denied)
    assert unwritable(str(ro)) == "Permission denied"
    assert unwritable(str(rw)) is None
    assert unwritable(str(tmp_path / "locked" / "new.json")) == "Permission denied"
    assert unwritable(str(tmp_path / "open" / "new.json")) is None
    assert main(["render", "2", "--out", str(ro)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"render: cannot write {ro}: Permission denied\n")
    assert main(["verify", "--depth", "1", "--suite", "table",
                 "--json-out", str(rw)]) == EXIT_OK
    assert json.loads(rw.read_text())["table"]["failures"] == 0
    assert ro.read_text() == ""


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
