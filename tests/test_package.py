"""The package surface: `import pentaflow` and `pentaflow.cli` load no
layer, each command loads only the layers it uses, and every re-exported
name is the object its owning module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pentaflow

#: the names `pentaflow` re-exports, by owning module
EXPORTS = {
    "golden": ["GoldenNum", "INFINITY", "MoebiusMap", "PentaNum", "ProjectivePoint",
               "R_MAP", "T_MAP"],
    "directions": ["BOTTOM", "DirectionIndex", "coordinate_of_index",
                   "index_of_coordinate", "neighbor_family", "pentagons_to_depth"],
    "orbits": ["CyclicWord", "OrbitVector", "apply_L", "billiard_multiplier", "check_M",
               "enhance", "orbit_of_index", "reduce_word", "roman_of_arabic",
               "rotate_alphabet", "vector_of"],
    "periods": ["PeriodPair", "arithmetic_family_check", "child_periods",
                "period_of_index"],
    "tracer": ["IETSpec", "PlanePoint", "TraceResult", "direction_of_coordinate",
               "direction_of_vector", "iet_build", "iet_orbit",
               "periodic_orbits_for_coordinate", "trace_billiard", "trace_surface"],
    "analysis": ["check_conjecture_concat", "check_conjecture_splitting",
                 "displacement", "length_report"],
}


def _modules_after(code: str, *flags: str) -> list[str]:
    """The modules loaded once code has run in a fresh interpreter."""
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    # the package under test first, then whatever PYTHONPATH the suite has
    path = [str(Path(pentaflow.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


def _package_modules_after(code: str) -> list[str]:
    return [m for m in _modules_after(code) if m.startswith("pentaflow")]


def test_import_loads_only_the_package_and_the_cli():
    # the parser needs no layer: golden and directions load with a command;
    # without site, nothing but the package could load the rationals
    loaded = _modules_after("import pentaflow, pentaflow.cli", "-S")
    assert [m for m in loaded if m.startswith("pentaflow")] == ["pentaflow", "pentaflow.cli"]
    assert "fractions" not in loaded and "decimal" not in loaded


def test_direction_loads_neither_the_tracer_nor_the_analysis():
    # nor the verification suites or the renderer
    assert _package_modules_after("from pentaflow import cli\n"
                                  "cli.main(['direction', '1', '2', '--json'])") == [
        "pentaflow", "pentaflow.cli", "pentaflow.directions", "pentaflow.golden",
        "pentaflow.orbits"]


def test_render_loads_no_verification_suite(tmp_path):
    out = tmp_path / "o.svg"
    assert _package_modules_after("from pentaflow import cli\n"
                                  f"cli.main(['render', '2', '--out', {str(out)!r}])") == [
        "pentaflow", "pentaflow.cli", "pentaflow.directions", "pentaflow.golden",
        "pentaflow.orbits", "pentaflow.periods", "pentaflow.render", "pentaflow.tracer"]
    assert out.exists()


def test_verify_periods_loads_neither_the_tracer_nor_the_renderer():
    assert _package_modules_after("from pentaflow import cli\n"
                                  "cli.main(['verify', '--depth', '2', "
                                  "'--suite', 'periods'])") == [
        "pentaflow", "pentaflow.cli", "pentaflow.directions", "pentaflow.golden",
        "pentaflow.orbits", "pentaflow.periods", "pentaflow.verify"]


def test_each_suite_the_parser_names_is_a_verify_suite(capsys):
    from pentaflow import cli, verify

    assert tuple(verify.SUITES) == cli.SUITE_NAMES
    assert all(callable(suite) for suite in verify.SUITES.values())
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--help"])
    assert e.value.code == 0
    listed = " ".join(capsys.readouterr().out.split())
    assert f"one of {', '.join(sorted(verify.SUITES))}; repeatable" in listed


def test_all_lists_the_42_exported_names():
    names = sorted(n for names in EXPORTS.values() for n in names)
    assert len(names) == 42
    assert sorted(pentaflow.__all__) == names


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_owning_modules_object(module):
    owner = importlib.import_module(f"pentaflow.{module}")
    assert getattr(pentaflow, module) is owner
    for name in EXPORTS[module]:
        assert getattr(pentaflow, name) is getattr(owner, name), name


def test_dir_and_star_import_cover_the_exports():
    listed = dir(pentaflow)
    for name in [*pentaflow.__all__, *EXPORTS, "cli", "verify", "render", "__version__"]:
        assert name in listed, name
    namespace = {}
    exec("from pentaflow import *", namespace)
    assert set(pentaflow.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pentaflow.no_such_name
    with pytest.raises(ImportError):
        exec("from pentaflow import no_such_name", {})


def test_the_benchmark_hooks_install():
    # bench/tracing.py wraps layer entry points and field and word methods by
    # name, so deleting a name it wraps fails here and not first in the
    # benchmark; a fresh interpreter, because install rebinds module names
    bench = Path(__file__).resolve().parents[1] / "bench"
    src = Path(pentaflow.__file__).parents[1]
    code = (f"import sys\nsys.path[:0] = [{str(bench)!r}, {str(src)!r}]\n"
            "import pentaflow, tracing\n"
            "recorder = tracing.Recorder(pentaflow)\n"
            "recorder.install()\n"
            "recorder.restore_classes()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
