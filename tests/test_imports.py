"""The analytic path loads no numpy, no process pool and no record
machinery of the standard library, and the layer entry points that the
benchmark's traced runs wrap stay where their callers look them up."""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irasim
from irasim import _kernels, cli, harness

ROOT = Path(__file__).resolve().parents[1]
SIMULATION_MODULES = ("numpy", "irasim.traffic", "irasim.receiver", "irasim._kernels")
#: The standard library's data classes load the first two; ``typing`` costs
#: an interpreter without site hooks about 4 ms.
RECORD_MODULES = ("dataclasses", "inspect", "typing")

#: Every name ``irasim`` exported when its ``__init__`` imported them eagerly,
#: with the module that defines it.
PUBLIC_NAMES = {
    "channel": ("InterferenceTimeline", "avg_mutual_information", "build_timeline", "is_decodable"),
    "errorfloor": (
        "CollisionPattern",
        "FloorParams",
        "builtin_catalog",
        "count_configurations",
        "floor_params",
        "load_catalog",
        "plr_floor",
        "plr_regular",
        "plr_two_user",
        "vp_count",
        "vulnerable_fraction",
    ),
    "harness": ("ExperimentConfig", "PlrCurve", "parse_config_file", "predict", "sweep", "wilson_interval"),
    "model": ("DegreeDistribution", "SystemConfig", "TimeInterval", "validate_config"),
    "receiver": ("ReceiverState", "run_receiver", "sic_pass", "slide"),
    "traffic": ("TrafficTrace", "generate_trace", "sample_degrees"),
}

CONFIG_TEXT = """\
snr_db = 6.0
rate = 1.5
vf_span = 20
window_span = 3
window_step = 0.1
degree = 2 1.0
load_grid = 0.2
min_users_per_point = 10000
seed = 5
"""


def loaded_after(code: str, *argv: str, modules=SIMULATION_MODULES, flags=()) -> list[str]:
    """The ``modules`` present once ``code`` ran in a fresh interpreter
    started with the interpreter options ``flags``."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", probe, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_numpy():
    assert loaded_after("import irasim") == []


def test_analytic_commands_load_no_numpy(tmp_path):
    run = "import sys\nfrom irasim import cli\nassert cli.main(sys.argv[1:]) == 0"
    predict = ["predict", str(ROOT / "configs" / "irr1_tf200_r15.cfg"), "--out", str(tmp_path / "f.csv")]
    assert loaded_after(run, *predict) == []
    assert loaded_after(run, "verify-ucp", "--min-periods", "6", "--max-periods", "6") == []
    # the probe does see a module that is loaded
    assert loaded_after("from irasim import harness\nharness.point_seed(1, 0)") == ["numpy"]


def test_predict_loads_no_process_pool(tmp_path):
    # only a sweep needs an executor, a --jobs N sweep the pool, and only
    # the Wilson interval statistics
    run = "import sys\nfrom irasim import cli\nassert cli.main(sys.argv[1:]) == 0"
    predict = ["predict", str(ROOT / "configs" / "irr1_tf200_r15.cfg"), "--out", str(tmp_path / "f.csv")]
    modules = ("concurrent.futures", "concurrent.futures.process", "statistics")
    assert loaded_after(run, *predict, modules=modules) == []
    assert loaded_after(run, "verify-ucp", "--min-periods", "6", "--max-periods", "6", modules=modules) == []
    pool = "from irasim import harness\nharness._batch_executor(2).shutdown()"
    assert loaded_after(pool, modules=modules) == ["concurrent.futures", "concurrent.futures.process"]
    inline = "from irasim import harness\nharness._batch_executor(1).submit(int)"
    assert loaded_after(inline, modules=modules) == ["concurrent.futures"]


def test_analytic_commands_load_no_record_machinery(tmp_path):
    # -S: without site hooks, since a .pth file may preload typing and hide
    # a regression
    run = "import sys\nfrom irasim import cli\nassert cli.main(sys.argv[1:]) == 0"
    predict = ["predict", str(ROOT / "configs" / "irr1_tf200_r15.cfg"), "--out", str(tmp_path / "f.csv")]
    verify = ["verify-ucp", "--min-periods", "6", "--max-periods", "6"]
    for code, argv in (("import irasim.cli", []), (run, predict), (run, verify)):
        assert loaded_after(code, *argv, modules=RECORD_MODULES, flags=("-S",)) == [], argv
    # the probe does see them once loaded
    assert loaded_after("import dataclasses, typing", modules=RECORD_MODULES, flags=("-S",)) == list(RECORD_MODULES)


def test_sweep_loads_no_dataclasses(tmp_path):
    # with site hooks, as numpy needs site-packages; one stand-in batch per point
    code = (
        "import sys\n"
        "from irasim import cli, harness\n"
        "harness._simulate_batch = lambda *args: harness.BatchResult(10**6, 0, 10**6)\n"
        "assert cli.main(['sweep', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
    )
    cfg = str(ROOT / "configs" / "ira2_tf100_r15.cfg")
    assert loaded_after(code, cfg, str(tmp_path / "s.csv"), modules=("numpy", "dataclasses")) == ["numpy"]


def test_sweep_loads_the_simulation_before_the_pool():
    # the executor is where a --jobs N sweep forks its workers; stop there
    code = (
        "import sys\n"
        "from irasim import cli, harness\n"
        "class Stop(Exception):\n"
        "    pass\n"
        "def executor(jobs):\n"
        "    raise Stop\n"
        "harness._batch_executor = executor\n"
        "try:\n"
        "    cli.main(['sweep', sys.argv[1], '--jobs', '2', '--out', sys.argv[2]])\n"
        "except Stop:\n"
        "    pass\n"
    )
    cfg = str(ROOT / "configs" / "ira2_tf100_r15.cfg")
    assert loaded_after(code, cfg, os.devnull) == list(SIMULATION_MODULES)


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_resolve_to_home_module(module):
    home = importlib.import_module(f"irasim.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(irasim, name) is getattr(home, name), name
        assert name in irasim.__all__ and name in dir(irasim)
    with pytest.raises(AttributeError):
        irasim.no_such_name


def test_traced_entry_points_are_called(tmp_path, monkeypatch, capsys):
    """Wrapping each name where its caller looks it up sees every call."""
    calls = {}

    def count(module, attr):
        func = getattr(module, attr)

        @functools.wraps(func)
        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module, attr in (
        (harness, "generate_trace"),
        (harness, "run_sic_kernel"),
        (harness, "plr_floor"),
        (_kernels, "sic_sweep"),
        (cli, "count_configurations"),
        (cli, "parse_config_file"),
    ):
        count(module, attr)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(CONFIG_TEXT)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    sweep_calls = dict(calls)
    assert cli.main(["predict", str(cfg), "--out", str(tmp_path / "p.csv")]) == 0
    assert cli.main(["verify-ucp", "--min-periods", "6", "--max-periods", "6"]) == 0
    capsys.readouterr()
    batches = sweep_calls["generate_trace"]
    assert batches >= 1
    assert sweep_calls["run_sic_kernel"] == sweep_calls["sic_sweep"] == batches
    assert sweep_calls["plr_floor"] == 1 and calls["plr_floor"] == 2
    assert calls["parse_config_file"] == 2
    assert calls["count_configurations"] == len(irasim.builtin_catalog())
