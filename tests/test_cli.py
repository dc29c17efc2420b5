"""Command line behavior: subcommands, outputs, and exit codes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import faceid
import faceid.experiment
from faceid.cli import build_parser, main
from faceid.dataio import load_manifest, load_pgm
from faceid.errors import NumericError


def test_synth_then_bench_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--synthetic", "3,3,12x10", "--seed", "0", "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "6 train / 12 test images" in out
    manifest = data / "manifest.txt"
    assert manifest.is_file()
    ds = load_manifest(manifest)
    assert len(ds.split("train")) == 6
    assert len(ds.split("test")) == 12
    code = main(
        ["bench", "--manifest", str(manifest), "--method", "CR-RLS", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CR-RLS: accuracy" in out
    assert "12 solves" in out


def test_bench_synthetic_writes_report(tmp_path, capsys):
    code = main(
        [
            "bench", "--synthetic", "3,3,12x10", "--method", "CR-RLS",
            "--seed", "0", "--seed", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "report.csv" in out
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header.startswith("# faceid report v1 method=CR-RLS seeds=0,1")


def test_bench_export_weights_writes_maps(tmp_path):
    code = main(
        [
            "bench", "--export-weights", "--synthetic", "3,3,12x10", "--method", "F-LR-IRNNLS",
            "--occlusion", "0.3", "--seed", "0", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    maps = sorted(tmp_path.glob("*_w.pgm"))
    assert len(maps) == 12
    assert maps[0].name == "s0-t0000_w.pgm"
    assert load_pgm(maps[0]).shape == (12, 10)


def test_bench_export_weights_without_out_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--synthetic", "3,3,12x10", "--occlusion", "0.3", "--export-weights"])
    assert code == 2
    assert "output directory" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.pgm"))


def test_solve_single_image(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--synthetic", "3,3,12x10", "--seed", "0", "--out", str(data)])
    capsys.readouterr()
    image = data / "test" / "c00_00.pgm"
    wm = tmp_path / "wm.pgm"
    code = main(
        [
            "solve", "--manifest", str(data / "manifest.txt"), "--image", str(image),
            "--method", "F-IRNNLS", "--weight-map", str(wm),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "class 0" in out
    assert wm.is_file()
    assert load_pgm(wm).shape == (12, 10)


def test_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["bench", "--manifest", str(tmp_path / "gone.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_manifest_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("train,only-two-fields\n")
    assert main(["bench", "--manifest", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_occlusion_exits_2(capsys):
    assert main(["bench", "--synthetic", "3,3,12x10", "--occlusion", "1.5"]) == 2
    assert "occlusion" in capsys.readouterr().err


def test_contradictory_bench_flags_exit_2(capsys):
    base = ["bench", "--synthetic", "3,3,12x10", "--method", "CR-RLS"]
    for extra, message in (
        (["--resize", "6x5"], "resize"),
        (["--patch", "/nonexistent.pgm"], "patch"),
        (["--seed", "1", "--seed", "1"], "distinct"),
        (["--lambda-reg", "0", "--occlusion", "0.3"], "lambda_reg"),
    ):
        assert main(base + extra) == 2
        assert message in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--synthetic", "3,3,12x10", "--seed", "-2", "--out", str(data)]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not data.exists()
    main(["synth", "--synthetic", "3,3,12x10", "--seed", "0", "--out", str(data)])
    capsys.readouterr()
    for source in (["--synthetic", "3,3,12x10"], ["--manifest", str(data / "manifest.txt")]):
        code = main(["bench", *source, "--method", "CR-RLS", "--occlusion", "0.3", "--seed", "-1"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err


def test_numeric_failure_exits_3(monkeypatch, capsys):
    def broken(config):
        raise NumericError("all 12 solves failed")

    monkeypatch.setattr(faceid.experiment, "run_experiment", broken)
    assert main(["bench", "--synthetic", "3,3,12x10"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--synthetic", "3,3,12x10", "--method", "PCA"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--synthetic", "not-a-spec"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--manifest", "x.csv", "--resize", "12by10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench"])  # no dataset source
    assert exc.value.code == 2


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("bench", "solve", "synth"):
        assert name in text


def _declared_entry_point(name):
    """Return the ``module:attr`` target that pyproject.toml declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_smoke(tmp_path):
    # Run the declared [project.scripts] target the way the setuptools-generated
    # wrapper does, so the check needs no install of the package.
    module, _, attr = _declared_entry_point("faceid").partition(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'faceid'; sys.exit({attr}())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(faceid.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Robust face identification" in proc.stdout
    assert proc.stdout.startswith("usage: faceid")


@pytest.mark.skipif(shutil.which("faceid") is None, reason="faceid console script not installed")
def test_installed_console_script_smoke():
    proc = subprocess.run(
        ["faceid", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "Robust face identification" in proc.stdout
