import contextlib
import io
import json
import math
import os
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdmart.cli import build_parser, main


def test_verify_passes(capsys):
    assert main(["verify", "--budget", "50000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_certify_writes_artifact(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "certify", "--model", "rademacher",
                 "--n", "100"]) == 0
    doc = json.loads((tmp_path / "certificate_rademacher_n100.json").read_text())
    assert doc["N"] == 0.0 and doc["eps_n"] == doc["L"] / 10.0


def test_tail_byte_identical(tmp_path):
    # exactly the same config twice; the artifact is overwritten in place
    args = ["--out", str(tmp_path), "--seed", "3", "tail", "--model",
            "rademacher", "--n", "100", "--x", "0:1:0.5", "--budget", "5000"]
    target = tmp_path / "tail_rademacher_n100_seed3.csv"
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args) == 0
    assert target.read_bytes() == first


def test_adjacent_seeds_draw_distinct_rows(tmp_path, capsys):
    # row i of a report draws from the streams of (seed, i), so the second
    # row of seed 3 and the first row of seed 4 share no stream
    def last_row(seed, grid):
        assert main(["--out", str(tmp_path), "--seed", str(seed), "tail",
                     "--n", "400", "--x", grid, "--budget", "20000"]) == 0
        path = tmp_path / f"tail_rademacher_n400_seed{seed}.csv"
        lines = path.read_text().splitlines()
        return dict(zip(lines[1].split(","), lines[-1].split(",")))

    first, second = last_row(3, "0.5,1.0"), last_row(4, "1.0")
    assert first["x"] == second["x"] == "1.0"
    assert first["p_hat"] != second["p_hat"] and first["ess"] != second["ess"]
    assert (first["seed"], second["seed"]) == ("3", "4")


def test_every_csv_field_parses(tmp_path):
    # one writer for every artifact: '\n' line ends, every field a number
    for argv in (["tail", "--n", "100", "--x", "0.5,1", "--budget", "2000"],
                 ["mdp", "--n-list", "100", "--budget", "2000"],
                 ["couple", "--n-list", "100"],
                 ["mixing", "--n", "2000", "--x", "0.5", "--budget", "2000"]):
        assert main(["--out", str(tmp_path)] + argv) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 4
    for path in paths:
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0].startswith("# ")
        for line in lines[2:]:
            [float(v) for v in line.split(",")]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["tail", "--model", "rademacher", "--n", "0"]) == 2
    assert main(["mdp", "--rule", "n^0.75"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["--workers", "2", "verify"]) == 2
    assert main(["mixing", "--budget", "0"]) == 2
    assert main(["verify", "--budget", "0"]) == 2
    for rho in ("0", "-1", "nan"):
        assert main(["--out", str(tmp_path), "certify", "--rho", rho]) == 2
        assert main(["--out", str(tmp_path), "tail", "--rho", rho]) == 2
    # bad numbers are refused where they enter, before any sampling
    for argv in (["tail", "--x", "0:4:0"], ["tail", "--x", "0:4:-1"],
                 ["tail", "--x", "0:nan:0.5"], ["tail", "--x", "inf"],
                 ["tail", "--x", "0.5,nan"], ["mixing", "--x", "nan"],
                 ["tail", "--c", "nan"], ["tail", "--c", "0"],
                 ["couple", "--alpha", "-1"], ["couple", "--alpha", "nan"],
                 ["couple", "--alpha", "inf"], ["couple", "--alpha", "1"],
                 ["mdp", "--b", "inf"], ["tail", "--budget", str(2 ** 63)],
                 ["mdp", "--budget", str(2 ** 63)],
                 ["verify", "--budget", str(2 ** 63)]):
        assert main(["--out", str(tmp_path)] + argv) == 2, argv
        assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_large_x(tmp_path, capsys):
    # past e^709 the envelope bounds nothing and is written (0, inf); an x
    # whose 1 - Phi(x) underflows to 0 has no ratio and is a usage error
    assert main(["--out", str(tmp_path), "tail", "--x", "20", "--budget", "2000"]) == 0
    lines = (tmp_path / "tail_rademacher_n400_seed0.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert (float(row["bound_lo"]), float(row["bound_hi"])) == (0.0, math.inf)
    assert main(["--out", str(tmp_path), "mixing", "--n", "2000", "--x", "16",
                 "--budget", "2000"]) == 0
    out = tmp_path / "large"
    for argv in (["tail", "--x", "40", "--budget", "2000"],
                 ["mixing", "--n", "2000", "--x", "40", "--budget", "2000"]):
        capsys.readouterr()
        assert main(["--out", str(out)] + argv) == 2, argv
        err = capsys.readouterr().err
        assert "usage error: x = 40.0" in err and "Traceback" not in err
    assert not out.exists()


def test_bad_x_refused_before_estimating(tmp_path, capsys, monkeypatch):
    # the grid's x from 38 on have no ratio (1 - Phi(x) underflows past
    # 37.68), so the grid is refused before any of its 76 good rows is
    # estimated: no estimate, exit 2 and no artifact
    from mdmart import montecarlo
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    estimate = montecarlo.estimate_tail_tilted
    monkeypatch.setattr(montecarlo, "estimate_tail_tilted", counted)
    out = tmp_path / "grid"
    assert main(["--out", str(out), "tail", "--x", "0:40:0.5"]) == 2
    assert "usage error: x = 38.0" in capsys.readouterr().err
    assert calls == [] and not out.exists()


# small valid runs of every command; the property test below spoils one flag
BASE_ARGS = {
    "verify": ["verify", "--budget", "2000"],
    "certify": ["certify", "--n", "50"],
    "tail": ["tail", "--n", "50", "--x", "0.5", "--budget", "500"],
    "mdp": ["mdp", "--n-list", "100", "--budget", "500"],
    "couple": ["couple", "--n-list", "100"],
    "mixing": ["mixing", "--n", "2000", "--x", "0.5", "--budget", "500"],
}
MODELS = ("rademacher", "heavy_left", "regime_switch")
NAN = st.just(math.nan)
# text that parses as no number at all
JUNK = st.sampled_from(["", "abc", "1e", "0x1"])


def floats_outside(lo, hi, lo_closed=False, hi_closed=False):
    """Floats outside the interval from lo to hi (open at each end unless
    closed there), the infinities among them, and NaN."""
    return st.one_of(st.floats(max_value=lo, exclude_max=lo_closed),
                     st.floats(min_value=hi, exclude_min=hi_closed), NAN)


@st.composite
def bad_grids(draw):
    """Grid specs with a value that is not finite, a step that is not
    positive, or an end below the start."""
    finite = st.floats(-10.0, 10.0)
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    kind = draw(st.sampled_from(["list", "value", "step", "ends"]))
    if kind == "list":
        values = draw(st.lists(finite, max_size=3))
        values.insert(draw(st.integers(0, len(values))), draw(non_finite))
        return ",".join(map(repr, values))
    a, b = sorted([draw(finite), draw(finite)])
    if kind == "value":
        return f"{a!r}:{draw(non_finite)!r}:0.5"
    if kind == "step":
        return f"{a!r}:{b!r}:{draw(st.floats(max_value=0.0)|non_finite)!r}"
    return f"{b + 1.0!r}:{a!r}:0.5"


def ints_below(bound):
    return st.integers(max_value=bound - 1).map(str)


SEEDS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 63)).map(str)
# the bad values of every numeric flag, per command; --gamma and
# --tail-atoms are read only by the model that has them, and --seed is
# refused by every command, also by those that draw nothing
BAD_INPUTS = {
    "verify": {"--budget": ints_below(1), "--seed": SEEDS},
    "certify": {"--n": ints_below(1), "--rho": floats_outside(0.0, 1.0, hi_closed=True),
                "--gamma": floats_outside(0.0, 0.5, lo_closed=True),
                "--tail-atoms": ints_below(2), "--seed": SEEDS},
    "tail": {"--n": ints_below(1), "--rho": floats_outside(0.0, 1.0, hi_closed=True),
             "--gamma": floats_outside(0.0, 0.5, lo_closed=True),
             "--tail-atoms": ints_below(2), "--x": bad_grids(),
             "--budget": ints_below(1), "--c": floats_outside(0.0, math.inf),
             "--seed": SEEDS},
    "mdp": {"--n-list": ints_below(1), "--b": st.one_of(st.floats(max_value=-1e-300), NAN,
                                                         st.just(math.inf)),
            "--rule": floats_outside(0.0, 0.5).map(lambda g: f"n^{g!r}"),
            "--budget": ints_below(1), "--seed": SEEDS},
    "couple": {"--n-list": ints_below(2), "--alpha": floats_outside(0.0, 1.0),
               "--seed": SEEDS},
    "mixing": {"--a": floats_outside(0.0, 1.0), "--b-prob": floats_outside(0.0, 1.0),
               "--n": ints_below(1), "--alpha": floats_outside(0.0, 0.5, hi_closed=True),
               "--x": bad_grids(), "--budget": ints_below(1), "--seed": SEEDS},
}


@st.composite
def bad_commands(draw):
    command = draw(st.sampled_from(sorted(BAD_INPUTS)))
    flag = draw(st.sampled_from(sorted(BAD_INPUTS[command])))
    value = draw(st.one_of(BAD_INPUTS[command][flag].map(
        lambda v: v if isinstance(v, str) else repr(v)), JUNK))
    argv = list(BASE_ARGS[command])
    if command in ("certify", "tail"):
        model = {"--gamma": "regime_switch", "--tail-atoms": "heavy_left"}.get(
            flag, draw(st.sampled_from(MODELS)))
        argv += ["--model", model]
    if flag == "--seed":
        return [f"--seed={value}"] + argv
    return argv + [f"{flag}={value}"]


@settings(max_examples=150, deadline=None)
@given(bad_commands())
# each of these wrote an artifact or printed a traceback before it was refused
@example(["--seed=-1", *BASE_ARGS["couple"]])
@example(["--seed=-1", *BASE_ARGS["certify"]])
@example([*BASE_ARGS["couple"], "--alpha=1"])
@example([f"--seed={2 ** 63}", *BASE_ARGS["tail"]])
@example([*BASE_ARGS["tail"], "--c=inf"])
@example([*BASE_ARGS["tail"], "--x=1:0:0.5"])
@example([*BASE_ARGS["mixing"], "--n=0"])
@example([*BASE_ARGS["mixing"], "--n=-1"])
def test_bad_numbers_exit_2(argv):
    # every bad number given to any command is a usage error: exit 2, no
    # traceback and no artifact
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--out", out] + argv)
        assert code == 2, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not os.listdir(out), argv


def test_failed_certification_exits_1(tmp_path, capsys):
    # the moment condition fails on every grid point at rho = 0.001, so
    # `tail` stops where `certify` does: exit 1, one FAIL line, no artifact
    for command in ("certify", "tail"):
        assert main(["--out", str(tmp_path), command, "--model", "rademacher",
                     "--rho", "0.001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAIL certification: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_model_defaults(tmp_path, capsys):
    # an unset --rho takes each model's own default, and the header records it
    assert main(["--out", str(tmp_path), "certify", "--model", "heavy_left"]) == 0
    doc = json.loads((tmp_path / "certificate_heavy_left_n400.json").read_text())
    assert doc["rho"] == 0.5
    assert main(["--out", str(tmp_path), "tail", "--model", "heavy_left",
                 "--n", "50", "--x", "0.5", "--budget", "500"]) == 0
    header = (tmp_path / "tail_heavy_left_n50_seed0.csv").read_text()
    assert json.loads(header.splitlines()[0][2:])["rho"] == 0.5


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "budget": 4000}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "tail",
                 "--model", "rademacher", "--x", "0.5"]) == 0
    assert (tmp_path / "tail_rademacher_n100_seed0.csv").exists()
    # flags on the command line win over the config, in either spelling
    assert main(["--config", str(cfg), "--out", str(tmp_path), "tail",
                 "--model", "rademacher", "--x", "0.5", "--n=50"]) == 0
    assert (tmp_path / "tail_rademacher_n50_seed0.csv").exists()
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"tail_atoms": 5, "n": 100, "budget": 4000}))
    assert main(["--config", str(atoms), "--out", str(tmp_path), "tail",
                 "--model", "heavy_left", "--rho", "0.5", "--x", "0.5",
                 "--tail-atoms", "3"]) == 0
    header = (tmp_path / "tail_heavy_left_n100_seed0.csv").read_text()
    assert json.loads(header.splitlines()[0][2:])["tail_atoms"] == 3
    bad = tmp_path / "bad.json"
    for doc in ({"no_such_flag": 1}, {"n": "abc"}, {"n": 1.5}):
        bad.write_text(json.dumps(doc))
        assert main(["--config", str(bad), "tail", "--x", "0.5"]) == 2
        assert "Traceback" not in capsys.readouterr().err
    assert main(["--config", str(bad), "verify"]) == 2


def test_mixing_command(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "mixing", "--n", "2000",
                 "--budget", "10000", "--x", "0.5"]) == 0
    info = json.loads((tmp_path / "mixing_n2000_seed0_info.json").read_text())
    assert info["m"] == 9 and info["k"] == 111
    # 111 blocks = 13 draws of 8 blocks, then 4, 2 and 1
    assert info["blocks_per_draw"] == 8 and info["draws_per_path"] == 16


def test_readme_commands_parse(monkeypatch):
    # every `mdmart ...` command in the README parses; "$n" is a shell loop
    # variable in the Experiments section
    monkeypatch.setenv("n", "100")
    text = (Path(__file__).parent.parent / "README.md").read_text()
    commands = [shlex.split(os.path.expandvars(line.strip()), comments=True)
                for line in text.replace("\\\n", " ").splitlines()
                if line.strip().startswith("mdmart ")]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
    assert len(commands) >= 9
