import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sorank
from oracles import is_contained_in_dual
from sorank import cli
from sorank.balls import iter_rref
from sorank.construct import sample_code_star, so_code, uniform_linear_code
from sorank.fields import ext_field, field_from_q
from sorank.words import LinearCode, dump_code, is_self_orthogonal

BASE = [sys.executable, "-m", "sorank.cli"]
# The CLI subprocess imports the same sorank as the tests, from a checkout too.
SRC = str(Path(sorank.__file__).parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=""):
    return subprocess.run(
        BASE + list(args), input=stdin, capture_output=True, text=True, timeout=120, env=ENV
    )


def test_construct_verify_roundtrip():
    out = run_cli("construct", "--q", "2", "--n", "2", "--m", "4", "--k", "3", "--seed", "1")
    assert out.returncode == 0
    assert out.stdout.startswith("repr=matrix q=2 m=4 n=2 k=3\n")
    ver = run_cli("verify", stdin=out.stdout)
    assert ver.returncode == 0
    assert ver.stdout == "OK\n"


def test_construct_vector_repr():
    out = run_cli("construct", "--repr", "vector", "--q", "3", "--n", "5", "--m", "2", "--k", "2")
    assert out.returncode == 0
    assert out.stdout.startswith("repr=vector q=3 m=2 n=5 k=2\n")
    assert run_cli("verify", stdin=out.stdout).returncode == 0


def test_construct_is_deterministic():
    a = run_cli("construct", "--q", "2", "--n", "2", "--m", "4", "--k", "3", "--seed", "9")
    b = run_cli("construct", "--q", "2", "--n", "2", "--m", "4", "--k", "3", "--seed", "9")
    assert a.stdout == b.stdout


def test_verify_flags_violations():
    bad = "repr=matrix q=3 m=2 n=2 k=1\n1 0 0 1\n"  # identity, <I,I> = 2 != 0
    out = run_cli("verify", stdin=bad)
    assert out.returncode == 1
    assert out.stdout.startswith("violated:")


def test_verify_flags_a_vector_code_violation():
    bad = "repr=vector q=2 m=2 n=2 k=1\n1 0\n"  # <(1, 0), (1, 0)> = 1 in GF(4)
    out = run_cli("verify", stdin=bad)
    assert out.returncode == 1
    assert out.stdout == "violated: basis pair with nonzero inner product\n"


def _verify_codes():
    """Every code of criterion 6's grid (GF(2), 2 x 2, k <= 2), then seeded
    codes of the three ensembles over GF(2), GF(3) and GF(4), as 2 x 3
    matrices and as GF(q^2)-linear vectors of length 5, with k = 0..2
    (code-star from 1): the uniform codes are mostly not self-orthogonal."""
    F2 = field_from_q(2)
    for k in (0, 1, 2):
        yield from (LinearCode(rows, F2, 2, 2) for rows in iter_rref(F2, k, 4))
    for q in (2, 3, 4):
        field = field_from_q(q)
        for n, m, ext in ((2, 3, None), (5, 2, ext_field(q, 2))):
            kwargs = {"repr": "matrix" if ext is None else "vector", "ext": ext}
            for seed, k in itertools.product(range(3), (0, 1, 2)):
                rng = random.Random(seed)
                yield so_code(field, n, m, k, rng, **kwargs)
                yield uniform_linear_code(field, n, m, k, rng, **kwargs)
                if k:
                    yield sample_code_star(field, n, m, k, rng, **kwargs)


def test_verify_is_the_self_orthogonality_check(monkeypatch, capsys):
    # load_code keeps only independent rows, and for those C lies in its
    # dual exactly when every basis pair is orthogonal: the dual-containment
    # oracle agrees with is_self_orthogonal, and verify prints its verdict.
    verdicts = []
    for code in _verify_codes():
        so = is_self_orthogonal(code)
        assert so == is_contained_in_dual(code), dump_code(code)
        monkeypatch.setattr(sys, "stdin", io.StringIO(dump_code(code)))
        want = (0, "OK\n") if so else (1, "violated: basis pair with nonzero inner product\n")
        assert (cli.main(["verify"]), capsys.readouterr().out) == want, dump_code(code)
        verdicts.append(so)
    assert len(verdicts) == 51 + 3 * 2 * 3 * 8
    assert 0 < sum(verdicts) < len(verdicts)


def test_dual_pipeline():
    code = run_cli("construct", "--q", "2", "--n", "2", "--m", "2", "--k", "1").stdout
    d = run_cli("dual", stdin=code)
    assert d.returncode == 0
    assert "k=3" in d.stdout.splitlines()[0]
    dd = run_cli("dual", stdin=d.stdout)
    assert "k=1" in dd.stdout.splitlines()[0]


def test_ball_exact_and_bound():
    out = run_cli("ball", "--q", "2", "--n", "2", "--m", "2", "--r", "1", "--exact")
    assert out.returncode == 0 and out.stdout == "10\n"
    out = run_cli("ball", "--q", "2", "--n", "2", "--m", "2", "--tau", "0.5", "--bound")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "tau,r,log_q_exact,log_q_bound"
    tau, r, ex, bd = lines[1].split(",")
    assert float(ex) <= float(bd)


def test_ball_tall_shape_and_missing_radius():
    out = run_cli("ball", "--q", "2", "--n", "3", "--m", "2", "--r", "1", "--exact")
    assert out.returncode == 0 and out.stdout == "22\n"
    for extra in ([], ["--exact"]):
        out = run_cli("ball", "--q", "2", "--n", "3", "--m", "2", *extra)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr == "error: E_PARAM: ball needs --r, or --bound with --tau\n"


@pytest.mark.parametrize(
    "argv,line",
    [
        (["ball", "--q", "2", "--n", "2", "--m", "2", "--bound"], "error: E_PARAM: --bound requires --tau\n"),
        (
            ["roots", "--q", "3", "--nvars", "2", "--coeffs", "1,x"],
            "error: E_FORMAT: coefficients must be comma-separated integers\n",
        ),
    ],
    ids=["ball-bound-without-tau", "roots-non-integer-coefficient"],
)
def test_domain_errors_print_one_line(argv, line, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == line


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "6", "--n", "2", "--m", "2", "--r", "1"],
        ["--q", "0", "--n", "2", "--m", "2", "--r", "1"],
        ["--q", "1", "--n", "2", "--m", "2", "--r", "1"],
        ["--q", "2", "--n", "2", "--m", "0", "--tau", "0.5", "--bound"],
        ["--q", "2", "--n", "0", "--m", "2", "--r", "0"],
    ],
    ids=["q-not-prime-power", "q-zero", "q-one", "m-zero-bound", "n-zero"],
)
def test_ball_rejects_bad_parameters(argv, capsys):
    assert cli.main(["ball", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: E_PARAM: ") and err.count("\n") == 1


def test_ball_takes_any_prime_power(capsys):
    # A ball size is a count: q is checked as a prime power, with no field
    # tables built, so a q beyond the 2^20 table limit is counted too.
    assert cli.main(["ball", "--q", str(2**21), "--n", "1", "--m", "1", "--r", "1"]) == 0
    assert capsys.readouterr().out == f"{2**21}\n"


def test_roots_command():
    out = run_cli("roots", "--q", "5", "--nvars", "2", "--coeffs", "1,0,1", "--sample", "--nonzero")
    assert out.returncode == 0
    got = dict(ln.split("=", 1) for ln in out.stdout.splitlines())
    assert got["rank"] == "2"
    assert got["brute"] == "9"
    assert got["formula"] == "1,9"
    x = [int(v) for v in got["root"].split()]
    assert (x[0] ** 2 + x[1] ** 2) % 5 == 0 and any(x)


def test_failing_command_writes_nothing_to_stdout():
    # The rank and root counts are computed before the sample fails; none of
    # them may reach stdout.
    out = run_cli("roots", "--q", "2", "--nvars", "1", "--coeffs", "1", "--sample", "--nonzero")
    assert out.returncode == 1
    assert out.stderr == "error: E_PARAM: no root exists (nonzero)\n"
    assert out.stdout == ""


def test_selfdual_basis_command():
    out = run_cli("selfdual-basis", "--q", "2", "--m", "2")
    assert out.returncode == 0
    assert sorted(out.stdout.split()) == ["2", "3"]
    out = run_cli("selfdual-basis", "--q", "3", "--m", "2")
    assert out.returncode == 0 and out.stdout == "absent\n"
    out = run_cli("selfdual-basis", "--q", "8", "--m", "5", "--seed", "0")
    assert out.returncode == 0
    assert ext_field(8, 5).is_self_dual_basis([int(b) for b in out.stdout.split()])
    assert run_cli("selfdual-basis", "--q", "8", "--m", "5", "--seed", "5").stdout == out.stdout


def test_error_reporting_and_exit_codes():
    out = run_cli("construct", "--q", "6", "--n", "2", "--m", "2", "--k", "1")
    assert out.returncode == 1
    assert out.stderr.startswith("error: E_PARAM:")
    assert out.stdout == ""
    usage = run_cli("nonsense")
    assert usage.returncode == 2


def test_experiment_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\nseed=42\n# comment\n")
    hist = tmp_path / "hist.csv"
    out = run_cli("experiment", "--config", str(cfg), "--emit-hist", str(hist))
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "trial,list_size,center_rank,code_seed"
    assert lines[-1].startswith("# summary ")
    assert "resolved config" in out.stderr and "wall time" in out.stderr
    assert hist.read_text().startswith("list_size,count\n")
    again = run_cli("experiment", "--config", str(cfg))
    assert again.stdout == out.stdout


def test_experiment_unwritable_histogram_path(tmp_path):
    # A histogram path under a missing directory is a domain error naming
    # the path, not a traceback, and the report stays off stdout.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\nseed=42\n")
    hist = tmp_path / "missing" / "hist.csv"
    out = run_cli("experiment", "--config", str(cfg), "--emit-hist", str(hist))
    assert out.returncode == 1 and out.stdout == ""
    assert "Traceback" not in out.stderr
    last = out.stderr.splitlines()[-1]
    assert last.startswith("error: E_PARAM:") and str(hist) in last


def test_experiment_config_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\nbogus=1\n")
    out = run_cli("experiment", "--config", str(cfg))
    assert out.returncode == 1
    assert out.stderr.startswith("error: E_FORMAT:")
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\nq=3\n")
    out = run_cli("experiment", "--config", str(cfg))
    assert out.returncode == 1
    assert out.stderr.startswith("error: E_FORMAT:") and "duplicate config key 'q'" in out.stderr
    assert out.stdout == ""
    cfg.write_text("q=2\nn=2\n")
    out = run_cli("experiment", "--config", str(cfg))
    assert out.returncode == 1 and out.stderr == "error: E_FORMAT: missing config keys: m, tau, epsilon, trials\n"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=many\n")
    out = run_cli("experiment", "--config", str(cfg))
    assert out.returncode == 1 and out.stderr == "error: E_FORMAT: bad value for 'trials': 'many'\n"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\njunk\n")
    out = run_cli("experiment", "--config", str(cfg))
    assert out.returncode == 1 and out.stderr == "error: E_FORMAT: bad config line: 'junk'\n"
    out = run_cli("experiment", "--config", str(tmp_path / "absent.cfg"))
    assert out.returncode == 1 and out.stderr.startswith("error: E_FORMAT:")


def test_in_process_calls_match_the_subprocess(tmp_path, monkeypatch, capsys):
    # Many `cli.main` calls in one process, as a caller that imports the CLI
    # makes them: each prints what a fresh process prints and exits alike, a
    # usage error leaves the next call working, and the parser is built once.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q=2\nn=2\nm=4\ntau=0.5\nepsilon=0.1\ntrials=5\nseed=42\n")
    code = dump_code(so_code(field_from_q(2), 5, 3, 2, random.Random(3), repr="vector", ext=ext_field(2, 3)))
    calls = [
        (["construct", "--q", "2", "--n", "2", "--m", "4", "--k", "3", "--seed", "1"], ""),
        (["dual"], code),
        (["verify"], code),
        (["ball", "--q", "2", "--n", "4", "--m", "6", "--r", "2", "--exact"], ""),
        (["ball", "--q", "3", "--n", "3", "--m", "5", "--tau", "0.5", "--bound"], ""),
        (["roots", "--q", "2", "--ext-m", "4", "--nvars", "3", "--coeffs", "1,2,3,4,5,6", "--sample"], ""),
        (["selfdual-basis", "--q", "2", "--m", "3"], ""),
        (["experiment", "--config", str(cfg)], ""),
        (["roots", "--q", "2", "--nvars", "1", "--coeffs", "1", "--sample", "--nonzero"], ""),  # domain error
    ]
    procs = [
        subprocess.Popen(BASE + argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
        for argv, _ in calls
    ]
    expected = []
    for proc, (_, stdin) in zip(procs, calls):
        out, _ = proc.communicate(stdin, timeout=120)
        expected.append((proc.returncode, out))

    def in_process(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        return cli.main(argv), capsys.readouterr().out

    cli._build_parser.cache_clear()
    assert [in_process(*call) for call in calls] == expected
    assert expected[-1] == (1, "")
    with pytest.raises(SystemExit) as exc:
        in_process(["nonsense"])
    assert exc.value.code == 2
    assert in_process(*calls[3]) == expected[3]
    assert cli._build_parser.cache_info().misses == 1
