"""Exit codes of ``limitlab run``, the cost of importing the CLI and the heap it keeps.

The parser and the heap setting are made once per process, at the first
``main`` call: no call carries state into the next, and importing sets up neither.

Exit 0: every declared tolerance passed; 1: a tolerance failed; 2: the input
(config file or ``LIMITLAB_*`` environment) was rejected, or a path was: a
config that is missing, a directory or not text, and an ``--out`` at or under
an existing file.  Exit 2 prints a one-line message and no traceback; a long
rejected value shows as its first 40 characters and its length.  A run
that stops, rejected or not, leaves no output behind.  ``run`` writes the
CSV table itself, so there is no verb that rebuilds it from a report.
"""

import errno
import platform
import re
import subprocess
import types
import sys
from pathlib import Path

import pytest

from limitlab import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run(tmp_path, capsys, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr()


def test_exit_0_when_every_check_passes(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "experiment = prpd-summable\n")
    assert code == 0
    assert "prpd-summable: PASS" in out.out


def test_exit_1_when_a_tolerance_fails(tmp_path, capsys):
    # the summable limit is not reached by n = 10: the 1% ratio check fails
    code, out = run(tmp_path, capsys, "experiment = prpd-summable\nhorizons = 5, 10\n")
    assert code == 1
    assert "prpd-summable: FAIL" in out.out


@pytest.mark.parametrize("env, text, needle", [
    ({"LIMITLAB_SEED": "abc"}, "experiment = prpd-summable\n", "LIMITLAB_SEED"),
    # a negative seed was echoed by an exact run, and refused only inside numpy by a Monte Carlo one
    ({}, "experiment = prpd-summable\nseed = -3\n", "key 'seed' must be >= 0, got -3"),
    ({"LIMITLAB_SEED": "-3"}, "experiment = c3-cutsphere\nreplicates = 100\nhorizons = 10, 20\n",
     "LIMITLAB_SEED must be >= 0, got '-3'"),
    ({"LIMITLAB_THREADS": "abc"}, "experiment = c3-cutsphere\nreplicates = 100\nhorizons = 10, 20\n",
     "LIMITLAB_THREADS"),
    ({}, "experiment = thg\nalpha = -1\n", "alpha"),
    ({}, "experiment = c3-cutsphere\nreplicates = 0\n", "replicates"),
    ({}, "experiment = no-such-experiment\n", "unknown experiment"),
    ({}, "experiment = prpd-summable\nhorizons = -5, 100\n", "horizons"),
    ({}, "experiment = c4-gbm\nx0 = 3.0\n", "x0"),
    ({}, "experiment = rzr-ii\nk = 3\n", "k_max"),
    ({}, "experiment = thbb-geo\nk_max = 25\n", "k=25"),
    ({}, "experiment = rzr-i\nm = 6\nn0 = 100\n", "script_O(m=6)"),
    ({}, "experiment = c3-cutsphere\nreplicates = 1\n", "replicates"),
    ({"LIMITLAB_THREADS": "0"}, "experiment = c3-cutsphere\nreplicates = 100\nhorizons = 10, 20\n",
     "LIMITLAB_THREADS"),
    ({}, "experiment = thy-gw\nlevel = 2\n", "level"),
    # a report echoes its params, and JSON has no spelling for inf or nan
    ({}, "experiment = rzr-i\nsigma = inf\n", "sigma"),
    ({}, "experiment = thz-bpve-i\ndecay_power = inf\nreplicates = 200\nhorizons = 100\n", "decay_power"),
    # an exact experiment draws nothing, and a report with replicates reads as a Monte Carlo one
    ({}, "experiment = prpd-summable\nreplicates = 5000\n", "replicates"),
    # a claim's scale is log n, 0 at n = 1, where every ratio would be infinite
    *(({}, f"experiment = {exp}\nhorizons = 1, 10\n", "scale")
      for exp in ("thg", "tha-gamma", "rzr-ii", "c3-cutsphere", "c4-gbm")),
    # (log log 2)^(1/2) is NaN: the refusal is the only output, and the suite's
    # error::RuntimeWarning filter would turn a numpy warning into an exception
    ({}, "experiment = rzr-iii\nm = 2\nn0 = 16\nhorizons = 2, 20, 100\n", "is nan at n = 2"),
    # a law's moment past the float range, where rate^k underflows to 0, was a ZeroDivisionError
    ({}, "experiment = thg\nbeta = 1e-320\n", "rate^2 underflows to 0"),
    ({}, "experiment = tha-gamma\nalpha = 1e-300\n", "rate^2 underflows to 0"),
    # a coefficient that is not finite is refused before any table
    ({}, "experiment = thg\nbeta = 1e-310\nk = 1\n", "coefficient of (log n)^k of order 1 is inf"),
    # an order below 1 is refused before any claim is built
    ({}, "experiment = prpd-summable\nm = 0\n", "order must be >= 1, got 0"),
    ({}, "experiment = thg\nk = -2\n", "order must be >= 1, got -2"),
    # where rate^k overflows, Python's float power raised an error that named neither law nor order
    ({}, "experiment = thg\nbeta = 1e300\n", "order 2 of Gamma(2, 2e+300) cannot be computed in floats: rate^2 overflows"),
    ({}, "experiment = tha-gamma\nalpha = 1e300\n", "order 2 of Gamma(1e+300, 1e+300) cannot be computed in floats"),
    # a long rejected value is shown by its first 40 characters and its length
    ({"LIMITLAB_SEED": "x" * 5000}, "experiment = prpd-summable\n",
     "LIMITLAB_SEED must be an integer, got '" + "x" * 40 + "'... (5000 characters)"),
    ({"LIMITLAB_SEED": "-" + "1" * 4000}, "experiment = prpd-summable\n",
     "LIMITLAB_SEED must be >= 0, got '-" + "1" * 39 + "'... (4001 characters)"),
    ({"LIMITLAB_THREADS": "x" * 5000}, "experiment = c3-cutsphere\nreplicates = 100\nhorizons = 10, 20\n",
     "LIMITLAB_THREADS must be a positive integer, got '" + "x" * 40 + "'... (5000 characters)"),
    ({}, "experiment = " + "x" * 5000 + "\n", "unknown experiment '" + "x" * 40 + "'... (5000 characters) (known: "),
    # a top order above 20 is refused before any model or claim is built: a claim's coefficient of
    # order k may loop k times (LimitLaw.moment) or overflow a float power
    *(({}, f"experiment = {text}\n", "the top order k=100000000000000000000 is above 20")
      for text in ("thg\nk = 10" + "0" * 19, "rzr-i\nk = 1\nk_max = 10" + "0" * 19, "thbb-geo\nk_max = 10" + "0" * 19)),
    # an integer below 1e308 passes the parser and reaches the runners' refusals
    ({}, "experiment = rzr-i\nk = " + "1" * 300 + "\n",
     "shown order k must lie in [1, k_max = 3], got '" + "1" * 40 + "'... (300 characters)"),
    ({}, "experiment = rzr-i\nm = " + "1" * 300 + "\n", "script_O(m='" + "1" * 40 + "'... (300 characters))"),
    ({}, "experiment = rzr-i\nn0 = -" + "1" * 300 + "\n",
     "gap n0 must be >= script_O(0) = 1, got '-" + "1" * 39 + "'... (301 characters)"),
    ({}, "experiment = thg\nk = -" + "1" * 300 + "\n", "the order must be >= 1, got '-" + "1" * 39 + "'... (301 characters)"),
])
def test_exit_2_on_bad_input(tmp_path, capsys, monkeypatch, env, text, needle):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run(tmp_path, capsys, text)
    assert code == 2
    assert needle in out.err
    assert len(out.err.strip().splitlines()) == 1
    assert len(out.err) <= 320  # the list of known experiments is 200 characters
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, needle", [
    ("not json\n", "line 1: expected 'key = value', got 'not json'"),
    ("", "config must declare an experiment"),
    ("seed = 3\n", "config must declare an experiment"),
    ("experiment = prpd-summable\nseed =\n", "line 2: empty key or value"),
    ("experiment = prpd-summable\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
    ("experiment = prpd-summable\nsigma = 2\n", "unknown key 'sigma' for experiment prpd-summable"),
    ("experiment = prpd-summable\nseed = 1.5\n", "key 'seed' must be an integer, got '1.5'"),
    # int() refuses a string past sys.get_int_max_str_digits() (4300 by default) with a ValueError
    ("experiment = prpd-summable\nseed = " + "1" * 5000 + "\n", "key 'seed' must be an integer"),
    ("experiment = prpd-summable\nhorizons = 10, 1e3\n", "horizons must be integers, got '10, 1e3'"),
    ("experiment = rzr-i\nsigma = two\n", "bad value for 'sigma': 'two'"),
    # float() reads nan, and 1e400 as inf: a report could not echo either
    ("experiment = rzr-i\nsigma = nan\n", "'sigma' must be finite, got 'nan'"),
    ("experiment = rzr-i\nsigma = 1e400\n", "'sigma' must be finite, got '1e400'"),
    # a long rejected value is shown by its first 40 characters and its length
    ("x" * 5000 + "\n", "line 1: expected 'key = value', got '" + "x" * 40 + "'... (5000 characters)"),
    ("experiment = prpd-summable\n" + "k" * 5000 + " = 1\n",
     "unknown key '" + "k" * 40 + "'... (5000 characters) for experiment prpd-summable"),
    ("experiment = prpd-summable\nseed = -" + "1" * 4000 + "\n",
     "key 'seed' must be >= 0, got '-" + "1" * 39 + "'... (4001 characters)"),
    ("experiment = prpd-summable\nhorizons = 1, x" + "1" * 5000 + "\n",
     "horizons must be integers, got '1, x" + "1" * 36 + "'... (5004 characters)"),
    ("experiment = prpd-summable\nhorizons = " + ", ".join(str(2000 - i) for i in range(1000)) + "\n",
     "horizons must be strictly increasing integers >= 1, got '[2000, 1999, 1998, 1997, 1996, 1995, 199'..."),
    ("experiment = rzr-i\nsigma = x" + "1" * 5000 + "\n", "bad value for 'sigma': 'x" + "1" * 39 + "'... (5001 characters)"),
    # an integer past the float range ended in an OverflowError traceback with exit 1
    ("experiment = rzr-i\nm = " + "1" * 4000 + "\n", "'m' must be finite, got '" + "1" * 40 + "'... (4000 characters)"),
], ids=["not-a-config", "empty", "no-experiment", "empty-value", "duplicate-key", "unknown-key",
        "seed-not-an-integer", "long-integer", "horizons-not-integers", "param-not-a-number", "nan", "overflow",
        "long-line", "long-key", "long-negative-seed", "long-horizons", "long-decreasing-horizons", "long-param",
        "integer-past-the-float-range"])
def test_exit_2_on_a_malformed_config(tmp_path, capsys, text, needle):
    # the config is the one file limitlab reads: each refusal is one line, and nothing is written
    code, out = run(tmp_path, capsys, text)
    assert code == 2
    assert needle in out.err
    assert len(out.err.strip().splitlines()) == 1
    assert len(out.err) <= 160
    assert not (tmp_path / "out").exists()


def _raising(exc):
    def run(config):
        raise exc
    return run


@pytest.mark.parametrize("argv, needle", [
    (["run", "{tmp}"], "Is a directory"),
    (["run", "{tmp}/binary"], "can't decode"),
    (["run", "{tmp}/exp.cfg", "--out", "{tmp}/text"], "File exists"),
    (["run", "{tmp}/exp.cfg", "--out", "{tmp}/text/out"], "Not a directory"),
], ids=["run-directory", "run-binary", "out-at-file", "out-under-file"])
def test_exit_2_on_bad_path(tmp_path, capsys, monkeypatch, argv, needle):
    (tmp_path / "exp.cfg").write_text("experiment = prpd-summable\n")
    (tmp_path / "text").write_text("not json\n")
    (tmp_path / "binary").write_bytes(b"\x89PNG\r\n")
    # a bad --out fails before the experiment runs
    monkeypatch.setattr(cli.experiments, "run", _raising(AssertionError("the experiment ran")))
    code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert needle in err
    assert len(err.strip().splitlines()) == 1


def test_a_failed_output_write_leaves_no_temporary_file(tmp_path):
    # an error while writing the outputs is not a rejected input: it propagates, as before
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = prpd-summable\n")
    out = tmp_path / "out"
    (out / "table.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cli.main(["run", str(cfg), "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "table.csv"]


def test_plotdata_is_not_a_verb(tmp_path, capsys):
    # run writes table.csv itself, with the bytes plotdata rebuilt from report.json
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = prpd-summable\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:  # argparse refuses an unknown verb with status 2
        cli.main(["plotdata", str(tmp_path / "out" / "report.json")])
    assert stop.value.code == 2
    assert "invalid choice: 'plotdata'" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json", "table.csv"]


@pytest.mark.parametrize("out", ["a/b", "a/../b"])
def test_a_rejected_run_removes_the_out_directories_it_made(tmp_path, capsys, out):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = thg\nalpha = -1\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "alpha" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt(),
                                 OSError(errno.ENOSPC, "No space left on device")],
                         ids=["runtime-error", "interrupt", "disk-full"])
def test_a_run_that_stops_removes_the_out_directories_it_made(tmp_path, monkeypatch, exc):
    # an error from inside the run is not a rejected input: it propagates, and leaves no output
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = prpd-summable\n")
    monkeypatch.setattr(cli.experiments, "run", _raising(exc))
    with pytest.raises(type(exc)):
        cli.main(["run", str(cfg), "--out", str(tmp_path / "a" / "b")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_absurd_replicates_fail_at_once(tmp_path):
    # 1e13 replicates need a 146 TiB counts array, which numpy refuses before any chunk is set up
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = thy-gw\nreplicates = 10000000000000\n")
    proc = subprocess.run([sys.executable, "-m", "limitlab.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=10, env={"PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert "replicates = 10000000000000" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


FAULT_PROBE = """
import contextlib, io, resource, sys
from limitlab import cli
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")
def test_a_repeated_run_reuses_its_heap_pages(tmp_path):
    # glibc's default trim returns the freed top of the heap after each n = 1e5 fold, and the
    # next run faults about 1,860 pages back in; with the setting of cli.main it takes a few
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = prpd-rv\nhorizons = 1000, 100000\n")
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, check=True, timeout=120,
                          env={"PYTHONPATH": str(SRC)})
    code, faults = map(int, proc.stdout.split())
    assert code == 0
    assert faults < 100


def test_import_loads_no_scipy():
    probe = ("import sys; import limitlab.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC)})
    assert proc.stdout.strip() == "[]"


def _masked(out: str) -> str:
    return re.sub(r"\(\d+\.\d\ds\)", "(wall s)", out)  # the closing line prints the run's wall clock


def test_the_cached_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment = prpd-summable\nout = {tmp_path / 'y'}\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = thg\nalpha = -1\n")
    good = ["run", str(cfg), "--out", str(tmp_path / "x")]
    assert cli.main(good) == 0
    first = capsys.readouterr()
    assert "x/report.json" in first.out
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "z")]) == 2
    assert "alpha" in capsys.readouterr().err
    assert cli.main(good) == 0
    again = capsys.readouterr()
    assert (_masked(again.out), again.err) == (_masked(first.out), first.err)
    assert cli.main(["describe", "thg"]) == 0
    capsys.readouterr()
    assert cli.main(good) == 0
    again = capsys.readouterr()
    assert (_masked(again.out), again.err) == (_masked(first.out), first.err)
    # without --out the config's own out key holds
    assert cli.main(["run", str(cfg)]) == 0
    assert f"{tmp_path / 'y' / 'report.json'}," in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "exp.cfg", "x", "y"]


def test_main_builds_one_parser_and_sets_the_heap_once(monkeypatch, capsys):
    opened, set_params = [], []

    def mallopt(param, value):
        set_params.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or types.SimpleNamespace(mallopt=mallopt))
    cli._build_parser.cache_clear()
    cli._keep_freed_heap.cache_clear()
    try:
        for argv in (["list-experiments"], ["describe", "thg"], ["list-experiments"], ["describe", "prpd-rv"],
                     ["describe", "c4-gbm"]):
            assert cli.main(argv) == 0
    finally:
        cli._keep_freed_heap.cache_clear()  # the next main sets the real allocator's parameters
    assert cli._build_parser.cache_info().misses == 1
    assert opened == [None]
    assert set_params == [(cli._M_MMAP_THRESHOLD, 32 << 20), (cli._M_TRIM_THRESHOLD, 1 << 30)]


IMPORT_PROBE = """
import ctypes
opened, real = [], ctypes.CDLL
ctypes.CDLL = lambda *args, **kw: opened.append(args[:1]) or real(*args, **kw)
from limitlab import cli
print(cli._build_parser.cache_info().misses, cli._keep_freed_heap.cache_info().misses, opened)
"""


def test_import_builds_no_parser_and_leaves_the_heap_alone():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC)})
    assert proc.stdout.strip() == "0 0 []"
