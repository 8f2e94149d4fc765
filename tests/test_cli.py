"""Exit codes of ``limitlab run`` and the cost of importing the CLI.

Exit 0: every declared tolerance passed; 1: a tolerance failed; 2: the input
(config file or ``LIMITLAB_*`` environment) was rejected, with a one-line
message and no traceback.
"""

import subprocess
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
])
def test_exit_2_on_bad_input(tmp_path, capsys, monkeypatch, env, text, needle):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run(tmp_path, capsys, text)
    assert code == 2
    assert needle in out.err
    assert len(out.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_import_loads_no_scipy():
    probe = ("import sys; import limitlab.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC)})
    assert proc.stdout.strip() == "[]"
