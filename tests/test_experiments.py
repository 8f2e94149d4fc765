"""Reports reload bit for bit from the files ``write_outputs`` and ``emit_plotdata`` write,
and the Monte Carlo experiments pass every check end to end."""

import csv
import json
import math

import pytest

from limitlab import experiments, multisum


def bits(rows):
    return [[repr(v) for v in row] for row in rows]


def test_table_csv_reproduces_rows_bit_for_bit(tmp_path):
    report = experiments.run(experiments.parse_config("experiment = prpd-rv\nhorizons = 10, 100, 1000\n"))
    report["rows"].append([7, 1.0 / 3.0, -0.0, math.inf, 0.1 + 0.2])  # values short formats would lose
    json_path, csv_path = experiments.write_outputs(report, tmp_path / "out")
    with open(csv_path, newline="") as f:
        header, *lines = list(csv.reader(f))
    assert header == report["columns"]
    reloaded = [[int(line[0])] + [float(v) if v else None for v in line[1:]] for line in lines]
    assert bits(reloaded) == bits(report["rows"])
    assert bits(json.loads(json_path.read_text())["rows"]) == bits(report["rows"])
    plot = experiments.emit_plotdata(json_path)
    assert plot == json_path.with_name("plotdata.csv")
    assert plot.read_text() == csv_path.read_text()


@pytest.mark.parametrize("text", [
    "experiment = thz-bpve-i\nreplicates = 4096\nhorizons = 100, 200\n",
    "experiment = thz-bpve-ii\nreplicates = 4096\nhorizons = 100, 200\n",
    "experiment = c3-cutsphere\n",
    "experiment = c4-gbm\n",
], ids=["thz-bpve-i", "thz-bpve-ii", "c3-cutsphere", "c4-gbm"])
def test_monte_carlo_experiments_pass_every_check(text):
    report = experiments.run(experiments.parse_config(text))
    assert report["checks"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


@pytest.mark.parametrize("experiment, builder, k_max", [
    ("rzr-i", "_fold_tables", 3),
    ("rzr-ii", "_fold_tables", 2),
    ("thbb-exp", "_fold_tables", 2),
    ("tha-gamma", "_psi_tables", 2),
])
def test_runner_builds_one_table_at_its_top_order(monkeypatch, experiment, builder, k_max):
    orders = {}
    for name in ("_fold_tables", "_psi_tables"):
        real = getattr(multisum, name)
        orders[name] = []
        monkeypatch.setattr(multisum, name, lambda *a, _real=real, _seen=orders[name]: _seen.append(a[2]) or _real(*a))
    zeta_calls = []
    real_zeta = experiments.zeta_tail
    for module in (experiments, multisum):
        monkeypatch.setattr(module, "zeta_tail", lambda *a, **kw: zeta_calls.append(a) or real_zeta(*a, **kw))
    experiments.run(experiments.parse_config(f"experiment = {experiment}\nhorizons = 100, 500, 1000\n"))
    assert orders == {"_fold_tables": [], "_psi_tables": [], builder: [k_max]}
    assert len(zeta_calls) == (1 if experiment == "rzr-i" else 0)
