"""Every registry experiment reproduces its stored rows and checks.

``data/registry_reports.json`` holds, for each config below, the rows and
checks that ``experiments.run`` returned when the file was written.  Every
value must match exactly: strings, integers, verdicts and floats alike (a NaN
matches a NaN), so a refactor that passes is byte-identical in every report.
A change that alters rows or checks on purpose regenerates the entries it
alters, by name, and says so; with no names the whole file is rewritten:

    PYTHONPATH=src python tests/test_registry_reports.py c4-gbm thy-gw@1000
    PYTHONPATH=src python tests/test_registry_reports.py
"""

import json
import math
from pathlib import Path

import pytest

from limitlab import experiments

DATA = Path(__file__).resolve().parent / "data" / "registry_reports.json"

# every experiment at its defaults (the branching runs shortened), then
# single-horizon runs, which reach the runners' one-checkpoint branches, and
# c3 at d = 4, the one level walk off gamma = 1 (its chain scan and Cauchy tables)
CONFIGS = {
    **{exp: f"experiment = {exp}\n" for exp, _ in experiments.list_experiments()},
    "thz-bpve-i": "experiment = thz-bpve-i\nreplicates = 4096\nhorizons = 100, 200\n",
    "thz-bpve-ii": "experiment = thz-bpve-ii\nreplicates = 4096\nhorizons = 100, 200\n",
    "rzr-iii@1000": "experiment = rzr-iii\nhorizons = 1000\n",
    "thbb-geo@1000": "experiment = thbb-geo\nhorizons = 1000\n",
    "c3-cutsphere@250": "experiment = c3-cutsphere\nhorizons = 250\n",
    "c3-cutsphere@d4": "experiment = c3-cutsphere\nd = 4\nreplicates = 2000\n",
    "thy-gw@1000": "experiment = thy-gw\nreplicates = 20000\nhorizons = 1000\n",
}


def report(text: str) -> dict:
    out = experiments.run(experiments.parse_config(text))
    return {"rows": out["rows"], "checks": out["checks"], "passed": out["passed"]}


def same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    if isinstance(want, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def stored():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_the_stored_one(name, stored, monkeypatch):
    monkeypatch.delenv("LIMITLAB_SEED", raising=False)
    want = stored[name]
    got = json.loads(json.dumps(report(CONFIGS[name])))  # the form report.json stores
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert same(g, w), (g, w)
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert same(g, w), (g, w)
    assert got["passed"] == want["passed"]


def test_every_experiment_has_a_stored_report(stored):
    assert set(stored) == set(CONFIGS)


if __name__ == "__main__":
    import os
    import sys

    names = sys.argv[1:] or list(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown entries {unknown}; known: {sorted(CONFIGS)}")
    os.environ.pop("LIMITLAB_SEED", None)
    reports = json.loads(DATA.read_text()) if sys.argv[1:] else {}
    reports.update({name: report(CONFIGS[name]) for name in names})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: reports[name] for name in CONFIGS}, indent=1) + "\n")
    print(f"wrote {', '.join(names)} to {DATA}")
