"""The checker must catch a wrong report and a wrong exit code, and the
fast schema validator must agree with jsonschema.

    python3 -m pytest bench/tests -q
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import jsonschema
import pytest
from normalsets import SignAssignment, a_q_set, build_spf, write_nset
from normalsets.cli import main

from checks import SCHEMAS, Checker, error_rate
from schema import SchemaValidator
from workloads import Command

ROOT = Path(__file__).resolve().parents[2]
LIMIT = 6000
SEED = 5


@pytest.fixture(scope="module")
def nset(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "set.nset"
    write_nset(path, a_q_set(SignAssignment(SEED), LIMIT, build_spf(LIMIT)))
    return str(path)


def cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_checker_failures_raise_error_rate(nset):
    cmd = Command(
        "wide",
        ["stats", "--in", nset, "--limit", "5000", "--max-word-len", "4"],
        {"seed": SEED, "in": nset, "limit": 5000, "max_len": 4, "pick": 1},
    )
    code, text = cli(cmd.argv)
    checker = Checker(ROOT)
    clean = checker.check(cmd, code, text)
    assert clean == []

    report = json.loads(text)
    report["words"][3]["count"] += 1  # one flipped count
    corrupted = checker.check(cmd, code, json.dumps(report))
    wrong_code = checker.check(cmd, 1, text)
    assert corrupted and wrong_code

    assert error_rate([clean]) == 0
    assert error_rate([clean, corrupted]) == 0.5
    assert error_rate([clean, wrong_code]) == 0.5


def live_reports(nset):
    runs = [
        ("generate", ["generate", "--seed", "3", "--limit", "3000", "--out", nset + ".gen"]),
        ("solve", ["solve", "--equation", "schur", "--seed", "3", "--limit", "3000"]),
        ("stats", ["stats", "--in", nset, "--limit", "4000", "--max-word-len", "3"]),
        ("correlation", ["correlation", "--in", nset, "--offsets", "1,2", "--grid", "1000:4000:poly2"]),
        ("pairsquare", ["pairsquare", "--limit", "300", "--offsets", "1", "--seeds", "1-3",
                        "--grid", "100:300:poly2"]),
    ]
    for command, argv in runs:
        code, text = cli(argv)
        assert code == 0
        yield command, json.loads(text)


def corruptions(report):
    yield report
    for key, value in list(report.items()):
        broken = dict(report)
        del broken[key]
        yield broken
        broken = dict(report)
        broken[key] = [value] if not isinstance(value, list) else -1
        yield broken
    for key in ("words", "bound_violations", "trend"):
        if report.get(key):
            broken = copy.deepcopy(report)
            rows = broken[key]["points"] if key == "trend" else broken[key]
            rows[0] = {**rows[0], "N": -1, "word": "2", "count": -1}
            yield broken
    if "source" in report:
        yield {**report, "source": {"in": "x", "mode": "random"}}


def test_fast_validator_agrees_with_jsonschema(nset):
    for command, report in live_reports(nset):
        schema = json.loads((ROOT / "docs" / "schemas" / SCHEMAS[command]).read_text())
        fast = SchemaValidator(schema)
        reference = jsonschema.Draft202012Validator(schema)
        for case in corruptions(report):
            assert (fast.errors(case) == []) == reference.is_valid(case), (command, case)
