"""The bit-for-bit checker (``tests/tools/digest_diff.py``) on synthetic
``benchmarks/e2e/run.py --raw`` files."""

import json

import pytest

from tests.tools import digest_diff


def _pass(unit_s=0.004, setup_s=0.5, wall=1.25):
    return {
        "workload": "lp_churn_k16", "seed": 3, "setup_s": setup_s, "unit_s": [unit_s, unit_s],
        "failed": 0, "errors": [], "peak_rss_mb": 39.8, "probe_ms": [0.4], "probe_min_ms": 0.37,
        "digest": {"messages_sent": 346, "rounds": 6, "sum_beta": 0.1336298959865895, "events": 616},
        "rounds": [[23.645128930381134, 377.32340830743453, 0.037132441499859746]],
        "unserved_pct": 67.74660322237013,
        "extras": {"limbo": 42.31996816672965, "retransmissions": 0, "soak_wall_s": wall},
    }


def _raw(**pass_kwargs):
    return {
        "seed": 3,
        "plans": {"lp_churn_k16": [2, 1, 3], "dist_churn_k16": [1, 1, 3]},
        "passes": {
            "lp_churn_k16": {"untraced": [_pass(**pass_kwargs), _pass(**pass_kwargs)],
                             "traced": [_pass(**pass_kwargs)], "reference": []},
            "dist_churn_k16": {"untraced": [_pass(**pass_kwargs)], "traced": [],
                               "reference": [_pass(**pass_kwargs)]},
        },
    }


def _run(tmp_path, capsys, a, b):
    paths = []
    for name, raw in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        paths.append(str(path))
    code = digest_diff.main(paths)
    return code, capsys.readouterr().out


def test_timings_differ_work_equal(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _raw(), _raw(unit_s=0.009, setup_s=0.7, wall=3.0))
    assert code == 0
    assert out.startswith("identical: 5 passes")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda p: p["digest"].__setitem__("sum_beta", 0.1336298959865896), "digest"),
        (lambda p: p["rounds"][0].__setitem__(2, 0.03713244149985975), "rounds"),
        (lambda p: p.__setitem__("unserved_pct", 67.74660322237014), "unserved_pct"),
        (lambda p: p["extras"].__setitem__("retransmissions", 1), "extras.retransmissions"),
        (lambda p: p["extras"].pop("limbo"), "extras.limbo"),
        (lambda p: p.__setitem__("failed", 1), "failed"),
    ],
    ids=["digest", "rounds", "unserved", "extra", "missing-extra", "failed"],
)
def test_a_changed_value_is_named(tmp_path, capsys, edit, named):
    b = _raw()
    edit(b["passes"]["dist_churn_k16"]["reference"][0])
    code, out = _run(tmp_path, capsys, _raw(), b)
    assert code == 1
    assert out.startswith(f"DIFFERENT: dist_churn_k16 reference pass 0: {named} ")


def test_the_first_difference_is_named(tmp_path, capsys):
    b = _raw()
    b["passes"]["lp_churn_k16"]["untraced"][1]["digest"]["events"] = 617
    b["passes"]["lp_churn_k16"]["traced"][0]["digest"]["events"] = 618
    code, out = _run(tmp_path, capsys, _raw(), b)
    assert code == 1
    assert out == "DIFFERENT: lp_churn_k16 untraced pass 1: digest " + (
        f"{_pass()['digest']!r} != {b['passes']['lp_churn_k16']['untraced'][1]['digest']!r}\n"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.__setitem__("seed", 4), "seed: 3 != 4"),
        (lambda raw: raw["passes"].pop("dist_churn_k16"), "workloads: "),
        (lambda raw: raw["passes"]["lp_churn_k16"]["untraced"].pop(),
         "lp_churn_k16 untraced: 2 passes != 1"),
        (lambda raw: raw["passes"]["lp_churn_k16"]["traced"].__setitem__(0, {"crashed": "boom"}),
         "lp_churn_k16 traced pass 0: "),
    ],
    ids=["seed", "workloads", "pass-count", "crashed"],
)
def test_mismatched_runs_are_named(tmp_path, capsys, edit, message):
    b = _raw()
    edit(b)
    code, out = _run(tmp_path, capsys, _raw(), b)
    assert code == 1
    assert out.startswith(f"DIFFERENT: {message}")
