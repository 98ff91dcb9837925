"""Acceptance gate: one test per criterion, at the stated tolerances.

Heavy runs are shared through a module-level cache, so the criteria execute
in order with each expensive sweep computed once.  Every test prints its
pass/fail line.
"""

import json

import pytest

from radialke import family, suite

_CACHE: dict = {}


@pytest.mark.parametrize(
    "cid,name,fn", suite.CRITERIA,
    ids=[f"criterion_{cid:02d}_{name.replace(' ', '_')}"
         for cid, name, _ in suite.CRITERIA])
def test_acceptance_criterion(cid, name, fn):
    result = suite._timed(fn, cid, name, _CACHE)
    print(result.line())
    assert result.passed, json.dumps(result.details, indent=2, default=str)


@pytest.mark.parametrize("ids,builds", [([10], 5), ([9, 10], 6)])
def test_family_criteria_share_their_families(monkeypatch, ids, builds):
    # criteria 9 and 10 build the product, perturbed and conic families
    # once; 9 adds its control and 10 its two bound-drift families
    calls = []
    build = family.build_family
    monkeypatch.setattr(family, "build_family",
                        lambda *args, **kw: calls.append(args) or build(*args, **kw))
    results = suite.run_criteria(ids)
    assert [r.cid for r in results] == ids and all(r.passed for r in results)
    assert len(calls) == builds
