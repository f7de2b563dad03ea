"""The result records: immutable named tuples."""

import json
from fractions import Fraction

import pytest

from egfrac import counterexamples, greedy, lemmas, underapprox

RECORDS = {
    "Expansion": lambda: greedy.expand(Fraction(5, 16), 3),
    "UpsilonProfile": lambda: greedy.upsilon_profile(7, 54),
    "StepReport": lambda: greedy.step_report(Fraction(1, 7), 1, 2),
    "Counterexample": lambda: counterexamples.construct(4),
    "UnderapproxResult": lambda: underapprox.best_m_term(Fraction(10, 17), 2),
    "VerificationReport": lemmas.verify_lp12,
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_reject_attribute_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_verification_report_observations_default_to_empty_json_list():
    report = lemmas.verify_lp1(20)
    assert report.observations == ()
    assert report.to_json_dict()["observations"] == ()
    assert '"observations": []' in json.dumps(report.to_json_dict(), indent=2)
