"""The verification report, and ``tally``, which builds it from verdicts."""

from egfrac.report import VerificationReport, tally


def test_tally_reads_a_generator_once_in_input_order():
    read = []

    def verdicts():
        for point, holds in [((5, 1), False), ((1, 2), True), ((3, 0), False), ((2, 9), True)]:
            read.append(point)
            yield point, holds

    observations = [{"s": 155, "holds": False}]
    report = tally("demo", "four points", verdicts(), observations)
    assert read == [(5, 1), (1, 2), (3, 0), (2, 9)]
    assert report == VerificationReport("demo", "four points", 4, [(5, 1), (3, 0)])._replace(
        observations=observations
    )
    assert report.observations is observations
    assert not report.passed


def test_tally_of_no_verdicts_checks_no_point():
    report = tally("empty", "nothing", iter(()))
    assert (report.points_checked, report.failures, report.observations) == (0, [], ())
    assert report.passed
