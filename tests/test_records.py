"""The seven record types: immutable tuples without an instance dict,
which pickle back through their validation."""

import pickle

import pytest

from modwind.cfcore import MatrixZ, QuadraticSurd
from modwind.invariants import ChatEstimate, GeodesicRecord
from modwind.necklace import CountReport, Necklace
from modwind.stats import DistributionReport

RECORDS = {
    "MatrixZ": (lambda: MatrixZ(103, 24, 30, 7), "a"),
    "QuadraticSurd": (lambda: QuadraticSurd(8, 1, 84, 5), "p"),
    "Necklace": (lambda: Necklace((1, 2, 1, 3)), "rep"),
    "CountReport": (lambda: CountReport(A=2, N=4, exact=10, asymptotic=10.67), "exact"),
    "GeodesicRecord": (lambda: GeodesicRecord(Necklace((1, 2)), -1, 2, 6, 1.92), "lg"),
    "ChatEstimate": (lambda: ChatEstimate(A=3, k=8, c_k=1.21, error_bound=4e-4), "c_k"),
    "DistributionReport": (lambda: DistributionReport(
        "period", 1.5, 0.1, 0.0, 0.0, 1.4, 5, [(0.0, 0.6)], [0.5]), "ks"),
}


@pytest.mark.parametrize("make, name", RECORDS.values(), ids=RECORDS)
def test_record_is_immutable_and_pickles(make, name):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__: each record declares empty __slots__
    back = pickle.loads(pickle.dumps(record))
    assert back == record
    assert type(back) is type(record)


def test_unpickling_validates():
    # _make skips __new__, so these hold fields __new__ would normalize or
    # refuse; unpickling calls __new__ again.
    surd = pickle.loads(pickle.dumps(QuadraticSurd._make((2, 2, 5, -4))))
    assert (surd.p, surd.r, surd.D, surd.q) == (-1, -1, 5, 2)
    data = pickle.dumps(Necklace._make(((2, 1, 1, 1),)))
    with pytest.raises(ValueError):
        pickle.loads(data)
