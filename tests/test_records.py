"""The record contract that reports and benchmark digests rely on, for one instance of each record.

Reports print records through ``repr`` and key dicts and sets by modes, so a
record's ``repr`` text and its ``hash`` (that of the tuple of its fields) are
pinned here; records are immutable tuples of their fields.
"""

import pickle

import pytest

from tunedsource.cli import RunConfig, XiSearch
from tunedsource.model import MarginReport, Mode, RadialIntegrals, SourceSpec, Substrate, TuningState
from tunedsource.quadrature import QuadratureResult
from tunedsource.theorems import ExpansionCoeffs, F1VanishingReport, SeriesIntegralsJ1
from tunedsource.tuning import ChiSet

SUBSTRATE = Substrate(epsilon_r=-2.0, mu_r=-1.5, omega=1.25, a=2.0)
XI = XiSearch(lo=-1.0, hi=1.0, grid_n=11, tol=1e-12, table_chi=(-1.0, 1.0), table_g=(0.5, -0.5))

# (record, its repr text)
RECORDS = [
    (SUBSTRATE, "Substrate(epsilon_r=-2.0, mu_r=-1.5, omega=1.25, a=2.0)"),
    (Mode(1, 2), "Mode(j=1, l=2, m=0)"),
    (TuningState(chi=0.5, K=1.5, mu_omega=2.0), "TuningState(chi=0.5, K=1.5, mu_omega=2.0)"),
    (RadialIntegrals(n_self_k=0.25, n_self_K=0.5, m_cross=-0.125),
     "RadialIntegrals(n_self_k=0.25, n_self_K=0.5, m_cross=-0.125)"),
    (MarginReport(mode=Mode(2, 3, -1), chi=0.1, margin=0.5, kind="boundedness", scale=2.0),
     "MarginReport(mode=Mode(j=2, l=3, m=-1), chi=0.1, margin=0.5, kind='boundedness', scale=2.0)"),
    (SourceSpec({Mode(2, 1): 1 + 0.5j}), "SourceSpec(amplitudes={Mode(j=2, l=1, m=0): (1+0.5j)})"),
    (ExpansionCoeffs(j=2, f0=1.5, f1=0.0, f2=-0.25, method="closed-form"),
     "ExpansionCoeffs(j=2, f0=1.5, f1=0.0, f2=-0.25, method='closed-form')"),
    (SeriesIntegralsJ1(c0=1.0, c1=-0.5, d0=2.0, d1=0.25), "SeriesIntegralsJ1(c0=1.0, c1=-0.5, d0=2.0, d1=0.25)"),
    (F1VanishingReport(passed=True, residual=1e-14, f0=1.5, f1=-2e-15),
     "F1VanishingReport(passed=True, residual=1e-14, f0=1.5, f1=-2e-15)"),
    (QuadratureResult(value=0.75, abs_error_estimate=1e-16, panels_used=8),
     "QuadratureResult(value=0.75, abs_error_estimate=1e-16, panels_used=8)"),
    (ChiSet(roots=(-0.5, 0.25), bracket_tol=1e-12), "ChiSet(roots=(-0.5, 0.25), bracket_tol=1e-12, excluded=())"),
    (XI, "XiSearch(lo=-1.0, hi=1.0, grid_n=11, tol=1e-12, table_chi=(-1.0, 1.0), table_g=(0.5, -0.5))"),
    (RunConfig(substrate=SUBSTRATE, j_list=(1, 2), l_values=(1, 2), chi_values=(0.0,), xi_search=XI,
               amplitudes=((Mode(2, 1), 1j),), sweep_axis="a", sweep_values=(1.0, 2.0), quad_rel_tol=1e-12,
               margin_tol=1e-9, f1_tol=1e-8, f2_tol=1e-4, out_format="csv", out_path=None),
     "RunConfig(substrate=Substrate(epsilon_r=-2.0, mu_r=-1.5, omega=1.25, a=2.0), j_list=(1, 2), l_values=(1, 2),"
     " chi_values=(0.0,), xi_search=XiSearch(lo=-1.0, hi=1.0, grid_n=11, tol=1e-12, table_chi=(-1.0, 1.0),"
     " table_g=(0.5, -0.5)), amplitudes=((Mode(j=2, l=1, m=0), 1j),), sweep_axis='a', sweep_values=(1.0, 2.0),"
     " quad_rel_tol=1e-12, margin_tol=1e-09, f1_tol=1e-08, f2_tol=0.0001, out_format='csv', out_path=None)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def _hash(value):
    """hash(value), or the message of the TypeError an unhashable field raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_is_listed():
    assert sorted(IDS) == sorted(["Substrate", "Mode", "TuningState", "RadialIntegrals", "MarginReport",
                                  "SourceSpec", "ExpansionCoeffs", "SeriesIntegralsJ1", "F1VanishingReport",
                                  "QuadratureResult", "ChiSet", "XiSearch", "RunConfig"])


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_hash_is_the_field_tuple_hash(self, record, text):
        assert _hash(record) == _hash(tuple(record))

    def test_equals_the_tuple_of_its_fields(self, record, text):
        assert record == tuple(getattr(record, name) for name in record._fields)

    def test_immutable(self, record, text):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.unknown = None

    def test_pickle_round_trip(self, record, text):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record


def test_modes_sort_in_j_l_m_order():
    modes = [Mode(2, 1), Mode(1, 3, 1), Mode(1, 3, -2), Mode(1, 2), Mode(2, 1, -1)]
    assert sorted(modes) == [Mode(1, 2), Mode(1, 3, -2), Mode(1, 3, 1), Mode(2, 1, -1), Mode(2, 1)]


def test_defaults():
    assert Mode(1, 2).m == 0
    assert SourceSpec().amplitudes == {}
    assert SourceSpec().amplitudes is not SourceSpec().amplitudes    # no shared mutable default
    assert ChiSet(roots=(), bracket_tol=1e-12).excluded == ()
