"""Spectra and spectral properties of products.

``spectrum`` is LAPACK ``eigvalsh`` itself, so its oracle is the closed-form
spectra of standard families; eigvalsh stays the oracle for products.
"""

from math import comb

import numpy as np
import pytest

import rotmaps.adjacency
from conftest import CORPUS, traced_peak
from rotmaps import (
    AdjacencyMatrix,
    ConvergenceError,
    MalformedInputError,
    ParameterError,
    RotmapsError,
    Spectrum,
    adjacency_from_rotation,
    cartesian_adjacency,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    product_property_check,
    spectrum,
)
from rotmaps.cli import main
from rotmaps.io import format_adj

K2_ADJ = AdjacencyMatrix([[0, 1], [1, 0]])
K3_ADJ = AdjacencyMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
C4_ADJ = AdjacencyMatrix([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])


def eigvalsh_oracle(adj):
    return np.sort(np.linalg.eigvalsh(adj.matrix.astype(np.float64)))[::-1]


class TestSpectrum:
    @pytest.mark.parametrize("family,size", [
        ("cycle", 3), ("cycle", 8), ("cycle", 13), ("cycle", 30),
        ("complete", 4), ("complete", 7), ("complete", 12),
        ("complete-bipartite", 2), ("complete-bipartite", 5), ("complete-bipartite", 9),
        ("hypercube", 1), ("hypercube", 4), ("hypercube", 6),
    ])
    def test_closed_form(self, family, size):
        if family == "cycle":
            rot = cycle(size)
            exact = 2 * np.cos(2 * np.pi * np.arange(size) / size)
        elif family == "complete":
            rot = complete(size)
            exact = [size - 1] + [-1] * (size - 1)
        elif family == "complete-bipartite":
            rot = complete_bipartite(size)
            exact = [size, -size] + [0] * (2 * size - 2)
        else:
            rot = hypercube(size)
            exact = [size - 2 * k for k in range(size + 1) for _ in range(comb(size, k))]
        spec = spectrum(adjacency_from_rotation(rot))
        assert np.max(np.abs(spec.values - np.sort(exact)[::-1])) < 1e-8
        assert 0 < spec.tolerance < 1e-12

    def test_k2(self):
        assert np.allclose(spectrum(K2_ADJ).values, [1.0, -1.0], atol=1e-10)

    @pytest.mark.parametrize("rot", [cycle(8), complete(7), hypercube(4)], ids=["C8", "K7", "Q4"])
    def test_values_are_adopted_read_only_and_own_their_data(self, rot):
        values = spectrum(adjacency_from_rotation(rot)).values
        assert not values.flags.writeable and values.flags.owndata and values.flags.c_contiguous
        assert values.dtype == np.float64 and (np.diff(values) <= 0).all()

    def test_k3(self):
        # characteristic polynomial -(x - 2)(x + 1)^2
        assert np.allclose(spectrum(K3_ADJ).values, [2.0, -1.0, -1.0], atol=1e-8)

    def test_c4(self):
        assert np.allclose(spectrum(C4_ADJ).values, [2.0, 0.0, 0.0, -2.0], atol=1e-8)

    def test_sorted_nonincreasing(self):
        values = spectrum(adjacency_from_rotation(cycle(7))).values
        assert np.all(np.diff(values) <= 0)

    def test_trace_zero(self):
        for name, rot in CORPUS[::7]:
            adj = adjacency_from_rotation(rot)
            values = spectrum(adj).values
            assert abs(values.sum()) <= adj.order * 1e-10

    def test_lapack_failure_is_convergence_error(self, monkeypatch, tmp_path, capsys):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError) as info:
            spectrum(K3_ADJ)
        assert isinstance(info.value, RotmapsError)
        path = tmp_path / "k3.adj"
        path.write_text(format_adj(K3_ADJ))
        assert main(["spectrum", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_spectrum_invariants(self):
        with pytest.raises(MalformedInputError):
            Spectrum(values=np.array([1.0, 2.0]), tolerance=1e-8)  # increasing
        with pytest.raises(MalformedInputError):
            Spectrum(values=np.array([1.0]), tolerance=-1.0)
        with pytest.raises(MalformedInputError):
            Spectrum(values=[[1], [2, 3]], tolerance=0.0)  # ragged
        with pytest.raises(MalformedInputError):
            Spectrum(values=["a"], tolerance=0.0)  # not a number
        for tolerance in ("a", None, 1j):  # not a real number
            with pytest.raises(MalformedInputError, match="tolerance must be a real number"):
                Spectrum(values=[1.0], tolerance=tolerance)

    @pytest.mark.parametrize("values", [[], [[]]])
    def test_empty_values_rejected(self, values):
        with pytest.raises(MalformedInputError, match="spectrum must be a nonempty vector"):
            Spectrum(values=np.array(values), tolerance=0.0)

    def test_len_and_repr(self):
        spec = Spectrum(values=np.array([2.0, -1.0, -1.0]), tolerance=1e-8)
        assert len(spec) == 3
        assert repr(spec) == "Spectrum(size=3, tolerance=1e-08)"

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.nan], [np.nan]])
    def test_nan_values_rejected(self, values):
        with pytest.raises(MalformedInputError, match="with no NaN"):
            Spectrum(values=np.array(values), tolerance=0.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(MalformedInputError, match="tolerance must be nonnegative"):
            Spectrum(values=np.array([1.0, 0.0]), tolerance=float("nan"))


class TestProductPropertyCheck:
    def test_k2_by_k2(self):
        report = product_property_check(K2_ADJ, K2_ADJ)
        assert report.all_hold
        assert report.failures() == ()
        prod = cartesian_adjacency(K2_ADJ, K2_ADJ)
        assert np.allclose(spectrum(prod).values, [2.0, 0.0, 0.0, -2.0], atol=1e-8)

    def test_torus_counts(self):
        c6 = adjacency_from_rotation(cycle(6))
        c4 = adjacency_from_rotation(cycle(4))
        report = product_property_check(c6, c4)
        assert report.all_hold
        assert (report.vertices_actual, report.degree_actual, report.edges_actual) == (24, 4, 48)
        assert type(report.edges_actual) is int

    def test_c3_by_c3_spectrum_multiset(self):
        c3 = adjacency_from_rotation(cycle(3))
        prod = cartesian_adjacency(c3, c3)
        factor = eigvalsh_oracle(c3)
        expected = np.sort((factor[:, None] + factor[None, :]).ravel())[::-1]
        assert np.max(np.abs(eigvalsh_oracle(prod) - expected)) < 1e-8
        assert product_property_check(c3, c3).all_hold

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ParameterError):
            product_property_check(K2_ADJ, K2_ADJ, spectrum_tol=tol)

    def test_failure_naming(self):
        report = product_property_check(K2_ADJ, K3_ADJ)
        fabricated = type(report)(
            vertices_expected=6, vertices_actual=5,
            degree_expected=3, degree_actual=3,
            edges_expected=9, edges_actual=9,
            spectrum_deviation=1.0, spectrum_tolerance=1e-8,
        )
        assert fabricated.failures() == ("vertex-count", "spectrum-additivity")
        assert not fabricated.all_hold


class TestSpectrumCeiling:
    def test_order_past_the_limit_refused_before_the_float64_copy(self, monkeypatch):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_SPECTRUM_VERTICES", 1000)
        adj = adjacency_from_rotation(cycle(1001))

        def refused():
            with pytest.raises(ParameterError) as info:
                spectrum(adj)
            assert str(info.value) == "spectrum of 1001 vertices is above the limit of 1000"

        assert traced_peak(refused) < 1e5  # the float64 copy alone is 8 * 10^6 bytes

    def test_product_past_the_limit_refused_before_the_product(self, monkeypatch):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_SPECTRUM_VERTICES", 1000)
        c40, c30 = adjacency_from_rotation(cycle(40)), adjacency_from_rotation(cycle(30))

        def refused():
            with pytest.raises(ParameterError, match="spectrum of 1200 vertices"):
                product_property_check(c40, c30)

        assert traced_peak(refused) < 1e5  # the uint8 product alone is 1.44 * 10^6 bytes

    def test_order_at_the_limit_is_solved(self, monkeypatch):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_SPECTRUM_VERTICES", 24)
        report = product_property_check(adjacency_from_rotation(cycle(6)),
                                        adjacency_from_rotation(cycle(4)))
        assert report.all_hold
