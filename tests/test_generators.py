import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hupa.generators
from hupa import (GENERATOR_KINDS, BoxDomain, GeneratorSpec,
                  IncommensurateBoxError,
                  TargetUnreachableError, derive_seed, ensemble, generate,
                  generate_lattice, generate_perturbed_lattice,
                  generate_poisson, generate_rsa_packing, periodic_distance)
from hupa.generators import GENERATORS
from oracles import chi_square_sf, periodic_dist, poisson_cdf, rsa_reference

TRI_HEIGHT = math.sqrt(3) / 2


class TestSeeds:
    def test_derive_seed_range_and_determinism(self):
        seen = set()
        for i in range(100):
            s = derive_seed(12345, i)
            assert 0 <= s < 2 ** 64
            assert s == derive_seed(12345, i)
            seen.add(s)
        assert len(seen) == 100

    def test_derive_seed_differs_by_base(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5])
    def test_spec_rejects_bad_seed(self, bad):
        box = BoxDomain(lengths=(4.0, 4.0))
        with pytest.raises((ValueError, TypeError)):
            GeneratorSpec(kind="poisson", box=box,
                          params={"intensity": 1.0}, seed=bad)


class TestPoisson:
    def test_zero_intensity_empty(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = generate_poisson(box, 0.0, seed=1)
        assert len(p.points) == 0

    def test_determinism(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        a = generate_poisson(box, 1.0, seed=42)
        b = generate_poisson(box, 1.0, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_containment(self):
        box = BoxDomain(lengths=(7.0, 3.0))
        p = generate_poisson(box, 5.0, seed=3)
        assert np.all(p.points >= 0)
        assert np.all(p.points < box.lengths_array())

    def test_count_moments_over_seeds(self):
        # mean 100 over 2000 seeds: SE(mean)=sqrt(100/2000)=0.224,
        # SE(var)~sqrt(2*100^2/1999 + ...) ~ 3.2; spec allows +-0.7 / +-10
        box = BoxDomain(lengths=(10.0, 10.0))
        counts = np.array([
            len(generate_poisson(box, 1.0, seed=s).points)
            for s in range(2000)
        ])
        assert abs(counts.mean() - 100.0) <= 0.7
        assert abs(counts.var(ddof=1) - 100.0) <= 10.0

    def test_count_distribution_chi_square(self):
        # goodness of fit against the Poisson law at significance 0.001
        box = BoxDomain(lengths=(10.0, 10.0))
        counts = np.array([
            len(generate_poisson(box, 1.0, seed=s).points)
            for s in range(2000, 4500)
        ])
        lam = 100.0
        # bin the integer counts so every expected cell count >= 10
        edges = [-1]
        acc = 0.0
        for k in range(0, 200):
            acc += (poisson_cdf(k, lam)
                    - (poisson_cdf(k - 1, lam) if k else 0.0)) * len(counts)
            if acc >= 10.0:
                edges.append(k)
                acc = 0.0
        edges[-1] = 10 ** 9
        obs = np.zeros(len(edges) - 1)
        exp = np.zeros(len(edges) - 1)
        for i in range(len(edges) - 1):
            lo, hi = edges[i], edges[i + 1]
            obs[i] = np.sum((counts > lo) & (counts <= hi))
            hi_cdf = poisson_cdf(min(hi, 10 ** 6), lam)
            lo_cdf = poisson_cdf(lo, lam) if lo >= 0 else 0.0
            exp[i] = (hi_cdf - lo_cdf) * len(counts)
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        p_value = chi_square_sf(chi2, len(obs) - 1)
        assert p_value > 0.001


class TestLattice:
    def test_square_10x10(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = generate_lattice(box, "square", spacing=1.0)
        assert len(p.points) == 100
        d = np.array([
            periodic_distance(p.points[0], q, box) for q in p.points[1:]
        ])
        assert math.isclose(d.min(), 1.0, rel_tol=1e-12)

    def test_cubic_4x4x4(self):
        box = BoxDomain(lengths=(4.0, 4.0, 4.0))
        p = generate_lattice(box, "cubic", spacing=1.0)
        assert len(p.points) == 64

    def test_triangular_counts_and_neighbors(self):
        box = BoxDomain(lengths=(8.0, 8 * TRI_HEIGHT))
        p = generate_lattice(box, "triangular", spacing=1.0)
        assert len(p.points) == 64
        for q in p.points[:8]:
            d = np.array([periodic_distance(q, r, box) for r in p.points])
            at_unit = np.sum(np.abs(d - 1.0) <= 1e-9)
            assert at_unit == 6

    def test_incommensurate_names_axis_and_nearest(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        with pytest.raises(IncommensurateBoxError) as err:
            generate_lattice(box, "square", spacing=3.0)
        assert err.value.axis == 0
        assert math.isclose(err.value.nearest_length, 9.0)
        msg = str(err.value)
        assert "nearest" in msg

    def test_incommensurate_triangular_height(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        with pytest.raises(IncommensurateBoxError) as err:
            generate_lattice(box, "triangular", spacing=1.0)
        assert err.value.axis == 1

    def test_kind_dim_mismatch(self):
        with pytest.raises(ValueError):
            generate_lattice(BoxDomain(lengths=(4.0, 4.0)), "cubic", spacing=1.0)
        with pytest.raises(ValueError):
            generate_lattice(BoxDomain(lengths=(4.0, 4.0, 4.0)), "square", spacing=1.0)


class TestPerturbedLattice:
    def test_zero_jitter_is_lattice(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        a = generate_perturbed_lattice(box, 1.0, 0.0, seed=5)
        b = generate_lattice(box, "square", spacing=1.0)
        order = np.lexsort((a.points[:, 1], a.points[:, 0]))
        order_b = np.lexsort((b.points[:, 1], b.points[:, 0]))
        assert np.allclose(a.points[order], b.points[order_b], atol=1e-12)

    def test_displacement_bound(self):
        box = BoxDomain(lengths=(16.0, 16.0))
        sites = generate_lattice(box, "square", spacing=1.0).points
        p = generate_perturbed_lattice(box, 1.0, 0.3, seed=6)
        assert len(p.points) == len(sites)
        bound = 0.3 * math.sqrt(2) + 1e-12
        for q in p.points:
            d = min(periodic_dist(q, s, box.lengths) for s in sites)
            assert d <= bound

    def test_jitter_must_be_below_half_spacing(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        with pytest.raises(ValueError):
            generate_perturbed_lattice(box, 1.0, 0.5, seed=1)
        with pytest.raises(ValueError):
            generate_perturbed_lattice(box, 1.0, -0.1, seed=1)

    def test_determinism(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        a = generate_perturbed_lattice(box, 1.0, 0.2, seed=9)
        b = generate_perturbed_lattice(box, 1.0, 0.2, seed=9)
        assert np.array_equal(a.points, b.points)


class TestRsaPacking:
    def test_single_disk(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        p = generate_rsa_packing(box, 1.0, count=1, seed=7)
        assert len(p.points) == 1
        assert p.hard_radius == 1.0

    def test_pairwise_distances_2d(self):
        box = BoxDomain(lengths=(20.0, 20.0))
        p = generate_rsa_packing(box, 0.5, fraction=0.3, seed=8)
        pts = p.points
        n = len(pts)
        assert n == round(0.3 * 400 / (math.pi * 0.25))
        for i in range(n):
            for j in range(i + 1, n):
                assert periodic_dist(pts[i], pts[j], box.lengths) >= 1.0 - 1e-9

    def test_unreachable_when_disk_too_large(self):
        box = BoxDomain(lengths=(4.0, 4.0))
        with pytest.raises(TargetUnreachableError) as err:
            generate_rsa_packing(box, 2.0, count=2, max_attempts=200, seed=9)
        assert err.value.placed == 1
        assert err.value.target == 2

    def test_fraction_cap(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        with pytest.raises(ValueError):
            generate_rsa_packing(box, 0.5, fraction=0.6, seed=1)
        box3 = BoxDomain(lengths=(10.0, 10.0, 10.0))
        with pytest.raises(ValueError):
            generate_rsa_packing(box3, 0.5, fraction=0.35, seed=1)

    def test_count_xor_fraction(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        with pytest.raises(ValueError):
            generate_rsa_packing(box, 0.5, seed=1)
        with pytest.raises(ValueError):
            generate_rsa_packing(box, 0.5, count=3, fraction=0.1, seed=1)

    def test_grid_matches_bruteforce_acceptance(self):
        # a roomy box and one under 4 exclusion diameters per axis, where
        # the tree returns every accepted center: both must keep the
        # hard core
        box = BoxDomain(lengths=(20.0, 20.0))
        p = generate_rsa_packing(box, 0.5, count=50, seed=10)
        box_small = BoxDomain(lengths=(3.5, 3.5))
        q = generate_rsa_packing(box_small, 0.5, count=3, seed=10)
        for pat in (p, q):
            pts = pat.points
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert periodic_dist(pts[i], pts[j],
                                         pat.box.lengths) >= 1.0 - 1e-9

    def test_determinism_3d(self):
        box = BoxDomain(lengths=(8.0, 8.0, 8.0))
        a = generate_rsa_packing(box, 0.5, fraction=0.1, seed=11)
        b = generate_rsa_packing(box, 0.5, fraction=0.1, seed=11)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("batch", [1, 7, hupa.generators._RSA_BATCH])
    def test_batch_size_does_not_change_output(self, monkeypatch, batch):
        monkeypatch.setattr(hupa.generators, "_RSA_BATCH", batch)
        cases = [((12.0, 12.0), 0.5, dict(fraction=0.35), 3),
                 ((6.0, 6.0, 6.0), 0.5, dict(fraction=0.2), 4),
                 ((3.5, 3.5), 0.5, dict(count=12, max_attempts=40), 5)]
        for lengths, r, kw, seed in cases:
            box = BoxDomain(lengths=lengths)
            target = rsa_target(box, r, kw)
            got = rsa_outcome(box, r, seed, kw)
            want = rsa_reference(lengths, r, target, kw.get("max_attempts", 10_000),
                                 seed)
            assert_same_outcome(got, want, target)

    def test_huge_count_memory_grows_with_placed(self):
        # the target is never allocated: 1e11 centers would need 1.5 TiB
        box = BoxDomain(lengths=(10.0, 10.0))
        tracemalloc.start()
        try:
            with pytest.raises(TargetUnreachableError) as err:
                generate_rsa_packing(box, 0.1, count=10**11, max_attempts=200,
                                     seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert err.value.target == 10**11
        assert ("unreachable", err.value.placed) == rsa_reference(
            box.lengths, 0.1, 10**11, 200, 0)


def rsa_target(box, r, kw):
    if "count" in kw:
        return kw["count"]
    grain = math.pi * r ** 2 if box.dim == 2 else 4.0 / 3.0 * math.pi * r ** 3
    return round(kw["fraction"] * box.volume / grain)


def rsa_outcome(box, r, seed, kw):
    try:
        return generate_rsa_packing(box, r, seed=seed, **kw).points
    except TargetUnreachableError as err:
        return ("unreachable", err.placed, err.target)


def assert_same_outcome(got, want, target):
    if isinstance(want, tuple):
        assert got == want + (target,)
    else:
        assert not isinstance(got, tuple), got
        assert np.array_equal(got, want)


@given(lengths=st.lists(st.sampled_from([1.0, 2.5, 3.5, 6.0, 9.0]),
                        min_size=2, max_size=3),
       share=st.floats(0.05, 1.1),
       count=st.one_of(st.none(), st.integers(0, 60)),
       fill=st.floats(0.01, 1.0),
       max_attempts=st.integers(1, 600),
       seed=st.integers(0, 2**32 - 1))
def test_rsa_matches_one_draw_reference(lengths, share, count, fill,
                                        max_attempts, seed):
    # r / min(L) = share covers boxes under 4 exclusion diameters (share >
    # 1/8) and r >= L/2 (share >= 1/2); max_attempts spans the batch size
    box = BoxDomain(lengths=tuple(lengths))
    r = share * min(lengths)
    if count is None:
        grain = math.pi * r ** 2 if box.dim == 2 else 4.0 / 3.0 * math.pi * r ** 3
        cap = 0.5 if box.dim == 2 else 0.3
        kw = dict(fraction=min(fill * cap, 60 * grain / box.volume))
    else:
        kw = dict(count=count)
    kw["max_attempts"] = max_attempts
    target = rsa_target(box, r, kw)
    assert_same_outcome(rsa_outcome(box, r, seed, kw),
                        rsa_reference(lengths, r, target, max_attempts, seed),
                        target)


class TestEnsemble:
    def test_single_matches_direct(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        spec = GeneratorSpec(kind="poisson", box=box,
                             params={"intensity": 1.0}, seed=21)
        members = ensemble(spec, 1)
        direct = generate_poisson(box, 1.0, seed=derive_seed(21, 0))
        assert np.array_equal(members[0].points, direct.points)

    def test_members_differ(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        spec = GeneratorSpec(kind="poisson", box=box,
                             params={"intensity": 1.0}, seed=21)
        a, b = ensemble(spec, 2)
        assert a.points.shape != b.points.shape or not np.array_equal(
            a.points, b.points)

    def test_lattice_members_identical(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        spec = GeneratorSpec(
            kind="lattice", box=box,
            params={"lattice_kind": "square", "spacing": 1.0}, seed=4)
        members = ensemble(spec, 5)
        for m in members[1:]:
            assert np.array_equal(m.points, members[0].points)

    def test_reproducible_across_calls(self):
        box = BoxDomain(lengths=(10.0, 10.0))
        spec = GeneratorSpec(kind="poisson", box=box,
                             params={"intensity": 0.5}, seed=33)
        a = ensemble(spec, 4)
        b = ensemble(spec, 4)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)


class TestGenerateDispatch:
    def test_unknown_kind_rejected(self):
        box = BoxDomain(lengths=(4.0, 4.0))
        with pytest.raises(ValueError):
            GeneratorSpec(kind="voronoi", box=box, params={})

    def test_dispatch_matches_direct(self):
        box = BoxDomain(lengths=(8.0, 8.0))
        spec = GeneratorSpec(kind="perturbed_lattice", box=box,
                             params={"spacing": 1.0, "jitter": 0.2}, seed=3)
        via_spec = generate(spec)
        direct = generate_perturbed_lattice(box, 1.0, 0.2, seed=3)
        assert np.array_equal(via_spec.points, direct.points)
        assert via_spec.provenance == direct.provenance

    def test_kinds_are_the_table(self):
        assert GENERATOR_KINDS == tuple(GENERATORS)

    @pytest.mark.parametrize("kind,params,name", [
        ("poisson", {}, "intensity"),
        ("poisson", {"intensity": None}, "intensity"),
        ("lattice", {"lattice_kind": "square"}, "spacing"),
        ("perturbed_lattice", {"spacing": 1.0}, "jitter"),
        ("rsa_packing", {"count": 3}, "hard_radius"),
    ])
    def test_missing_param_is_value_error(self, kind, params, name):
        box = BoxDomain(lengths=(4.0, 4.0))
        with pytest.raises(ValueError, match=f"requires parameter '{name}'"):
            GeneratorSpec(kind=kind, box=box, params=params)

    @pytest.mark.parametrize("kind,params,name", [
        ("poisson", {"intensity": 1.0, "spacing": 2.0}, "spacing"),
        ("rsa_packing", {"hard_radius": 0.3, "fractoin": 0.1}, "fractoin"),
        ("lattice", {"spacing": 1.0, "seed": 3}, "seed"),
    ])
    def test_unknown_param_is_value_error(self, kind, params, name):
        box = BoxDomain(lengths=(4.0, 4.0))
        with pytest.raises(ValueError, match=f"unknown parameter '{name}'"):
            GeneratorSpec(kind=kind, box=box, params=params)

    @pytest.mark.parametrize("lengths,kind", [((4.0, 4.0), "square"),
                                              ((3.0, 3.0, 3.0), "cubic")])
    def test_lattice_kind_defaults_by_dimension(self, lengths, kind):
        box = BoxDomain(lengths=lengths)
        pat = generate(GeneratorSpec(kind="lattice", box=box,
                                     params={"spacing": 1.0}))
        direct = generate_lattice(box, kind, spacing=1.0)
        assert np.array_equal(pat.points, direct.points)
        assert pat.provenance == direct.provenance
        assert f"kind={kind}" in pat.provenance
