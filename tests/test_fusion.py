import dataclasses
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pooled, pooled_total

from momhal import fusion
from momhal.fusion import (
    BETA_BRACKET,
    GROUP_DET,
    GROUP_SAL,
    GROUP_TOP,
    INV_PHI,
    STREAM_ORDER,
    Bracket,
    FusionSpec,
    effective_coefficients,
    eq9_ratios,
    golden_section_max,
    golden_step,
    ridge_accuracy,
    spec_from_text,
    spec_to_text,
)


def make_spec(beta=0.0, **weights):
    """The spec of all 12 streams; raw weights 1.0 but for ``weights``."""
    raw = {**FusionSpec(STREAM_ORDER).raw_weights, **weights}
    return FusionSpec(STREAM_ORDER, raw, beta, rho=0.1)


class TestEq9:
    def test_beta_zero_equalizes_ratios(self):
        for w in ([1.0, 0.2, 0.0], [0.5], [1.0] * 6):
            r = eq9_ratios(np.array(w), beta=0.0, rho=0.3)
            np.testing.assert_allclose(r, 1.0 / len(w))

    def test_large_beta_floor_limit(self):
        r = eq9_ratios(np.array([1.0, 0.5, 0.25]), beta=200.0, rho=0.1)
        np.testing.assert_allclose(r, [1 / 1.2, 0.1 / 1.2, 0.1 / 1.2], atol=1e-6)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.floats(0.01, 60.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariance_and_sum(self, w, beta):
        w = np.asarray(w)
        w = w / w.max()
        r = eq9_ratios(w, beta, rho=0.1)
        assert r.sum() == pytest.approx(1.0)
        if np.count_nonzero(r == r.max()) == 1:
            assert int(np.argmax(r)) == int(np.argmax(w))
        # w^beta (w = [1 - 2**-53, 1], beta = 0.25) or the division by the
        # sum (w = [0.5, 0.5, 1 - 2**-53, 1], beta = 1) may round a near-tie
        # into an exact tie, never past it
        assert r[int(np.argmax(w))] == r.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            eq9_ratios(np.array([]), 1.0, 0.1)
        with pytest.raises(ValueError):
            eq9_ratios(np.array([-0.1, 1.0]), 1.0, 0.1)
        with pytest.raises(ValueError):
            eq9_ratios(np.array([1.0]), 1.0, 0.0)
        with pytest.raises(ValueError):
            eq9_ratios(np.array([1.0]), -1.0, 0.1)


class TestPooled:
    def test_equal_streams_scale(self):
        spec = make_spec()
        v = np.array([1.0, 2.0, 3.0])
        streams = {sid: v for sid in spec.groups[GROUP_DET]}
        got = pooled(streams, spec, GROUP_DET)
        # group of 4 with ratios r_i = 1/4 each: a convex mean of equal vectors
        np.testing.assert_allclose(got, v)

    def test_singleton_group(self):
        spec = FusionSpec(("fv1", "sal1"))
        assert spec.groups[GROUP_SAL] == ("sal1",)
        got = pooled({"sal1": np.ones(2)}, spec, GROUP_SAL)
        np.testing.assert_allclose(got, np.ones(2))  # r = 1

    def test_formula_oracle_four_streams(self):
        rng = np.random.default_rng(0)
        spec = make_spec(beta=2.0, det1=1.0, det2=0.8, det3=0.5, det4=0.2)
        streams = {f"det{i}": rng.normal(size=6) for i in range(1, 5)}
        got = pooled(streams, spec, GROUP_DET)

        # independent re-implementation of the convex weighted mean
        w_raw = np.array([1.0, 0.8, 0.5, 0.2])
        vals = np.maximum((w_raw / w_raw.max()) ** 2.0, 0.1)
        r = vals / vals.sum()
        want = sum(r[i] * streams[f"det{i+1}"] for i in range(4))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_top_includes_fixed_haf_weight(self):
        spec = make_spec()
        dim = 3
        streams = {sid: np.zeros(dim) for sid in spec.groups[GROUP_TOP]}
        streams["haf"] = np.ones(dim)
        got = pooled(streams, spec, GROUP_TOP)
        np.testing.assert_allclose(got, (1.0 / 7) * np.ones(dim) / 7)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        spec = make_spec(beta=1.5)
        streams = {sid: rng.normal(size=4) for sid in spec.groups[GROUP_DET]}
        base = pooled(streams, spec, GROUP_DET)
        np.testing.assert_allclose(
            pooled({k: 3.0 * v for k, v in streams.items()}, spec, GROUP_DET),
            3.0 * base, atol=1e-12)

    def test_errors(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="missing"):
            pooled({"det1": np.ones(2)}, spec, GROUP_DET)
        streams = {sid: np.ones(2) for sid in spec.groups[GROUP_DET]}
        streams["det2"] = np.ones(3)
        with pytest.raises(ValueError, match="shape"):
            pooled(streams, spec, GROUP_DET)
        with pytest.raises(ValueError, match="unknown group"):
            pooled(streams, spec, "Z")

    def test_hierarchical_differs_from_flat(self):
        rng = np.random.default_rng(7)
        spec = make_spec(beta=3.0, det1=1.0, det2=0.3, det3=0.2, det4=0.1, sal1=0.9, sal2=0.4,
                         fv1=0.6, fv2=0.5, bow=0.4, off=0.3, det=0.8, sal=0.7)
        leafs = list(STREAM_ORDER)
        streams = {sid: rng.normal(size=5) for sid in leafs}
        streams["haf"] = rng.normal(size=5)

        three_level = pooled_total(streams, spec)

        # one group of the 10 leaves and the pass-through at weight 1/7
        w = np.array([spec.raw_weights[s] for s in leafs])
        r = eq9_ratios(w / w.max(), 3.0, 0.1)
        flat = (sum(ri * streams[s] for ri, s in zip(r, leafs)) + streams["haf"] / 7) / 11
        assert not np.allclose(three_level, flat)

        # regression pin for the seeded instance (computed apart from the
        # library as ratio-weighted means of the det and sal groups, then
        # (ratios @ top members + haf / 7) / 7)
        np.testing.assert_allclose(
            three_level[:2], [-0.08199112365309666, -0.039625956288333986], atol=1e-12)

    def test_effective_coefficients_match_pooled(self):
        spec = make_spec(beta=1.7, det2=0.4, sal2=0.6, bow=0.2)
        leafs = ["fv1", "fv2", "bow", "off", "det1", "det2", "det3", "det4",
                 "sal1", "sal2", "haf"]
        coeffs = effective_coefficients(spec)
        for leaf in leafs:
            streams = {sid: np.zeros(3) for sid in leafs}
            streams[leaf] = np.ones(3)
            want = pooled_total(streams, spec)[0]
            assert coeffs.get(leaf, 0.0) == pytest.approx(want, abs=1e-15)

    def test_spec_is_frozen_and_derived_once(self):
        spec = make_spec(beta=1.7, det2=0.4)
        assert [f.name for f in dataclasses.fields(spec)] == ["streams", "raw_weights", "beta", "rho"]
        assert spec.coefficients == effective_coefficients(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.beta = 4.2
        with pytest.raises(TypeError):
            spec.raw_weights["det2"] = 1.0
        with pytest.raises(TypeError):
            spec.coefficients["fv1"] = -1.0
        moved = replace(spec, beta=4.2)
        assert moved.coefficients == effective_coefficients(moved) != spec.coefficients

    def test_groups_and_pass_through_weight_follow_the_streams(self):
        spec = FusionSpec(("fv2", "det1", "det3", "sal2"))
        assert dict(spec.groups) == {GROUP_DET: ("det1", "det3"), GROUP_SAL: ("sal2",),
                                     GROUP_TOP: ("fv2", "det", "sal", "haf")}
        assert dict(spec.raw_weights) == dict.fromkeys(
            ("fv2", "det1", "det3", "sal2", "det", "sal"), 1.0)
        assert spec.haf_weight == 1.0 / 4
        alone = FusionSpec(())
        assert dict(alone.groups) == {GROUP_DET: (), GROUP_SAL: (), GROUP_TOP: ("haf",)}
        assert dict(alone.coefficients) == {"haf": 1.0} and alone.tot_scale == 1.0

    def test_tot_scale_is_the_inverse_mass_at_beta_zero(self):
        base = make_spec()
        assert base.tot_scale == 1.0 / sum(effective_coefficients(base).values())
        for spec in (make_spec(beta=6.0, fv2=0.5), make_spec(beta=2.0, det2=0.1, fv1=0.3, sal=0.0)):
            assert spec.coefficients != base.coefficients
            assert spec.tot_scale == base.tot_scale

    def test_replace_computes_the_coefficients_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec.beta)
            return effective_coefficients(spec)

        spec = make_spec(beta=1.0, det2=0.4)
        replace(spec, beta=2.0)   # the first spec at beta != 0 on these streams may build one more
        monkeypatch.setattr(fusion, "effective_coefficients", counted)
        for beta in (0.0, 3.5, 17.0):
            replace(spec, beta=beta)
        assert calls == [0.0, 3.5, 17.0]

    def test_tot_scale_bits_for_every_stream_subset(self):
        rng = np.random.default_rng(0)
        for mask in range(2 ** len(STREAM_ORDER)):
            streams = tuple(s for i, s in enumerate(STREAM_ORDER) if mask >> i & 1)
            keys = FusionSpec(streams).raw_weights
            raw = dict(zip(keys, rng.uniform(0.0, 2.0, len(keys)).tolist()))
            spec = FusionSpec(streams, raw, float(rng.uniform(0.1, 50.0)), rho=0.05)
            at_zero = effective_coefficients(replace(spec, beta=0.0))
            assert spec.tot_scale == 1.0 / sum(at_zero.values())


class TestGoldenSection:
    def test_quadratic_maximum(self):
        res = golden_section_max(lambda b: -((b - 2.0) ** 2), 0.0, 50.0, 40)
        assert abs(res.beta_star - 2.0) < 1e-6
        assert res.bracket[0] <= 2.0 <= res.bracket[1] + 1e-9

    def test_constant_function_still_shrinks(self):
        res = golden_section_max(lambda b: 1.0, 0.0, 50.0, 10)
        for prev, cur in zip(res.widths, res.widths[1:]):
            assert cur / prev == pytest.approx(INV_PHI, abs=1e-12)

    def test_shrink_ratio_exact(self):
        res = golden_section_max(lambda b: -((b - 17.0) ** 2), 0.0, 50.0, 40)
        for prev, cur in zip(res.widths, res.widths[1:]):
            assert abs(cur / prev - INV_PHI) < 1e-12

    def test_matches_grid_search_on_classifier_objective(self):
        # six noisy views of a shared latent: the exponent trades mixing
        # breadth against concentration, giving a single interior optimum
        rng = np.random.default_rng(3)
        n = 150
        latent = rng.normal(size=n)
        y = np.digitize(latent, [-0.5, 0.5])
        sigmas = np.array([0.4, 0.7, 1.0, 1.6, 2.5, 4.0])
        streams = latent[:, None] + sigmas[None, :] * rng.normal(size=(n, 6))
        w_prime = np.array([1.0, 0.8, 0.6, 0.4, 0.25, 0.15])

        def f(beta: float) -> float:
            r = eq9_ratios(w_prime, beta, rho=0.1)
            feat = streams @ r
            a = np.column_stack([feat[:100], np.ones(100)])
            w = np.linalg.lstsq(a, np.eye(3)[y[:100]], rcond=None)[0]
            pred = np.column_stack([feat[100:], np.ones(50)]) @ w
            return -float(((pred - np.eye(3)[y[100:]]) ** 2).sum())

        grid = np.arange(0.0, 50.0 + 1e-9, 0.01)
        vals = [f(b) for b in grid]
        # verify the oracle premise: exactly one local maximum on the grid
        maxima = [i for i in range(1, len(vals) - 1)
                  if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        assert len(maxima) == 1
        grid_best = grid[int(np.argmax(vals))]
        res = golden_section_max(f, 0.0, 50.0, 30)
        width = res.bracket[1] - res.bracket[0]
        assert abs(res.beta_star - grid_best) <= width + 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda b: b, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            golden_section_max(lambda b: b, 0.0, 1.0, 0)


class TestBetaSchedule:
    def test_bracket_width_schedule(self):
        assert BETA_BRACKET == (0.0, 50.0)
        bracket = Bracket(0.0, 50.0)
        for k in range(1, 20):
            bracket = golden_step(lambda b: 0.0, bracket)
            assert bracket.width == pytest.approx(50.0 * INV_PHI**k, rel=1e-12)

    @pytest.mark.parametrize("peak", [3.0, 19.1, 30.9, 47.0])
    def test_each_step_keeps_the_peak(self, peak):
        bracket = Bracket(0.0, 50.0)
        for _ in range(12):
            bracket = golden_step(lambda b: -abs(b - peak), bracket)
            assert bracket.lo <= peak <= bracket.hi

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", ["c", "d"])
    def test_non_finite_score_at_either_point_is_refused(self, at, bad):
        # on [0, 50] the points are c = 19.1 and d = 30.9
        def f(b):
            return bad if (b < 25.0) == (at == "c") else 0.0

        with pytest.raises(ValueError, match="non-finite objective"):
            golden_step(f, Bracket(0.0, 50.0))


class TestRidge:
    def test_deterministic_and_sane(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 5))
        w = rng.normal(size=(5, 3))
        y = (x @ w).argmax(axis=1)
        acc1 = ridge_accuracy(x[:150], y[:150], x[150:], y[150:], 3)
        acc2 = ridge_accuracy(x[:150], y[:150], x[150:], y[150:], 3)
        assert acc1 == acc2
        assert acc1 > 0.8


class TestSpecSerialization:
    def test_roundtrip(self, tmp_path):
        spec = make_spec(beta=4.5, det3=0.35)
        path = tmp_path / "fusion.cfg"
        path.write_text(spec_to_text(spec), encoding="utf-8")
        back = spec_from_text(path.read_text(encoding="utf-8"), STREAM_ORDER, origin=str(path))
        assert back == spec
        assert back.groups == spec.groups
        assert back.haf_weight == spec.haf_weight
        assert back.coefficients == spec.coefficients
        assert "ratio_weights = true\n" in path.read_text()

    def test_group_size_form_is_refused(self):
        text = spec_to_text(make_spec()).replace("ratio_weights = true", "ratio_weights = false")
        with pytest.raises(ValueError, match=r"fusion\.cfg: line 4: ratio_weights = false"):
            spec_from_text(text, STREAM_ORDER, origin="fusion.cfg")

    def test_other_pass_through_name_is_refused(self):
        text = spec_to_text(make_spec())
        assert "haf_id = haf\n" in text   # written for HAL1's bytes; no other value is read
        with pytest.raises(ValueError, match=r"fusion\.cfg: line 3: haf_id = hag is not supported"):
            spec_from_text(text.replace("haf_id = haf", "haf_id = hag"), STREAM_ORDER,
                           origin="fusion.cfg")

    def test_text_roundtrip(self):
        spec = make_spec()
        again = spec_from_text(spec_to_text(spec), STREAM_ORDER)
        assert again.raw_weights == spec.raw_weights

    @pytest.mark.parametrize("old, new, line", [
        ("group.D = det1,det2,det3,det4", "group.D = det1,det2,det3,det5", 5),
        ("group.TOP = fv1,fv2,bow,off,det,sal,haf", "group.TOP = fv1,fv2,bow,off,det,sal", 7),
        ("haf_weight = 0.14285714285714285", "haf_weight = 0.5", 2),
        ("beta.S = 2.0", "beta.S = 3.0", 9),
        ("weight.det2 = 1.0\n", "", 14),
        ("weight.sal = 1.0\n", "weight.sal = 1.0\nweight.sal0 = 1.0\n", 21),
        ("rho = 0.1", "rho = 0.10", 1),
        ("weight.off = 1.0", "weight.off =  1.0", 19),
        ("beta.TOP = 2.0\n", "beta.TOP = 2.0\n# comment\n", 11),
    ])
    def test_text_other_than_the_streams_give_is_refused(self, old, new, line):
        text = spec_to_text(make_spec(beta=2.0))
        assert old in text
        bad = text.replace(old, new)
        want = rf"fusion\.cfg: line {line}: {re.escape(bad.split(chr(10))[line - 1] or '(empty)')} "
        with pytest.raises(ValueError, match=want + "is not supported"):
            spec_from_text(bad, STREAM_ORDER, origin="fusion.cfg")

    def test_unknown_key(self):
        text = spec_to_text(make_spec()).replace("weight.bow = 1.0\n", "weight.bow = 1.0\nbogus = 1\n")
        with pytest.raises(ValueError, match="line 12: bogus = 1 is not supported"):
            spec_from_text(text, STREAM_ORDER)

    def test_unparsable_values_name_their_line(self):
        text = spec_to_text(make_spec()).replace("weight.fv1 = 1.0", "weight.fv1 = one")
        with pytest.raises(ValueError, match=r"fusion\.cfg: line 17: could not convert"):
            spec_from_text(text, STREAM_ORDER, origin="fusion.cfg")
        with pytest.raises(ValueError, match=r"fusion\.cfg: rho must lie in \(0, 1\]"):
            spec_from_text(spec_to_text(make_spec()).replace("rho = 0.1", "rho = 1.5"),
                           STREAM_ORDER, origin="fusion.cfg")

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            FusionSpec(STREAM_ORDER, rho=1.5)
        with pytest.raises(ValueError, match="raw weight for fv1"):
            make_spec(fv1=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="raw weight for fv1"):
                make_spec(fv1=bad)
        with pytest.raises(ValueError, match="beta"):
            FusionSpec(STREAM_ORDER, beta=-2.0)
        with pytest.raises(ValueError, match="raw weights for"):
            FusionSpec(("fv1", "det1"), {"fv1": 1.0, "det1": 1.0})   # no "det" slot
        with pytest.raises(ValueError, match="raw weights for"):
            FusionSpec(("fv1",), {"fv1": 1.0, "det": 1.0})
        for streams in (("det1", "fv1"), ("fv1", "fv1"), ("det5",)):
            with pytest.raises(ValueError, match="not distinct members"):
                FusionSpec(streams)
