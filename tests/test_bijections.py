import os
import subprocess
import sys
import textwrap
from itertools import groupby, zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import youngwalls
from youngwalls import bijections
from youngwalls import (
    CertificationError,
    MapResult,
    MapStep,
    Partition,
    WallParams,
    count_partitions,
    enumerate_partitions,
    enumerate_proper,
    enumerate_reduced,
    enumerate_strict,
    is_reduced,
    phi,
    phi_inv,
    psi,
    psi_inv,
    verify_bijections,
    weight,
)

from walk_oracle import verify_bijections_by_walk

P2 = WallParams(2)
P3 = WallParams(3)


class TestInsertBlocks:
    """``phi_inv`` inserts a pair of parts v * delta per bookkeeping part v."""

    def test_insert_between(self):
        assert phi_inv(Partition((7, 1)), Partition((2,)), P2) == (7, 6, 6, 1)

    def test_insert_pair(self):
        assert phi_inv(Partition((1,)), Partition((1,)), P2) == (3, 3, 1)

    def test_insert_after_equal_parts(self):
        rebuilt = phi_inv(Partition((7, 6, 1)), Partition((2, 2, 1)), P2)
        assert rebuilt == (7, 6, 6, 6, 6, 6, 3, 3, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="is not strict"):
            phi_inv(Partition((3, 3)), Partition((1,)), P2)
        with pytest.raises(ValueError, match="must be non-empty"):
            phi_inv(Partition((3,)), Partition(), P2)


class TestMapRecords:
    """``MapStep`` and ``MapResult`` are immutable values."""

    STEP = MapStep(l=1, i=2, value=3)
    RESULT = MapResult(reduced_part=Partition((2,)), hat_part=Partition((1,)), k=1,
                       trace=(STEP,))

    def test_keyword_and_positional_construction_agree(self):
        assert self.STEP == MapStep(1, 2, 3)
        assert (self.STEP.l, self.STEP.i, self.STEP.value) == (1, 2, 3)
        assert self.RESULT == MapResult(Partition((2,)), Partition((1,)), 1,
                                        (MapStep(1, 2, 3),))
        assert self.RESULT.reduced_part == (2,) and self.RESULT.hat_part == (1,)
        assert self.RESULT.k == 1 and self.RESULT.trace == (self.STEP,)

    def test_equality_and_hash(self):
        assert self.STEP != MapStep(l=1, i=2, value=4)
        assert hash(self.STEP) == hash(MapStep(1, 2, 3))
        assert self.RESULT != MapResult(Partition((2,)), Partition((1,)), 1, ())
        assert hash(self.RESULT) == hash(MapResult(Partition((2,)), Partition((1,)), 1,
                                                   (MapStep(1, 2, 3),)))
        assert psi(Partition((7,)), P2) == MapResult(Partition((1,)), Partition((1,)), 1,
                                                     (MapStep(1, 2, 1),))

    def test_immutable(self):
        for record, field in ((self.STEP, "value"), (self.RESULT, "k")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)

    def test_repr(self):
        assert repr(self.STEP) == "MapStep(l=1, i=2, value=3)"
        assert repr(self.RESULT) == (
            "MapResult(reduced_part=Partition((2,)), hat_part=Partition((1,)), "
            "k=1, trace=(MapStep(l=1, i=2, value=3),))")


class TestPrefixStripMap:
    def test_single_column(self):
        result = psi(Partition((7,)), P2)
        assert result.reduced_part == (1,)
        assert result.hat_part == (1,)
        assert result.k == 1
        assert result.trace == (MapStep(l=1, i=2, value=1),)

    def test_two_equal_columns(self):
        result = psi(Partition((6, 6)), P2)
        assert result.reduced_part == ()
        assert result.hat_part == (1, 1)
        assert result.k == 2

    def test_double_quantum(self):
        result = psi(Partition((14, 1)), P2)
        assert result.reduced_part == (2, 1)
        assert result.hat_part == (2,)
        assert result.k == 2
        assert result.trace == (MapStep(l=1, i=2, value=2),)

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            psi(Partition((2, 2)), P2)

    def test_rejects_already_reduced(self):
        with pytest.raises(ValueError):
            psi(Partition((5, 1)), P2)

    @pytest.mark.parametrize(
        "reduced,hat,expected",
        [((1,), (1,), (7,)), ((), (1, 1), (6, 6)), ((2, 1), (2,), (14, 1))],
    )
    def test_inverse_known(self, reduced, hat, expected):
        assert psi_inv(Partition(reduced), Partition(hat), P2) == expected

    def test_inverse_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            psi_inv(Partition((7,)), Partition((1,)), P2)

    def test_inverse_rejects_empty_hat(self):
        with pytest.raises(ValueError):
            psi_inv(Partition((1,)), Partition(), P2)


class TestPairDeleteMap:
    def test_single_pair(self):
        result = phi(Partition((3, 3, 1)), P2)
        assert result.reduced_part == (1,)
        assert result.hat_part == (1,)
        assert result.k == 1
        assert result.trace == (MapStep(l=1, i=2, value=3),)

    def test_smaller_pair_removed_first(self):
        result = phi(Partition((6, 6, 3, 3)), P2)
        assert result.reduced_part == ()
        assert result.hat_part == (2, 1)
        assert result.k == 3
        assert [s.value for s in result.trace] == [3, 6]

    def test_rank_three(self):
        result = phi(Partition((4, 4)), P3)
        assert result.reduced_part == ()
        assert result.hat_part == (1,)
        assert result.k == 1

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            phi(Partition((1, 1)), P2)

    def test_rejects_already_strict(self):
        with pytest.raises(ValueError):
            phi(Partition((4, 3)), P2)

    @pytest.mark.parametrize(
        "strict_part,hat,expected",
        [
            ((1,), (1,), (3, 3, 1)),
            ((), (2, 1), (6, 6, 3, 3)),
            ((5, 2), (1,), (5, 3, 3, 2)),
        ],
    )
    def test_inverse_known(self, strict_part, hat, expected):
        assert phi_inv(Partition(strict_part), Partition(hat), P2) == expected

    def test_inverse_rejects_non_strict(self):
        with pytest.raises(ValueError):
            phi_inv(Partition((3, 3)), Partition((1,)), P2)

    def test_inverse_rejects_empty_hat(self):
        with pytest.raises(ValueError):
            phi_inv(Partition((1,)), Partition(), P2)

    def test_repeated_pair_values(self):
        result = phi(Partition((3, 3, 3, 3)), P2)
        assert result.reduced_part == ()
        assert result.hat_part == (1, 1)
        assert phi_inv(Partition(), Partition((1, 1)), P2) == (3, 3, 3, 3)


def strip_domain(params, m):
    return [
        lam for lam in enumerate_proper(params, m) if not is_reduced(lam, params)
    ]


def delete_domain(params, m):
    return [lam for lam in enumerate_proper(params, m) if not lam.is_strict()]


@pytest.mark.parametrize("n", [2, 3])
class TestRoundTrips:
    def test_strip_map_bijects(self, n):
        params = WallParams(n)
        for m in range(20):
            images = set()
            for lam in strip_domain(params, m):
                result = psi(lam, params)
                assert is_reduced(result.reduced_part, params)
                assert result.hat_part.size == result.k >= 1
                assert psi_inv(result.reduced_part, result.hat_part, params) == lam
                images.add((result.reduced_part, result.hat_part))
            expected = {
                (red, hat)
                for k in range(1, m // params.period + 1)
                for red in enumerate_reduced(params, m - params.period * k)
                for hat in enumerate_partitions(k)
            }
            assert images == expected, (n, m)

    def test_delete_map_bijects(self, n):
        params = WallParams(n)
        for m in range(20):
            images = set()
            for lam in delete_domain(params, m):
                result = phi(lam, params)
                assert result.reduced_part.is_strict()
                assert result.hat_part.size == result.k >= 1
                assert phi_inv(result.reduced_part, result.hat_part, params) == lam
                images.add((result.reduced_part, result.hat_part))
            expected = {
                (strict, hat)
                for k in range(1, m // params.period + 1)
                for strict in enumerate_strict(m - params.period * k)
                for hat in enumerate_partitions(k)
            }
            assert images == expected, (n, m)

    def test_weight_shift_by_two_k(self, n):
        params = WallParams(n)
        for m in range(16):
            for lam in strip_domain(params, m):
                result = psi(lam, params)
                before = weight(lam, params)
                after = weight(result.reduced_part, params)
                assert all(
                    b - a == 2 * result.k for b, a in zip(before, after)
                ), (n, m, lam)
            for lam in delete_domain(params, m):
                result = phi(lam, params)
                before = weight(lam, params)
                after = weight(result.reduced_part, params)
                assert all(
                    b - a == 2 * result.k for b, a in zip(before, after)
                ), (n, m, lam)

    def test_domain_size_identity(self, n):
        params = WallParams(n)
        for m in range(25):
            proper = len(enumerate_proper(params, m))
            reduced = len(enumerate_reduced(params, m))
            strict = len(enumerate_strict(m))
            tail_reduced = sum(
                len(enumerate_reduced(params, m - params.period * k))
                * count_partitions(k)
                for k in range(1, m // params.period + 1)
            )
            tail_strict = sum(
                len(enumerate_strict(m - params.period * k)) * count_partitions(k)
                for k in range(1, m // params.period + 1)
            )
            assert proper - reduced == tail_reduced
            assert proper - strict == tail_strict


@given(
    n=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=1, max_value=26),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(n, m, seed):
    params = WallParams(n)
    proper = enumerate_proper(params, m)
    lam = proper[seed % len(proper)]
    if not is_reduced(lam, params):
        result = psi(lam, params)
        assert psi_inv(result.reduced_part, result.hat_part, params) == lam
    if not lam.is_strict():
        result = phi(lam, params)
        assert phi_inv(result.reduced_part, result.hat_part, params) == lam


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rebuild_cores_match_public_inverses(n):
    params = WallParams(n)
    for m in range(31):
        for lam in enumerate_proper(params, m):
            if not is_reduced(lam, params):
                r = psi(lam, params)
                rebuilt = bijections._psi_rebuild_core(r.reduced_part, r.hat_part,
                                                       params)
                assert rebuilt == psi_inv(r.reduced_part, r.hat_part, params) == lam
            if not lam.is_strict():
                r = phi(lam, params)
                rebuilt = bijections._phi_rebuild_core(r.reduced_part, r.hat_part,
                                                       params)
                assert rebuilt == phi_inv(r.reduced_part, r.hat_part, params) == lam


def iterative_psi(lam, params):
    """Oracle: strip one gap at a time, rescanning after every step for the
    deepest gap (the last part against 0) still too wide for a reduced wall,
    and shrink the prefix above it by the most quanta that keep it proper."""
    delta, period = params.delta, params.period
    cur, trace = list(lam), []
    while True:
        for i in range(len(cur) + 1, 1, -1):
            hi = cur[i - 2]
            gap = hi - (cur[i - 1] if i - 1 < len(cur) else 0)
            t = 0
            while gap > (t + 1) * period or (
                gap == (t + 1) * period and hi % delta == 0
            ):
                t += 1
            if t:
                break
        else:
            break
        cur[: i - 1] = [a - t * period for a in cur[: i - 1]]
        while cur and cur[-1] == 0:
            cur.pop()
        trace.append((len(trace) + 1, i, t))
    hat = Partition(
        (a - b) // period for a, b in zip_longest(lam, cur, fillvalue=0)
    )
    return tuple(cur), hat, hat.size, trace


def iterative_phi(lam, params):
    """Oracle: delete the deepest equal adjacent pair, rescan, repeat."""
    cur, trace, values = list(lam), [], []
    while True:
        for i in range(len(cur), 1, -1):
            if cur[i - 2] == cur[i - 1]:
                break
        else:
            break
        height = cur[i - 1]
        del cur[i - 2 : i]
        values.append(height // params.delta)
        trace.append((len(trace) + 1, i, height))
    return tuple(cur), tuple(reversed(values)), sum(values), trace


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_pass_maps_match_iterative_oracles(n):
    params = WallParams(n)
    for m in range(31):
        for lam in enumerate_proper(params, m):
            for forward, oracle, in_target in (
                (psi, iterative_psi, is_reduced(lam, params)),
                (phi, iterative_phi, lam.is_strict()),
            ):
                if in_target:
                    continue
                r = forward(lam, params)
                steps = [(s.l, s.i, s.value) for s in r.trace]
                got = (r.reduced_part, r.hat_part, r.k, steps)
                assert got == oracle(lam, params), (n, lam, forward.__name__)


def groupby_phi_core(lam, params):
    """Oracle: ``_phi_core`` run by run (``groupby``), not pair by pair: a
    run of c equal parts v keeps c % 2 of them and gives c // 2
    bookkeeping parts v / delta."""
    delta, part, hat = params.delta, [], []
    for height, run in groupby(lam):
        count = len(list(run))
        if count % 2:
            part.append(height)
        if count > 1:
            hat += [height // delta] * (count // 2)
    return tuple(part), tuple(hat)


def zip_longest_psi_rebuild_core(reduced, hat, params):
    """Oracle: ``_psi_rebuild_core`` as a generator over both tuples, each
    padded with zeros to the longer one."""
    period = params.period
    return tuple(a + period * h for a, h in zip_longest(reduced, hat, fillvalue=0))


def assert_cores_match_oracles(lam, other, params):
    """``_phi_core`` on ``lam``, and ``_psi_rebuild_core`` on (lam, other)
    and on both cores' images of ``lam``, equal their oracles."""
    assert bijections._phi_core(lam, params) == groupby_phi_core(lam, params)
    for part, hat in ((lam, other), bijections._psi_core(lam, params),
                      bijections._phi_core(lam, params)):
        assert (bijections._psi_rebuild_core(part, hat, params)
                == zip_longest_psi_rebuild_core(part, hat, params))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cores_match_their_oracles_on_proper_walls(n):
    params = WallParams(n)
    for m in range(31):
        for lam in enumerate_proper(params, m):
            assert_cores_match_oracles(tuple(lam), (), params)


weakly_decreasing = st.lists(st.integers(min_value=0, max_value=60), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(n=st.integers(min_value=2, max_value=5), lam=weakly_decreasing,
       other=weakly_decreasing)
@example(n=2, lam=(7, 6, 6, 6, 0, 0), other=(5, 4, 4, 3, 3, 3, 2, 1))
def test_cores_match_their_oracles_on_any_input(n, lam, other):
    # the cores check nothing, so they must agree on what is not a wall too
    assert_cores_match_oracles(lam, other, WallParams(n))


class TestCertification:
    # the public maps and the walk oracle run one certified image of the
    # table of cores, built per call from the bijections module's globals:
    # rebinding a core there reaches both

    def test_verify_catches_certification_failure(self, monkeypatch):
        real = bijections._psi_core

        def wrong_hat(lam, params):
            part, hat = real(lam, params)
            return part, hat + (1,)

        monkeypatch.setattr(bijections, "_psi_core", wrong_hat)
        with pytest.raises(CertificationError, match="^psi round trip mismatch$"):
            psi(Partition((7,)), P2)
        assert not verify_bijections_by_walk(P2, 7).passed

    def test_verify_catches_a_rebound_rebuild_core(self, monkeypatch):
        real = bijections._phi_rebuild_core

        def one_pair_short(part, hat, params):
            return real(part, hat[1:], params)

        monkeypatch.setattr(bijections, "_phi_rebuild_core", one_pair_short)
        with pytest.raises(CertificationError, match="^phi round trip mismatch$"):
            phi(Partition((3, 3, 1)), P2)
        assert verify_bijections_by_walk(P2, 7).counterexample == {
            "m": 6, "map": "phi", "partition": (3, 3),
            "error": "phi round trip mismatch"
        }

    def test_broken_rebuild_core_is_a_round_trip_mismatch(self, monkeypatch):
        real = bijections._psi_rebuild_core

        def off_by_one_column(reduced, hat, params):
            return real(reduced, hat, params) + (1,)

        monkeypatch.setattr(bijections, "_psi_rebuild_core", off_by_one_column)
        report = verify_bijections_by_walk(P2, 7)
        assert not report.passed
        assert report.counterexample == {"m": 6, "map": "psi", "partition": (6,),
                                         "error": "psi round trip mismatch"}

    def test_forward_certification_error_is_a_failure(self, monkeypatch):
        def refusing(lam, params):
            raise CertificationError("psi result not reduced")

        monkeypatch.setattr(bijections, "_psi_core", refusing)
        report = verify_bijections_by_walk(P2, 7)
        assert not report.passed
        # the wall's own failure, not the image loss it causes at m = 6
        assert report.counterexample == {"m": 6, "map": "psi", "partition": (6,),
                                         "error": "psi result not reduced"}

    def test_survives_optimized_mode(self):
        script = textwrap.dedent("""
            import youngwalls.bijections as b
            from youngwalls import Partition, WallParams

            print("debug:", __debug__)
            real_core = b._psi_core

            def wrong_hat(lam, params):
                part, hat = real_core(lam, params)
                return part, hat + (1,)

            b._psi_core = wrong_hat
            try:
                b.psi_inv(Partition((2, 1)), Partition((2,)), WallParams(2))
            except b.CertificationError as exc:
                print("raised:", exc)
            else:
                print("not raised")
        """)
        src = str(Path(youngwalls.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "debug: False\nraised: psi_inv round trip mismatch\n"


def _nothing_stripped(lam, params):
    """A broken forward core: strips nothing, yet books one quantum."""
    return tuple(lam), (1,)


def _nothing_added(part, hat, params):
    """A broken rebuild core: adds nothing back."""
    return tuple(part)


def _no_quanta(a, b, delta):
    """A broken psi step: no adjacency sheds a quantum."""
    return 0


def _keeps_every_part(v, r, delta):
    """A broken phi step: keeps the whole run."""
    return r, 0, v // delta


def _adds_nothing(x, h, delta):
    """A broken psi rebuild step: puts no quantum back."""
    return x


def _pair_at_zero(j, delta):
    """A broken phi rebuild step: puts each pair back at height 0."""
    return 0


@pytest.mark.parametrize(
    "step, body, public_call, witness",
    # the core that folds or maps the step breaks, and verify reports the
    # smallest state of the step that breaks a claim
    [("_psi_step", _no_quanta, lambda: psi(Partition((7,)), P2),
      {"m": 6, "map": "psi", "partition": (6,), "error": "psi hat size"}),
     ("_phi_step", _keeps_every_part, lambda: phi(Partition((3, 3, 1)), P2),
      {"m": 6, "map": "phi", "partition": (3, 3), "error": "phi result not strict"}),
     ("_psi_rebuild_step", _adds_nothing,
      lambda: psi_inv(Partition((1,)), Partition((1,)), P2),
      {"m": 6, "map": "psi", "partition": (6,), "error": "psi round trip mismatch"}),
     ("_phi_rebuild_step", _pair_at_zero,
      lambda: phi_inv(Partition((1,)), Partition((1,)), P2),
      {"m": 6, "map": "phi", "partition": (3, 3), "error": "phi round trip mismatch"})],
    ids=["psi_core", "phi_core", "psi_rebuild_core", "phi_rebuild_core"],
)
def test_one_core_serves_map_and_verify(monkeypatch, step, body, public_call,
                                        witness):
    # swapping the body of the one step function object breaks it for every
    # caller that holds it: the core that the public map runs, and verify
    monkeypatch.setattr(getattr(bijections, step), "__code__", body.__code__)
    with pytest.raises((ValueError, CertificationError)):
        public_call()
    assert verify_bijections(P2, 7).counterexample == witness


@pytest.mark.parametrize("name, wall, family",
                         [("psi", (7,), "reduced"), ("phi", (3, 3, 1), "strict")],
                         ids=["psi", "phi"])
@pytest.mark.parametrize(
    "edit, message",
    # each edit of the true image (part, hat) breaks one clause alone
    [(lambda lam, part, hat: (tuple(lam), (1,)), "result not {family}"),
     # non-canonical images fail their clause, unrepaired and unparsed
     (lambda lam, part, hat: ((1, 3), hat), "result not {family}"),
     (lambda lam, part, hat: (part + (-1,), hat), "result not {family}"),
     (lambda lam, part, hat: (part, ()), "hat size"),
     (lambda lam, part, hat: (part, hat + (0,)), "hat size"),
     # the wrong hat that phi once caught against its trace
     (lambda lam, part, hat: (part, hat + (1,)), "round trip mismatch")],
    ids=["target_family", "increasing_part", "negative_part", "empty_hat",
         "hat_trailing_zero", "round_trip"],
)
def test_each_certificate_clause_is_read(monkeypatch, name, wall, family, edit,
                                         message):
    real = getattr(bijections, f"_{name}_core")
    monkeypatch.setattr(bijections, f"_{name}_core",
                        lambda lam, params: edit(lam, *real(lam, params)))
    expected = f"{name} {message.format(family=family)}"
    with pytest.raises(CertificationError, match=f"^{expected}$"):
        getattr(bijections, name)(Partition(wall), P2)


@pytest.mark.parametrize(
    "cores, part, hat",
    # each rebuilt wall fails one clause of the inverse's certificate alone:
    # psi's core sends the improper (7, 7) to ((7, 1), (1,)), and a core that
    # strips nothing books the reduced (1,) as ((1,), (1,))
    [({"_psi_rebuild_core": lambda part, hat, params: (7, 7)}, (7, 1), (1,)),
     ({"_psi_rebuild_core": _nothing_added, "_psi_core": _nothing_stripped},
      (1,), (1,))],
    ids=["improper", "in_target"],
)
def test_each_inverse_clause_is_read(monkeypatch, cores, part, hat):
    for core, body in cores.items():
        monkeypatch.setattr(bijections, core, body)
    with pytest.raises(CertificationError, match="^psi_inv round trip mismatch$"):
        psi_inv(Partition(part), Partition(hat), P2)


@pytest.mark.parametrize(
    "call, message",
    # plain tuples that the Partition constructor would repair or refuse
    [(lambda: psi((7, 0), P2), r"^\(7, 0\) is not a proper wall$"),
     (lambda: phi((3, 3, 0), P2), r"^\(3, 3, 0\) is not a proper wall$"),
     (lambda: psi((1, 7), P2), r"^\(1, 7\) is not a proper wall$"),
     (lambda: psi_inv(Partition((7, 1)), (0,), P2), r"^\(0,\) is not a partition$"),
     (lambda: phi_inv((1, 0), Partition((1,)), P2), r"^\(1, 0\) is not strict$")],
    ids=["psi_trailing_zero", "phi_trailing_zero", "psi_increasing",
         "psi_inv_zero_hat", "phi_inv_trailing_zero"],
)
def test_non_canonical_input_is_a_usage_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
