"""The memoised per-placement structure and per-layout device rows, the
fixed-pattern Jacobian and its memoised pattern with SuperLU's column
order, and the test memos' reset."""

import importlib
import multiprocessing
import pkgutil

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import ffheflow
from conftest import clear_memos
from ffheflow import cli, load_bundled_case, report, system
from ffheflow.devices import ControlTarget, Mode, SeriesDevice, SsscDevice
from ffheflow.network import BusKind
from ffheflow.newton import flat_start
from ffheflow.report import StudyOptions, _base_solution, _passes, run_study
from ffheflow.system import (_column_order, _device_rows, _jacobian_pattern,
                             _structure, build_system, jacobian, lu_factor,
                             lu_solve, residual)

P_FLOW = ControlTarget(Mode.P_FLOW, 0.75)


def _sssc(target=P_FLOW, branch=(49, 50), z_se=0.01 + 0.01j):
    return SsscDevice("s", branch, target, z_se=z_se)


def _random_state(rng, sys):
    V = (1 + 0.05 * rng.normal(size=sys.n_bus)) \
        * np.exp(0.1j * rng.normal(size=sys.n_bus))
    I = rng.uniform(0.1, 1.0, size=sys.n_currents) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, size=sys.n_currents))
    return V, I


class TestStructureMemo:
    def test_targets_share_one_structure(self, case118):
        opts = StudyOptions(method="nr")
        a = run_study(case118, (_sssc(),), opts)
        b = run_study(case118, (_sssc(ControlTarget(Mode.Q_FLOW, 0.0)),),
                      opts)
        assert a.system.structure is b.system.structure
        assert a.system is not b.system

    def test_passes_share_it_and_placements_miss(self, case118):
        plain = build_system(case118, (_sssc(),))
        frozen = build_system(case118, (_sssc(),), frozen_q={49: 0.1})
        relaxed = build_system(
            case118, (_sssc(ControlTarget(Mode.V_SE, 0.3)),))
        assert frozen.structure is plain.structure
        assert relaxed.structure is plain.structure
        assert _structure.cache_info().hits == 2
        for other in (_sssc(z_se=0.02j), _sssc(branch=(101, 102))):
            assert build_system(case118, (other,)).structure \
                is not plain.structure
        assert _structure.cache_info().misses == 3

    def test_device_ids_share_one_structure(self, case118):
        a, b = (SsscDevice(i, (49, 50), P_FLOW) for i in ("a", "b"))
        assert build_system(case118, (a,)).structure \
            is build_system(case118, (b,)).structure
        info = _structure.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_pass_pins_leave_the_structure_alone(self, case118):
        plain = build_system(case118, (_sssc(),))
        frozen = build_system(case118, (_sssc(),), frozen_q={12: -0.2})
        b = case118.index_of[12]
        assert plain.pv[b] and not frozen.pv[b]
        assert frozen.net.bus(12).q_gen == -0.2
        assert plain.net.bus(12).q_gen != -0.2
        assert frozen.structure.pv[b]

    def test_memoised_arrays_are_read_only(self, case118):
        st = build_system(case118, (_sssc(),)).structure
        arrays = (st.yc.data, st.yc.indices, st.yc.indptr, st.slack, st.pv,
                  st.s_inj, st.v_set, st.t_rows, st.t_diag)
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            st.yc.data[0] = 0.0

    def test_memo_hit_gives_the_cold_study(self, case118):
        devs = (SeriesDevice("i", ((49, 50), (49, 51)), (
            ControlTarget(Mode.P_FLOW, 0.75, branch=0),
            ControlTarget(Mode.P_FLOW, 0.75, branch=1),
            ControlTarget(Mode.Q_FLOW, 0.03, branch=1))),)
        opts = StudyOptions(method="compare")
        cold = run_study(case118, devs, opts)
        misses = _structure.cache_info().misses
        warm = run_study(case118, devs, opts)
        assert _structure.cache_info().misses == misses
        assert warm.system.structure is cold.system.structure
        assert cold.V.tobytes() == warm.V.tobytes()
        assert cold.I.tobytes() == warm.I.tobytes()
        for name, st in cold.stats.items():
            assert (st.iterations, st.terms, st.mismatch) == \
                (warm.stats[name].iterations, warm.stats[name].terms,
                 warm.stats[name].mismatch)


class TestRowsMemo:
    """One device-row table per (placement, target layout): the passes that
    only pin or release generators share their pass's rows, and the
    setpoints live on each System."""

    @staticmethod
    def record_systems(monkeypatch):
        """Every System the study builds, from a wrapped build_system."""
        systems = []

        def recording(*args, **kwargs):
            systems.append(build_system(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(report, "build_system", recording)
        return systems

    def test_clamp_and_release_passes_share_one_rows(self, case118,
                                                     monkeypatch):
        # pinned at its q_max, bus 1 drives its voltage past its setpoint
        # and is released; bus 100 is clamped in between
        base = _base_solution(case118, StudyOptions(method="nr"))
        misses = _device_rows.cache_info().misses
        systems = self.record_systems(monkeypatch)
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        _passes(case118, (dev,), StudyOptions(method="nr"), flat_start, {},
                {**base.clamped_generators, 1: case118.bus(1).q_max})
        assert [(1 in s.frozen_q, 100 in s.frozen_q) for s in systems] == \
            [(True, False), (True, True), (False, True)]
        assert all(s.rows is systems[0].rows for s in systems)
        assert _device_rows.cache_info().misses == misses + 1

    def test_relaxation_pass_gets_other_rows(self, case118, monkeypatch):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                         v_se_max=0.3)
        _base_solution(case118, StudyOptions(method="nr"))
        systems = self.record_systems(monkeypatch)
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        assert rep.relaxed_branches == (("s", 0),)
        # the up-front placement check, the p_flow pass and its clamp pass,
        # then the relaxed v_se pass
        *held, relaxed = systems
        assert [s.devices[0].targets[0].mode for s in systems] == \
            [Mode.P_FLOW] * 3 + [Mode.V_SE]
        assert all(s.rows is held[0].rows for s in held)
        assert relaxed.rows is not held[0].rows
        assert relaxed.rows is rep.system.rows
        assert relaxed.setpoint.tolist() == [0.0, 0.3]

    def test_v_se_and_x_eq_on_one_branch_get_other_rows(self, case118):
        vse, xeq = (build_system(case118, (_sssc(ControlTarget(m, 0.1)),))
                    for m in (Mode.V_SE, Mode.X_EQ))
        assert vse.rows is not xeq.rows
        assert vse.rows.pow.tolist() == [0, 1]
        assert xeq.rows.pow.tolist() == [0, 2]
        assert _device_rows.cache_info().misses == 2

    def test_rows_and_setpoints_are_read_only(self, case118):
        sys_ = build_system(case118, _several_devices())
        for name, arr in vars(sys_.rows).items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            sys_.rows.row[0] = 1
        with pytest.raises(ValueError):
            sys_.setpoint[1] = 0.0


def _memos():
    """Every ``functools.lru_cache`` function of the ffheflow modules, by
    qualified name, found by its ``cache_info``."""
    memos = {}
    for info in pkgutil.iter_modules(ffheflow.__path__):
        mod = importlib.import_module(f"ffheflow.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == mod.__name__:
                memos[f"{mod.__name__}.{name}"] = obj
    return memos


def test_every_memo_is_empty_when_a_test_starts(case118):
    """The conftest clears every memo and stops the batch workers, so none
    carries one test's state into another: a memo added without its
    ``cache_clear`` fails here."""
    assert cli._pool is None
    assert multiprocessing.active_children() == []
    memos = _memos()
    assert {"ffheflow.network._parse_case", "ffheflow.report._base_solution",
            "ffheflow.system._structure", "ffheflow.system._device_rows",
            "ffheflow.system._jacobian_pattern"} <= memos.keys()
    assert {name: memo.cache_info().currsize
            for name, memo in memos.items()} == dict.fromkeys(memos, 0)
    run_study(load_bundled_case(), (_sssc(),), StudyOptions(method="nr"))
    assert all(memo.cache_info().currsize for memo in memos.values())
    clear_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos.values())


# ------------------------------------------------- fixed-pattern Jacobian


def _coo_jacobian(sys, V, I):
    """The Jacobian assembled from (row, column, value) triplets and
    converted by scipy, as before the fixed pattern."""
    n = sys.n_bus
    yc = sys.yc.tocoo()
    t_rows, t_cols = yc.row, yc.col
    a = np.conj(V)[t_rows] * yc.data
    b = np.zeros_like(a)
    diag = np.flatnonzero(t_rows == t_cols)
    b[diag] = (sys.yc @ np.concatenate([V, I]))[t_rows[diag]]
    p, q = a + b, a - b
    re = ~sys.slack[t_rows]
    im = ~(sys.pv | sys.slack)[t_rows]
    pv = np.flatnonzero(sys.pv)
    slack = np.flatnonzero(sys.slack)
    rows = [2 * t_rows[re], 2 * t_rows[re],
            2 * t_rows[im] + 1, 2 * t_rows[im] + 1,
            2 * pv + 1, 2 * pv + 1, 2 * slack, 2 * slack + 1]
    cols = [2 * t_cols[re], 2 * t_cols[re] + 1,
            2 * t_cols[im], 2 * t_cols[im] + 1,
            2 * pv, 2 * pv + 1, 2 * slack, 2 * slack + 1]
    vals = [p[re].real, -q[re].imag, p[im].imag, q[im].real,
            V[pv].real, V[pv].imag, np.ones(slack.size), np.ones(slack.size)]
    dev_rows, dev_cols, dev_vals = [], [], []

    def add(row, col, a, b=0j, imag=False):
        dev_rows.extend((row, row))
        dev_cols.extend((col, col + 1))
        if imag:
            dev_vals.extend((a.imag + b.imag, a.real - b.real))
        else:
            dev_vals.extend((a.real + b.real, -a.imag + b.imag))

    ccol = lambda c: 2 * n + 2 * c
    first = 2 * n       # rows counted here: two per branch of each device
    for dev, branches in zip(sys.devices, sys.structure.branches):
        row, first = first, first + 2 * len(dev.branches)
        for be in branches:
            cI = np.conj(I[be.cur_idx])
            add(row, 2 * be.m_idx, cI)
            add(row, 2 * be.i_idx, -cI)
            add(row, ccol(be.cur_idx), 0j, V[be.m_idx] - V[be.i_idx])
        for t in dev.targets:
            row += 1
            be = branches[t.branch]
            cur = I[be.cur_idx]
            cI = np.conj(cur)
            dv = V[be.m_idx] - V[be.i_idx]
            if t.mode in (Mode.P_FLOW, Mode.Q_FLOW):
                imag = t.mode is Mode.Q_FLOW
                add(row, 2 * be.i_idx, cI, imag=imag)
                add(row, ccol(be.cur_idx), 0j, V[be.i_idx], imag=imag)
            elif t.mode is Mode.V_BUS:
                tb = sys.net.index_of[dev.target_bus(t)]
                add(row, 2 * tb, 0.5 * np.conj(V[tb]), 0.5 * V[tb])
            else:
                div = {Mode.Q_INJ: 1.0, Mode.V_SE: abs(cur),
                       Mode.X_EQ: abs(cur) ** 2}[t.mode]
                add(row, 2 * be.m_idx, cI / div, imag=True)
                add(row, 2 * be.i_idx, -cI / div, imag=True)
                add(row, ccol(be.cur_idx), 0j, dv / div, imag=True)
                q = (dv * cI).imag
                if t.mode is Mode.V_SE:
                    den = 2 * div ** 3
                elif t.mode is Mode.X_EQ:
                    den = div ** 2
                else:
                    continue
                add(row, ccol(be.cur_idx), -q * cI / den, -q * cur / den)
    return sparse.csc_matrix(
        (np.concatenate(vals + [dev_vals]),
         (np.concatenate(rows + [dev_rows]),
          np.concatenate(cols + [dev_cols]))),
        shape=(sys.size, sys.size))


def _assert_same_csc(J, ref):
    assert J.format == "csc" and J.shape == ref.shape
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.array_equal(J.data, ref.data)


def _modes_devices(mode):
    """An SSSC and a two-branch IPFC, each with a ``mode`` target."""
    sp = 1.0 if mode is Mode.V_BUS else 0.1
    return (
        SsscDevice("s", (101, 102), ControlTarget(mode, sp)),
        SeriesDevice("i", ((49, 50), (49, 51)),
                     (ControlTarget(mode, sp, branch=0),
                      ControlTarget(Mode.P_FLOW, 0.7, branch=1),
                      ControlTarget(Mode.Q_FLOW, 0.1, branch=1))))


@pytest.mark.parametrize("mode", list(Mode))
def test_filled_jacobian_equals_the_coo_reference(case118, mode):
    sys = build_system(case118, _modes_devices(mode))
    rng = np.random.default_rng(7)
    for _ in range(3):      # one pattern, refilled at each state
        V, I = _random_state(rng, sys)
        _assert_same_csc(jacobian(sys, V, I), _coo_jacobian(sys, V, I))


def test_filled_jacobian_without_devices(case118):
    sys = build_system(case118)
    assert sys.rows.row.size == 0
    rng = np.random.default_rng(9)
    for _ in range(2):
        V, I = _random_state(rng, sys)
        _assert_same_csc(jacobian(sys, V, I), _coo_jacobian(sys, V, I))


def test_filled_jacobian_after_a_pv_clamp(case118):
    devices = (_sssc(ControlTarget(Mode.X_EQ, -0.2)),)
    plain = build_system(case118, devices)
    clamped = build_system(case118, devices, frozen_q={12: -0.2, 59: 0.3})
    assert clamped.pv.sum() == plain.pv.sum() - 2
    V, I = _random_state(np.random.default_rng(8), clamped)
    J = jacobian(clamped, V, I)
    _assert_same_csc(J, _coo_jacobian(clamped, V, I))
    assert not np.array_equal(J.indices, jacobian(plain, V, I).indices)


# ------------------------------------ shared patterns and their column order


@pytest.fixture
def default_splu_calls(monkeypatch):
    """Counts ``splu`` calls that let SuperLU choose the column order."""
    calls = []

    def counted(A, permc_spec=None, **kwargs):
        if permc_spec is None:
            calls.append(A.shape)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(system, "splu", counted)
    return calls


class TestPatternMemo:
    def test_equal_inputs_share_one_pattern(self, case118):
        a = build_system(case118, (_sssc(),))
        b = build_system(case118, (_sssc(ControlTarget(Mode.P_FLOW, 0.5)),))
        assert a is not b and a.rows is b.rows
        assert a.setpoint.tolist() == [0.0, 0.75]
        assert b.setpoint.tolist() == [0.0, 0.5]
        assert a.pattern is b.pattern
        info = _jacobian_pattern.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("other", [
        dict(frozen_q={12: -0.2}),                          # PV mask
        dict(devices=(_sssc(ControlTarget(Mode.Q_FLOW, 0.0)),)),  # rows
        dict(devices=(_sssc(branch=(101, 102)),)),          # structure
    ])
    def test_other_inputs_get_another(self, case118, other):
        plain = build_system(case118, (_sssc(),))
        kw = {"devices": (_sssc(),), **other}
        sys_ = build_system(case118, kw.pop("devices"), **kw)
        assert sys_.pattern is not plain.pattern
        assert _jacobian_pattern.cache_info().misses == 2
        V, I = _random_state(np.random.default_rng(3), sys_)
        _assert_same_csc(jacobian(sys_, V, I), _coo_jacobian(sys_, V, I))

    def test_pattern_arrays_are_read_only(self, case118):
        pat = build_system(case118, (_sssc(),)).pattern
        for name in ("bus_take", "pv_take", "d_im", "scatter", "perm_c",
                     "order", "take"):
            assert not getattr(pat, name).flags.writeable, name
        for csc in (pat.csc, pat.lu_csc):
            for arr in (csc.data, csc.indices, csc.indptr):
                assert not arr.flags.writeable

    def test_rerun_adds_no_pattern_and_no_ordering(self, case118,
                                                   default_splu_calls):
        devs = (SeriesDevice("i", ((49, 50), (49, 51)), (
            ControlTarget(Mode.P_FLOW, 0.75, branch=0),
            ControlTarget(Mode.P_FLOW, 0.75, branch=1),
            ControlTarget(Mode.Q_FLOW, 0.03, branch=1))),)
        opts = StudyOptions(method="compare")
        cold = run_study(case118, devs, opts)
        info = _jacobian_pattern.cache_info()
        # one default-order factorisation per pattern, when it is built
        assert len(default_splu_calls) == info.misses >= 2
        rows_misses = _device_rows.cache_info().misses
        warm = run_study(case118, devs, opts)
        assert _jacobian_pattern.cache_info().misses == info.misses
        assert _device_rows.cache_info().misses == rows_misses
        assert len(default_splu_calls) == info.misses
        assert warm.system.pattern is cold.system.pattern
        assert warm.system.rows is cold.system.rows
        assert cold.V.tobytes() == warm.V.tobytes()


@pytest.mark.parametrize("mode", list(Mode))
def test_column_order_is_superlus_own(case118, mode):
    """The pattern's order is the one SuperLU picks itself for every
    Jacobian of the pattern, and a factorisation in that order solves
    ``J x = r`` as a default ``splu`` does."""
    sys_ = build_system(case118, _modes_devices(mode))
    pat = sys_.pattern
    rng = np.random.default_rng(11)
    for _ in range(2):      # the pattern's first factorisation, and a later
        V, I = _random_state(rng, sys_)
        J, r = jacobian(sys_, V, I), residual(sys_, V, I)
        ref = splu(J)
        assert np.array_equal(pat.perm_c, ref.perm_c)
        x = lu_solve(lu_factor(J, pat), r)
        x_ref = ref.solve(r)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
        assert np.max(np.abs(J @ x - r)) <= 1e-10 * np.max(np.abs(r))


def _several_devices():
    """Two SSSCs and a two-branch IPFC, with companion rows among them."""
    return (
        SsscDevice("a", (49, 50), ControlTarget(Mode.X_EQ, -0.2)),
        SsscDevice("b", (101, 102), ControlTarget(Mode.V_SE, 0.1)),
        SeriesDevice("c", ((100, 104), (100, 106)),
                     (ControlTarget(Mode.Q_INJ, 0.05, branch=0),
                      ControlTarget(Mode.P_FLOW, 1.0, branch=1),
                      ControlTarget(Mode.Q_FLOW, 0.0, branch=1))))


def test_factorised_matrix_is_the_symmetric_permutation(case118):
    """SuperLU is handed ``P J P^T``: J's rows and columns both in the
    pattern's order, so the diagonal it prefers as pivots is J's."""
    sys_ = build_system(case118, _several_devices())
    pat = sys_.pattern
    V, I = _random_state(np.random.default_rng(17), sys_)
    J = jacobian(sys_, V, I)
    ref = J[pat.order][:, pat.order].tocsc()
    ref.sort_indices()
    _assert_same_csc(system._csc(pat.lu_csc, J.data[pat.take]), ref)
    assert np.array_equal(pat.order[pat.perm_c], np.arange(sys_.size))


@pytest.mark.parametrize("devices", [
    *(_modes_devices(mode) for mode in Mode), _several_devices()],
    ids=[*(mode.value for mode in Mode), "several"])
def test_column_by_column_factor_solves_as_default_splu(case118, devices,
                                                        monkeypatch):
    """Every factorisation runs column by column, with no relaxed
    supernodes and KLU's diagonal-preferring pivot threshold, and solves
    ``J x = r`` as a default-option ``splu``."""
    sys_ = build_system(case118, devices)
    pattern = sys_.pattern      # built, with its own default-option splu
    options = []

    def recorded(A, **kwargs):
        options.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(system, "splu", recorded)
    rng = np.random.default_rng(13)
    for _ in range(3):
        V, I = _random_state(rng, sys_)
        J, r = jacobian(sys_, V, I), residual(sys_, V, I)
        x = lu_solve(lu_factor(J, pattern), r)
        x_ref = splu(J).solve(r)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
        assert np.max(np.abs(J @ x - r)) <= 1e-10 * np.max(np.abs(r))
    assert options == 3 * [dict(permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                                panel_size=1, relax=1)]


class TestFrozenQ:
    def test_unknown_bus_is_named(self, case118):
        with pytest.raises(ValueError, match="bus 9999 "):
            build_system(case118, (_sssc(),), frozen_q={12: -0.2,
                                                        9999: 0.1})

    @pytest.mark.parametrize("kind", [BusKind.PQ, BusKind.SLACK])
    def test_bus_that_is_not_pv_is_named(self, case118, kind):
        ext = next(b.ext_id for b in case118.buses if b.kind is kind)
        with pytest.raises(ValueError, match=f"bus {ext} "):
            build_system(case118, frozen_q={ext: 0.1})


def test_singular_jacobian_raises_on_every_factorisation(case118):
    sys_ = build_system(case118, (_sssc(),))
    V = np.zeros(sys_.n_bus, dtype=complex)     # every PQ row vanishes
    J = jacobian(sys_, V, np.ones(sys_.n_currents, dtype=complex))
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            lu_factor(J, sys_.pattern)
    V, I = _random_state(np.random.default_rng(5), sys_)
    J, r = jacobian(sys_, V, I), residual(sys_, V, I)
    x = lu_solve(lu_factor(J, sys_.pattern), r)
    assert np.max(np.abs(J @ x - r)) <= 1e-10 * np.max(np.abs(r))


def test_structurally_singular_pattern_keeps_natural_order():
    indptr = np.array([0, 2, 2, 3], dtype=np.int32)     # column 1 is empty
    indices = np.array([0, 2, 1], dtype=np.int32)
    assert np.array_equal(_column_order(indices, indptr), np.arange(3))
