"""run() steps only the reflection classes it can reach.

The classes form Z_2^3 under XOR.  Advection maps classes (P, Q) to P ^ Q,
Coriolis about timestepper.PRECESSION_AXIS maps P to P ^ s for each of its
shifts s (basis.coriolis_shifts: 6 for e_x), and a kick or a constraint
projection adds e_z x x (class 3), so the fields outside the subgroup G
that timestepper.reachable_classes alone decides stay exactly 0 on the full
basis.  Each run below is stepped twice: on the full basis, where those
fields must read 0.0 at every record, and as run() steps it, on the basis
built on G alone, which holds the full basis's fields of G bit for bit at
N = 3 and whose CSV may differ from the full one by the round-off of
shorter sums only.  G is also no larger than the XOR-closure of the classes
of what the run injects.
"""

import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from precessflow import cli, diagnostics, timestepper
from precessflow.basis import (build_basis, class_subgroup, field_classes, poincare_field,
                               reference_projection, rotation_projection)
from precessflow.operators import BoundaryCondition, assemble
from precessflow.timestepper import ScenarioConfig, run

from conftest import DOMAINS, assert_same_fields, get_basis

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
# G of each bundled config: u_P (classes 3 and 6), e_z x x (3) and the e_x Coriolis shift
# (6) generate the centrosymmetric classes; the axial rotation alone at eps_p = 0 gives {0, 3}
CONFIG_GROUPS = {"fig1.cfg": (0, 3, 5, 6), "fig2_poincare.cfg": (0, 3, 5, 6),
                 "freedecay_spheroid.cfg": (0, 3, 5, 6), "freedecay_triaxial.cfg": (0, 3),
                 "gradbc_spheroid.cfg": (0, 3)}
# the kicked steady Poincare flow at N = 3, 100 steps, as in scripts/output_digests.py
KICKED = dict(degree=3, bc_form="poincare_stress", nu_inverse=0.00375, eps_p=0.25,
              init_type="poincare_plus_rotation", init_omega=0.025, dt=0.01, t_end=1.0,
              record_every=0.1, restart_time=0.55, restart_omega=0.025, beta=Fraction(9, 16))
_START_FROM = dict(init_type="solid_rotation", init_omega=None, restart_time=None,
                   restart_omega=None)
# changes to KICKED and the G they give
GENERATES = {
    "kicked_poincare": (dict(), (0, 3, 5, 6)),
    "axial_rotation": (dict(_START_FROM, eps_p=0.0, bc_form="stress_free", init_amplitude=0.1),
                       (0, 3)),
    # from rest, the kick alone reaches class 3 and Coriolis adds 6
    "kick_from_rest": (dict(bc_form="stress_free", init_type="solid_rotation", init_omega=None,
                            init_amplitude=0.0), (0, 3, 5, 6)),
    # from rest without precession, the forcing alone reaches u_P's class: u_P = e_z x x
    "forced_from_rest": (dict(_START_FROM, eps_p=0.0, init_amplitude=0.0), (0, 3)),
    "rest": (dict(_START_FROM, eps_p=0.0, bc_form="stress_free", init_amplitude=0.0), (0,)),
    "projection": (dict(_START_FROM, eps_p=0.0, bc_form="stress_free", init_amplitude=0.0,
                        constraint_mode="rot_momentum"), (0, 3)),
    **{f"constraint={mode}": (dict(constraint_mode=mode), (0, 3, 5, 6))
       for mode in diagnostics.CONSTRAINT_MODES},
    # a file seeded in class 2 alone, an even field: the Coriolis shift 6 adds class 4
    "coefficients": (dict(_START_FROM, bc_form="stress_free", init_type="coefficients"),
                     (0, 2, 4, 6)),
}
# largest difference between a column of the restricted run's CSV and the full one's, as a
# fraction of the column's largest magnitude: the bundled configs reach 2.2e-12 (fig1's
# E_perp, a difference of two energies)
ROUND_OFF = 1e-11
# E_perp = E_K - lam^2 gamma / 2 is a small difference of larger terms, so its round-off is
# bounded on the scale of E_K, its minuend; every other column on its own scale
SCALE_OF = {"E_perp": "E_K"}


def recorded_run(cfg, monkeypatch, full_basis=False):
    """(CSV columns, CSV bytes, the states at the records, the basis stepped) of run(cfg);
    full_basis makes every class reachable, so the run steps the full basis."""
    states, bases = [], []
    record = diagnostics.record

    def capturing(state, ops, ctx):
        states.append(np.array(state.coeffs))
        bases.append(ops.basis)
        return record(state, ops, ctx)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "record", capturing)
        if full_basis:
            m.setattr(timestepper, "reachable_classes", lambda *args: tuple(range(8)))
        run(cfg)
    assert all(b is bases[0] for b in bases)
    text = Path(cfg.output_path).read_bytes()
    lines = text.decode().splitlines()
    columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    return dict(zip(lines[0].split(","), columns)), text, states, bases[0]


def injected_closure(cfg, basis, c0):
    """The XOR-closure of the classes of the nonzero entries of what the run of cfg injects
    on basis, c0, F_bc, c_P and e_z x x when a kick or a projection is set, and, for
    eps_p != 0, of the class shifts of C_x's nonzero blocks."""
    bc_data = timestepper._bc_data(cfg, basis.domain)
    ops = assemble(basis, BoundaryCondition(cfg.bc_form, bc_data), nu=1.0 / cfg.nu_inverse,
                   eps_p=cfg.eps_p, precession_axis=timestepper.PRECESSION_AXIS,
                   include_advection=False)
    injected = [c0, ops.F_bc]
    if bc_data is not None:
        injected.append(reference_projection(bc_data, basis)[0])
    if cfg.restart_time is not None or cfg.constraint_mode is not None:
        injected.append(rotation_projection(basis)[0])
    classes = set(basis.classes[np.any(np.array(injected) != 0, axis=0)].tolist())
    if cfg.eps_p != 0:
        m = basis.members
        classes |= {p ^ q for p in m for q in m if np.any(ops.C_x[np.ix_(m[p], m[q])])}
    return class_subgroup(classes)


def assert_invariant_subspace(cfg, monkeypatch, group):
    """Both runs of cfg: zeros outside group on the full basis, round-off between the CSVs.

    Returns the two CSVs' bytes, full basis first."""
    full_cols, full_text, states, full = recorded_run(cfg, monkeypatch, full_basis=True)
    assert full is timestepper._run_basis(cfg.domain(), cfg.degree, tuple(range(8)))
    outside = ~np.isin(full.classes, group)
    assert outside.any() and len(states) > 2
    for coeffs in states:
        assert not np.any(coeffs[outside])     # every one exactly 0.0
    cols, text, _, basis = recorded_run(cfg, monkeypatch)
    assert tuple(basis.members) == tuple(p for p in group if p in full.members)
    # the run built G's classes alone, the same fields as the full basis's restriction to G
    assert basis is timestepper._run_basis(cfg.domain(), cfg.degree, group)
    assert_same_fields(basis, full.restrict(group))
    for name, column in cols.items():
        scale = np.max(np.abs(full_cols[SCALE_OF.get(name, name)]))
        assert np.max(np.abs(column - full_cols[name])) <= ROUND_OFF * scale, name
    return full_text, text


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_bundled_configs_stay_in_their_subgroup(path, tmp_path, monkeypatch):
    cfg = cli.scenario_from_config(cli.parse_config(path))
    cfg = dataclasses.replace(cfg, output_path=str(tmp_path / "run.csv"))
    group = timestepper.reachable_classes(cfg, cfg.degree)
    assert group == CONFIG_GROUPS[path.name]
    full_text, text = assert_invariant_subspace(cfg, monkeypatch, group)
    if path.name == "fig2_poincare.cfg":
        assert text == full_text


@pytest.mark.parametrize("mode", diagnostics.CONSTRAINT_MODES)
def test_constraint_modes_of_the_kicked_run_stay_in_their_subgroup(mode, tmp_path,
                                                                   monkeypatch):
    cfg = ScenarioConfig(**KICKED, constraint_mode=mode, output_path=str(tmp_path / "run.csv"))
    assert_invariant_subspace(cfg, monkeypatch, (0, 3, 5, 6))


@pytest.mark.parametrize("axis, group", [((0.0, 0.0, 1.0), (0, 3)),
                                         ((1.0, 0.0, 0.0), (0, 3, 5, 6))], ids=["e_z", "e_x"])
def test_the_run_axis_decides_the_coriolis_shift(axis, group, tmp_path, monkeypatch):
    # C_x about e_z shifts e_z x x's class 3 by 3, about e_x by 6
    monkeypatch.setattr(timestepper, "PRECESSION_AXIS", axis)
    axes, assemble_ = [], timestepper.assemble

    def recording(*args, **kwargs):
        axes.append(kwargs["precession_axis"])
        return assemble_(*args, **kwargs)

    monkeypatch.setattr(timestepper, "assemble", recording)
    cfg = ScenarioConfig(degree=3, bc_form="stress_free", nu_inverse=1.0, eps_p=0.25,
                         init_type="solid_rotation", init_amplitude=0.1, dt=0.01, t_end=1.0,
                         record_every=0.1, beta=Fraction(9, 16),
                         output_path=str(tmp_path / "run.csv"))
    assert timestepper.reachable_classes(cfg, cfg.degree) == group
    assert_invariant_subspace(cfg, monkeypatch, group)
    assert set(axes) == {axis}


class TestReachableClasses:
    @pytest.mark.parametrize("generators, group", [
        ((), (0,)), ((0,), (0,)), ((3,), (0, 3)), ((3, 6), (0, 3, 5, 6)),
        ((6, 3, 5), (0, 3, 5, 6)), ((1, 2, 4), tuple(range(8))), ((7, 7), (0, 7)),
    ])
    def test_class_subgroup_is_the_xor_closure(self, generators, group):
        assert class_subgroup(generators) == group
        assert all(p ^ q in group for p in group for q in group)

    def test_poincare_flow_lies_in_classes_3_and_6(self):
        assert field_classes(poincare_field(Fraction(9, 16), Fraction(1, 4)), 3) == {3, 6}
        assert field_classes(poincare_field(Fraction(9, 16), 0), 3) == {3}

    @pytest.mark.parametrize("changes, group", GENERATES.values(), ids=list(GENERATES))
    def test_what_generates_g(self, changes, group, tmp_path):
        # G is the closure of what the run injects: large enough, and no larger
        full = get_basis("spheroid", 3)
        np.savetxt(tmp_path / "init.txt", np.where(full.classes == 2, 0.01, 0.0))
        cfg = ScenarioConfig(**(KICKED | changes))
        if cfg.init_type == "coefficients":
            cfg.init_path = str(tmp_path / "init.txt")
        c0 = timestepper.initial_coefficients(cfg, full)
        found = full.classes[c0 != 0].tolist() if cfg.init_type == "coefficients" else ()
        assert timestepper.reachable_classes(cfg, 3, found) == group
        assert group == injected_closure(cfg, full, c0)

    def test_a_zero_state_that_nothing_drives_steps_the_full_basis(self, tmp_path,
                                                                  monkeypatch):
        # G = {0}, and N = 2 has no class-0 field: nothing to restrict to
        cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                             init_type="solid_rotation", init_amplitude=0.0, dt=0.01,
                             t_end=0.05, record_every=0.01, beta=Fraction(9, 16),
                             output_path=str(tmp_path / "run.csv"))
        cols, _, states, basis = recorded_run(cfg, monkeypatch)
        assert basis is timestepper._run_basis(cfg.domain(), 2, (0,))
        assert_same_fields(basis, get_basis("spheroid", 2))
        assert not any(np.any(c) for c in states) and not np.any(cols["E_K"])


class TestCoefficientFiles:
    def config(self, tmp_path, coeffs):
        path = tmp_path / "init.txt"
        np.savetxt(path, coeffs)
        return ScenarioConfig(degree=3, bc_form="stress_free", nu_inverse=1.0, eps_p=0.25,
                              init_type="coefficients", init_path=str(path), dt=0.01,
                              t_end=0.2, record_every=0.05, beta=Fraction(9, 16),
                              output_path=str(tmp_path / "run.csv"))

    def test_a_file_with_every_class_set_steps_the_full_basis(self, tmp_path, monkeypatch):
        full = get_basis("spheroid", 3)
        coeffs = 0.01 * np.random.default_rng(5).standard_normal(full.dim)
        *_, basis = recorded_run(self.config(tmp_path, coeffs), monkeypatch)
        assert basis is timestepper._run_basis(full.domain, 3, None)
        assert_same_fields(basis, full)

    def test_a_centrosymmetric_file_is_read_in_full_and_sliced(self, tmp_path, monkeypatch):
        full = get_basis("spheroid", 3)
        coeffs = 0.01 * np.random.default_rng(5).standard_normal(full.dim)
        coeffs[~np.isin(full.classes, (0, 3, 5, 6))] = 0.0
        cfg = self.config(tmp_path, coeffs)
        _, _, states, basis = recorded_run(cfg, monkeypatch)
        assert basis.members.keys() == {0, 3, 5, 6} and len(coeffs) == full.dim
        assert np.array_equal(states[0], np.loadtxt(cfg.init_path)[np.isin(full.classes,
                                                                           (0, 3, 5, 6))])
        # a file of another dimension is refused with the full basis's dim
        np.savetxt(cfg.init_path, coeffs[:basis.dim])
        with pytest.raises(ValueError, match=f"has {basis.dim} entries, basis dimension is "
                                             f"{full.dim}"):
            run(cfg)


class TestRestrict:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_slices_the_parent_and_shares_its_rule(self, kind, method):
        full = build_basis(DOMAINS[kind], 3, method)
        sub = full.restrict((6, 0, 5, 3, 3))
        index = np.flatnonzero(np.isin(full.classes, (0, 3, 5, 6)))
        assert sub is full.restrict([0, 3, 5, 6]) and sub.dim == len(index) == 18
        assert sub.points is full.points and sub.weights is full.weights
        assert sub.vander is full.vander
        for name in ("coeff_array", "classes", "values"):
            assert np.array_equal(getattr(sub, name), getattr(full, name)[index])
        assert np.array_equal(sub.gram, full.gram[np.ix_(index, index)])
        assert sub.members.keys() == {0, 3, 5, 6}
        if method == "exact":
            assert all(np.array_equal(s, f[index]) for s, f in zip(sub.rows, full.rows))
            assert sub.row_failures == {"divergence free": None, "tangent to the boundary": None}
        else:
            assert sub.rows is None and sub.row_failures is None
        assert not any(a.flags.writeable for a in (sub.coeff_array, sub.classes, sub.values,
                                                   sub.gram, *(sub.rows or ())))
        # another set of classes replaces the kept restriction
        assert full.restrict((0, 3)).dim == 8 and full.restrict((0, 3, 5, 6)) is not sub

    def test_its_operators_are_class_blocks_of_the_parents(self):
        full = build_basis(DOMAINS["spheroid"], 4)
        sub = full.restrict((0, 3, 5, 6))
        index = np.flatnonzero(np.isin(full.classes, (0, 3, 5, 6)))
        u_p = poincare_field(Fraction(9, 16), Fraction(1, 4))
        bc = BoundaryCondition("poincare_stress", u_p)
        ops_full, ops_sub = (assemble(b, bc, nu=10.0, eps_p=0.25) for b in (full, sub))
        block = np.ix_(index, index)
        for name in ("M", "A_sym", "A_grad", "C_x", "Hn", "Hs"):
            np.testing.assert_allclose(getattr(ops_sub, name), getattr(ops_full, name)[block],
                                       rtol=0, atol=1e-13, err_msg=name)
        np.testing.assert_allclose(ops_sub.F_bc, ops_full.F_bc[index], rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops_sub.mom, ops_full.mom[:, index], rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops_sub.T, ops_full.T[np.ix_(index, index, index)],
                                   rtol=0, atol=1e-13)
