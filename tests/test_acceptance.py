"""Acceptance battery: nine end-to-end checks, one verdict line apiece.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test prints ``ACCEPTANCE <k> <label>: PASS|FAIL`` before asserting, so
the line shows up even when the check fails.
"""

import math
from time import perf_counter

import numpy as np

from rigidform import (
    Configuration,
    ControllerSpec,
    IntegratorConfig,
    RankDeficiencyError,
    TerminationCriteria,
    algebraic_admissibility,
    build_graph,
    builtin_names,
    builtin_scenario,
    congruence_check,
    control_energy,
    decay_rate,
    detect_convergence,
    directed_rigidity_matrix,
    distance_map,
    dynamic_admissibility,
    eta_matrix,
    evaluate_field,
    integrate,
    is_generically_rigid,
    is_regular_point,
    linearized_edge_matrix,
    matrix_rank,
    min_norm_lift,
    node_potential,
    orient,
    persistence_check,
    projector,
    reduction_count,
    restricted_sym_form,
    rigid_motion_basis,
    rigidity_matrix,
    tangent_basis,
)
from rigidform.cli import main as cli_main

from conftest import P_STAR, Q_STAR, W5_ARROWS, W5_EDGES, random_instance, random_orientation


def _verdict(num: int, label: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"ACCEPTANCE {num} {label}: {tag}{tail}")


def test_criterion_1_certificate_discrimination():
    t0 = perf_counter()
    graph = build_graph(5, W5_EDGES)
    arrows = orient(graph, W5_ARROWS)
    p_good = Configuration(2, P_STAR)
    p_bad = Configuration(2, Q_STAR)
    good = restricted_sym_form(
        ControllerSpec(graph, "directed", distance_map(graph, p_good), arrows), p_good
    )
    bad = restricted_sym_form(
        ControllerSpec(graph, "directed", distance_map(graph, p_bad), arrows), p_bad
    )
    elapsed = perf_counter() - t0
    ok = good.verdict == "pass" and bad.verdict == "fail" and elapsed < 1.0
    _verdict(1, "directed wheel certificate separates the two placements", ok,
             f"p*: {good.verdict}, q*: {bad.verdict}, {elapsed:.3f}s")
    assert good.verdict == "pass"
    assert bad.verdict == "fail"
    assert elapsed < 1.0


def test_criterion_2_nonpersistent_orientation_still_converges():
    t0 = perf_counter()
    scn = builtin_scenario("fig4-nonpersistent")
    report = persistence_check(scn.orientation, 2)
    witness_flexible = (
        report.witness is not None
        and not is_generically_rigid(build_graph(scn.graph.n, report.witness), 2)
    )
    cert = restricted_sym_form(scn.controller_spec(), scn.target)
    traj = integrate(scn.controller_spec(), scn.initial_configuration(),
                     scn.integrator, scn.termination)
    outcome = detect_convergence(traj, scn.target, scn.termination)
    elapsed = perf_counter() - t0
    ok = (report.verdict == "not persistent" and report.reductions_checked == 9
          and witness_flexible and cert.verdict == "pass"
          and traj.termination == "converged" and outcome.congruent
          and elapsed < 10.0)
    _verdict(2, "non-persistent orientation converges under a passing certificate", ok,
             f"{report.reductions_checked} reductions, certificate {cert.verdict}, "
             f"run {traj.termination}, {elapsed:.2f}s")
    assert report.verdict == "not persistent"
    assert report.reductions_checked == 9
    assert witness_flexible
    assert cert.verdict == "pass"
    assert traj.termination == "converged"
    assert outcome.congruent
    assert elapsed < 10.0


def test_criterion_3_undirected_battery_converges():
    t0 = perf_counter()
    scn = builtin_scenario("w5-undirected")
    failures = []
    for kind in ("gradient", "model"):
        spec = scn.controller_spec(kind)
        for seed in range(20):
            traj = integrate(spec, scn.initial_configuration(seed),
                             scn.integrator, scn.termination)
            out = detect_convergence(traj, scn.target, scn.termination)
            rate = decay_rate(traj)
            if not (traj.termination == "converged" and out.edge_converged
                    and out.node_converged and out.congruent and rate > 0.0):
                failures.append((kind, seed, traj.termination))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _verdict(3, "gradient and model runs converge from 40 perturbed starts", ok,
             f"failures: {len(failures)}, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_4_model_spends_less_energy():
    scn = builtin_scenario("w5-undirected")
    integ = IntegratorConfig(method="rk45", t_max=25.0)
    # an unreachable edge tolerance keeps both controllers integrating the
    # full horizon, so the two energies cover identical time spans
    crit = TerminationCriteria(tol_edge=1e-300)
    energies = []
    for seed in range(10):
        p0 = scn.initial_configuration(seed)
        e_grad = control_energy(
            integrate(scn.controller_spec("gradient"), p0, integ, crit))
        e_model = control_energy(
            integrate(scn.controller_spec("model"), p0, integ, crit))
        energies.append((e_model, e_grad))
    ok = all(m < g for m, g in energies)
    worst = max(m / g for m, g in energies)
    _verdict(4, "model controller spends strictly less energy than gradient", ok,
             f"10 seeds, worst energy ratio {worst:.3f}")
    assert ok, energies


def test_criterion_5_directed_wrong_target_orbits():
    scn = builtin_scenario("w5-directed-bad")
    spec = scn.controller_spec()
    outcomes = []
    for seed in range(10):
        traj = integrate(spec, scn.initial_configuration(seed),
                         scn.integrator, scn.termination)
        outcomes.append(traj.termination)
    suspects = sum(t == "limit-cycle-suspect" for t in outcomes)
    ok = suspects >= 6
    print(f"  per-seed terminations: {outcomes}")
    _verdict(5, "directed wheel at the failing placement orbits instead of settling",
             ok, f"{suspects}/10 limit-cycle-suspect")
    assert ok, outcomes


def test_criterion_6_flexible_cycle_stalls_off_shape():
    graph = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    square = Configuration(2, [[0.0, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    # a 3-4-5 shear: every side has squared length exactly 25, like the square
    rhombus = Configuration(2, [[0.0, 0.0], [5.0, 0.0], [8.0, 4.0], [3.0, 4.0]])
    m_star = distance_map(graph, square)
    assert np.array_equal(distance_map(graph, rhombus).values, m_star.values)
    congruent, _ = congruence_check(rhombus, square)
    grad = evaluate_field(ControllerSpec(graph, "gradient", m_star), rhombus)
    model = evaluate_field(ControllerSpec(graph, "model", m_star), rhombus)
    R = rigidity_matrix(graph, rhombus)
    worst = max(np.abs(grad).max(), np.abs(model).max(),
                np.abs(2.0 * R @ grad).max(), np.abs(2.0 * R @ model).max())
    ok = (not congruent) and worst <= 1e-12
    _verdict(6, "fields vanish on the flexed square that matches all lengths", ok,
             f"max field entry {worst:.1e}")
    assert not congruent
    assert worst <= 1e-12


def _fd_jacobian(graph, p, h=1e-5):
    x = p.vector
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        f_plus = distance_map(graph, Configuration.from_vector(p.d, x + step)).values
        f_minus = distance_map(graph, Configuration.from_vector(p.d, x - step)).values
        cols.append((f_plus - f_minus) / (2.0 * h))
    return np.column_stack(cols)


def _spectra_match(w1, w2, tol):
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    if w1.shape != w2.shape:
        return False
    gaps = np.abs(w2[None, :] - w1[:, None])
    return float(max(gaps.min(axis=0).max(), gaps.min(axis=1).max())) <= tol


def _random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _instance_invariants(graph, p, rng, tag):
    """All per-framework invariants on one random (graph, configuration)."""
    bad = []

    def chk(cond, label):
        if not cond:
            bad.append(f"#{tag} n={graph.n} d={p.d} |E|={graph.num_edges}: {label}")

    d, n = p.d, graph.n
    R = rigidity_matrix(graph, p)
    m = distance_map(graph, p)
    scale_R = max(1.0, float(np.abs(R).max()))

    # P1: central differences of the distance map against 2R
    chk(np.abs(_fd_jacobian(graph, p) - 2.0 * R).max() <= 1e-6 * scale_R,
        "P1 differential")

    # P2: R(p) p = F(p)
    chk(np.abs(R @ p.vector - m.values).max()
        <= 1e-12 * max(1.0, float(np.abs(m.values).max())), "P2 linearity")

    # P3: projector symmetric, idempotent, fixes Im R
    Pi = projector(graph, p)
    chk(np.abs(Pi - Pi.T).max() <= 1e-10, "P3 symmetry")
    chk(np.abs(Pi @ Pi - Pi).max() <= 1e-10, "P3 idempotence")
    chk(np.abs(Pi @ R - R).max() <= 1e-10 * scale_R, "P3 fixes image")

    regular = is_regular_point(graph, p)

    # P4: at regular points of rigid graphs the kernel is the rigid motions
    if regular and n >= d + 1 and is_generically_rigid(graph, d):
        B = rigid_motion_basis(p)
        chk(d * n - matrix_rank(R) == d * (d + 1) // 2, "P4 kernel dimension")
        chk(np.abs(R @ B).max() <= 1e-9 * scale_R, "P4 motions annihilated")
        chk(matrix_rank(B) == d * (d + 1) // 2, "P4 motions span")

    # P5: the minimum-norm lift realizes the projected edge velocity
    v = R @ rng.standard_normal(d * n)
    u = min_norm_lift(graph, p, v)
    chk(np.abs(2.0 * R @ u - Pi @ v).max()
        <= 1e-10 * (1.0 + float(np.linalg.norm(v))), "P5 realization")
    null_rows = np.linalg.svd(R)[2][matrix_rank(R):]
    if null_rows.size:
        chk(np.abs(null_rows @ u).max()
            <= 1e-10 * (1.0 + float(np.linalg.norm(u))), "P5 minimum norm")

    # P6: tail and reversed-tail matrices tile R exactly
    arrows = random_orientation(rng, graph)
    chk(np.array_equal(directed_rigidity_matrix(arrows, p)
                       + directed_rigidity_matrix(arrows.reversed(), p), R),
        "P6 zero pattern")

    # a second realizable target for the off-equilibrium checks
    p2 = Configuration(d, rng.uniform(-1.0, 1.0, size=(n, d)))
    m2 = distance_map(graph, p2)

    for kind in ("gradient", "model", "directed"):
        ori = arrows if kind == "directed" else None
        spec = ControllerSpec(graph, kind, m2, ori)
        try:
            u0 = evaluate_field(ControllerSpec(graph, kind, m, ori), p)
            u = evaluate_field(spec, p)
            v = eta_matrix(spec, p) @ (m2.values - m.values)
        except RankDeficiencyError:
            continue  # model controller off the regular set: out of contract
        chk(not u0.any() and not (2.0 * R @ u0).any(), f"C4 {kind} exact equilibrium")
        chk(np.linalg.norm(v - 2.0 * R @ u)
            <= 1e-10 * (1.0 + float(np.linalg.norm(v))), f"C1 {kind} tangency")

    # C3 (algebraic half): the model edge flow is the projected error
    if regular:
        u = evaluate_field(ControllerSpec(graph, "model", m2), p)
        want = Pi @ (m2.values - m.values)
        chk(np.abs(2.0 * R @ u - want).max() <= 1e-10 * (1.0 + float(np.abs(want).max())),
            "C3 projected edge flow")

    # C5: a directed agent reacts only to its own out-neighbourhood
    heads = {arrows.directed_labels[k][1] - 1 for k in arrows.out_edges(0)}
    movable = [w for w in range(1, n) if w not in heads]
    if movable:
        spec_dir = ControllerSpec(graph, "directed", m2, arrows)
        base = evaluate_field(spec_dir, p)
        shifted = np.array(p.points, copy=True)
        for w in movable:
            shifted[w] += rng.uniform(0.5, 1.5, size=d)
        moved = evaluate_field(spec_dir, Configuration(d, shifted))
        chk(np.array_equal(base[:d], moved[:d]), "C5 locality")

    # Z1/Z2/Z3 need the restriction machinery; certificates are indeterminate
    # off the regular set by contract, and these instances skip themselves
    for kind, ori in (("gradient", None), ("directed", arrows)):
        spec = ControllerSpec(graph, kind, m, ori)
        cert = restricted_sym_form(spec, p)
        if cert.verdict == "pass":
            lin = linearized_edge_matrix(spec, p)
            chk(min(z.real for z in lin.spectrum) > 0.0, f"Z1 {kind} Hurwitz")
        if cert.verdict != "indeterminate":
            eta = eta_matrix(spec, p)
            basis = tangent_basis(graph, p).matrix
            A = basis.T @ eta @ basis
            Q = _random_orthogonal(rng, A.shape[0])
            w1 = np.linalg.eigvals(A)
            w2 = np.linalg.eigvals(Q.T @ A @ Q)
            scale = max(1.0, float(np.abs(w1).max()))
            chk(_spectra_match(w1, w2, 1e-8 * scale), f"Z2 {kind} basis invariance")
            scaled = restricted_sym_form(spec, Configuration(d, 3.7 * p.points))
            chk(scaled.verdict == cert.verdict, f"Z3 {kind} scale covariance")

    # Z4: hyperbolicity implies invertibility, sample for sample
    for kind, ori in (("gradient", None), ("model", None), ("directed", arrows)):
        dyn = dynamic_admissibility(graph, kind, ori, d, seed=tag)
        if dyn.verdict == "pass":
            alg = algebraic_admissibility(graph, kind, ori, d, seed=tag)
            chk(alg.verdict == "pass", f"Z4 {kind} hierarchy")

    # Z5: the reduction count is the product of out-degree choices
    for dd in (2, 3):
        expected = math.prod(
            math.comb(len(arrows.out_edges(v)), dd)
            for v in range(n) if len(arrows.out_edges(v)) > dd
        )
        chk(reduction_count(arrows, dd) == expected, f"Z5 d={dd} count")

    return bad


def _trajectory_invariants():
    """The invariants that live on simulated runs, on fixed instances."""
    bad = []

    def chk(cond, label):
        if not cond:
            bad.append(label)

    graph = build_graph(5, W5_EDGES)
    target = Configuration(2, P_STAR)
    m_star = distance_map(graph, target)
    spec = ControllerSpec(graph, "gradient", m_star)
    rng = np.random.default_rng(12)
    p0 = Configuration(2, P_STAR + 0.1 * rng.standard_normal(P_STAR.shape))
    integ = IntegratorConfig(method="rk4", dt=5e-4, t_max=2.0)
    # unreachable edge tolerance and a window wider than the run: the full
    # horizon gets integrated, so the discrete-derivative checks see smooth
    # segments at a uniform small step
    crit = TerminationCriteria(tol_edge=1e-300, window=10**6)
    traj = integrate(spec, p0, integ, crit)
    dt = float(traj.times[1] - traj.times[0])

    # S1: logged measurements are the distance map of logged positions
    chk(all(
        np.array_equal(traj.measurements[k],
                       distance_map(graph, Configuration(2, traj.positions[k])).values)
        for k in range(0, len(traj.times), 100)
    ), "S1 on-manifold sampling")

    # S3: a rerun reproduces the trajectory bit for bit
    rerun = integrate(spec, p0, integ, crit)
    chk(np.array_equal(traj.positions, rerun.positions)
        and np.array_equal(traj.times, rerun.times), "S3 determinism")

    # C2: the node potential descends at exactly the squared speed
    V = np.array([
        node_potential(graph, Configuration(2, traj.positions[k]), m_star)
        for k in range(len(traj.times))
    ])
    dV = (V[2:] - V[:-2]) / (2.0 * dt)
    want = -traj.speed[1:-1] ** 2
    mask = np.abs(want) > 1e-8
    rel = np.abs(dV[mask] - want[mask]) / np.abs(want[mask])
    chk(float(rel.max()) < 0.05 and float(np.median(rel)) < 0.01,
        "C2 potential descent")

    # C3 (chain-rule half) and S2: discrete derivatives of the squared edge
    # error against the eta quadratic form
    errs = m_star.values[None, :] - traj.measurements
    half_sq = 0.5 * np.einsum("ke,ke->k", errs, errs)
    checked = 0
    worst_c3 = 0.0
    worst_s2 = 0.0
    for k in range(1, len(traj.times) - 1, 20):
        pk = Configuration(2, traj.positions[k])
        e_k = errs[k]
        q = float(e_k @ eta_matrix(spec, pk) @ e_k)
        if q < 1e-12:
            continue
        fd_central = (half_sq[k + 1] - half_sq[k - 1]) / (2.0 * dt)
        worst_c3 = max(worst_c3, abs(fd_central + q) / q)
        fd_forward = 2.0 * (half_sq[k + 1] - half_sq[k]) / dt
        worst_s2 = max(worst_s2, abs(fd_forward + 2.0 * q) / (2.0 * q))
        checked += 1
    chk(checked >= 50, "S2/C3 sample coverage")
    chk(worst_c3 < 1e-4, "C3 chain rule (1e-4 relative)")
    chk(worst_s2 < 0.05, "S2 chain rule (5% relative)")

    # S4: the flexed square with matching lengths is a hard equilibrium
    cyc = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    square = Configuration(2, [[0.0, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    rhombus = Configuration(2, [[0.0, 0.0], [5.0, 0.0], [8.0, 4.0], [3.0, 4.0]])
    m_sq = distance_map(cyc, square)
    stall = evaluate_field(ControllerSpec(cyc, "gradient", m_sq), rhombus)
    chk(not stall.any(), "S4 exact stall")
    run = integrate(ControllerSpec(cyc, "gradient", m_sq), rhombus,
                    IntegratorConfig(t_max=1.0))
    chk(run.termination == "converged"
        and np.array_equal(run.positions[-1], rhombus.points)
        and not congruence_check(run.final_configuration, square)[0],
        "S4 trajectory stays put")

    # Z1 on the built-ins: a passing certificate forces a Hurwitz edge flow
    for name in builtin_names():
        scn = builtin_scenario(name)
        spec_b = scn.controller_spec()
        cert = restricted_sym_form(spec_b, scn.target)
        if cert.verdict == "pass":
            lin = linearized_edge_matrix(spec_b, scn.target)
            chk(min(z.real for z in lin.spectrum) > 0.0, f"Z1 {name} Hurwitz")

    return bad


def test_criterion_7_invariant_battery():
    t0 = perf_counter()
    rng = np.random.default_rng(271828)
    problems = []
    for tag in range(52):
        graph, p = random_instance(rng)
        problems.extend(_instance_invariants(graph, p, rng, tag))
    problems.extend(_trajectory_invariants())
    elapsed = perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _verdict(7, "invariant suite over 52 random frameworks plus fixed runs", ok,
             f"{len(problems)} violations, {elapsed:.1f}s")
    assert not problems, problems[:10]
    assert elapsed < 60.0


def test_criterion_8_decaying_builtins_are_admissible():
    checked = []
    for name in builtin_names():
        scn = builtin_scenario(name)
        traj = integrate(scn.controller_spec(), scn.initial_configuration(),
                         scn.integrator, scn.termination)
        if traj.termination != "converged":
            continue
        try:
            rate = decay_rate(traj)
        except ValueError:
            continue  # flat error history: nothing to fit
        if rate <= 0.0:
            continue
        rep = dynamic_admissibility(
            scn.graph, scn.controller,
            scn.orientation if scn.controller == "directed" else None, scn.d)
        checked.append((name, rep.verdict))
    ok = bool(checked) and all(v == "pass" for _, v in checked)
    _verdict(8, "every decaying built-in passes dynamic admissibility", ok,
             ", ".join(f"{n}: {v}" for n, v in checked))
    assert checked
    for name, verdict in checked:
        assert verdict == "pass", name


def test_criterion_9_builtin_commands_reproduce_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RIGIDFORM_SEED", raising=False)
    mismatches = []
    listings = []
    for attempt in ("first", "second"):
        cli_main(["examples"])
        listings.append(capsys.readouterr().out)
    if listings[0] != listings[1]:
        mismatches.append("examples")
    for name in builtin_names():
        scn = builtin_scenario(name)
        per_run = []
        for attempt in ("first", "second"):
            root = tmp_path / attempt / name
            root.mkdir(parents=True)
            argv_sets = [
                ["analyze", name, "--seed", "0", "--json", str(root / "analyze.json")],
                ["simulate", name, "-o", str(root / "run.csv"),
                 "--json", str(root / "run.json")],
            ]
            if scn.controller == "directed":
                argv_sets.append(["admissibility", "--builtin", name, "--seed", "0",
                                  "--json", str(root / "adm.json")])
                argv_sets.append(["persistence", "--builtin", name,
                                  "--json", str(root / "per.json")])
            for argv in argv_sets:
                cli_main(argv)
            capsys.readouterr()
            per_run.append({f.name: f.read_bytes() for f in root.iterdir()})
        if per_run[0] != per_run[1]:
            mismatches.append(name)
    ok = not mismatches
    _verdict(9, "repeated built-in commands emit byte-identical CSV/JSON", ok,
             f"{len(builtin_names())} scenarios")
    assert not mismatches, mismatches
