#!/usr/bin/env python3
"""Reproduce the five desk-scale studies on the wheel formation and friends.

Each study writes its artifacts (CSV / JSON / SVG) under --out and prints a
one-line summary.  With no study names, all five run in order:

    python3 scripts/run_studies.py --out out
    python3 scripts/run_studies.py certificate energy
"""

import argparse
import json
from pathlib import Path

import numpy as np

from rigidform import (
    IntegratorConfig,
    TerminationCriteria,
    builtin_scenario,
    control_energy,
    decay_rate,
    detect_convergence,
    integrate,
    persistence_check,
    restricted_sym_form,
)
from rigidform.cli import write_trajectory_csv
from rigidform.svg import line_chart, plane_paths


def study_certificate(out: Path) -> str:
    """Stability certificate at the two wheel placements."""
    reports = {}
    for tag, name in (("p_star", "w5-directed-good"), ("q_star", "w5-directed-bad")):
        scn = builtin_scenario(name)
        cert = restricted_sym_form(scn.controller_spec(), scn.target)
        reports[tag] = {
            "verdict": cert.verdict,
            "min_symmetric_eigenvalue": cert.min_sym_eigenvalue,
            "flow_spectrum": [[z.real, z.imag] for z in cert.spectrum],
        }
    path = out / "certificate.json"
    path.write_text(json.dumps(reports, indent=2) + "\n")
    return (f"certificate: p* {reports['p_star']['verdict']}, "
            f"q* {reports['q_star']['verdict']} -> {path}")


def study_undirected(out: Path) -> str:
    """Gradient and model controllers settling the undirected wheel."""
    scn = builtin_scenario("w5-undirected")
    rates = {}
    for kind in ("gradient", "model"):
        traj = integrate(scn.controller_spec(kind), scn.initial_configuration(),
                         scn.integrator, scn.termination)
        rates[kind] = decay_rate(traj)
        write_trajectory_csv(out / f"undirected-{kind}.csv", scn, traj)
        line_chart(out / f"undirected-{kind}-error.svg", traj.times,
                   [("edge error", traj.edge_error)],
                   title=f"{kind} controller on the wheel", xlabel="t",
                   ylabel="|m - m*|", log_y=True)
        if kind == "gradient":
            plane_paths(out / "undirected-paths.svg", traj.positions,
                        scn.target.points, title="gradient controller, node paths")
    return (f"undirected: decay rates gradient {rates['gradient']:.2f}, "
            f"model {rates['model']:.2f} -> {out / 'undirected-gradient.csv'}")


def study_energy(out: Path) -> str:
    """Control-energy comparison over a shared 25 s horizon, 10 seeds."""
    scn = builtin_scenario("w5-undirected")
    integ = IntegratorConfig(t_max=25.0)
    crit = TerminationCriteria(tol_edge=1e-300)  # integrate the full horizon
    rows = []
    for seed in range(10):
        p0 = scn.initial_configuration(seed)
        e_grad = control_energy(
            integrate(scn.controller_spec("gradient"), p0, integ, crit))
        e_model = control_energy(
            integrate(scn.controller_spec("model"), p0, integ, crit))
        rows.append((seed, e_grad, e_model))
    csv_path = out / "energy.csv"
    with open(csv_path, "w") as fh:
        fh.write("seed,gradient,model\n")
        for seed, e_grad, e_model in rows:
            fh.write(f"{seed},{e_grad:.17g},{e_model:.17g}\n")
    seeds = np.array([r[0] for r in rows], dtype=float)
    line_chart(out / "energy.svg", seeds,
               [("gradient", np.array([r[1] for r in rows])),
                ("model", np.array([r[2] for r in rows]))],
               title="control energy, 25 s horizon", xlabel="seed",
               ylabel="integral of |u|^2")
    ratio = float(np.mean([e_model / e_grad for _, e_grad, e_model in rows]))
    return f"energy: mean model/gradient ratio {ratio:.3f} over 10 seeds -> {csv_path}"


def study_nonpersistent(out: Path) -> str:
    """A non-persistent orientation that converges anyway."""
    scn = builtin_scenario("fig4-nonpersistent")
    per = persistence_check(scn.orientation, 2)
    cert = restricted_sym_form(scn.controller_spec(), scn.target)
    traj = integrate(scn.controller_spec(), scn.initial_configuration(),
                     scn.integrator, scn.termination)
    outcome = detect_convergence(traj, scn.target, scn.termination)
    doc = {
        "persistence": {
            "verdict": per.verdict,
            "reductions_checked": per.reductions_checked,
            "witness": [list(e) for e in per.witness] if per.witness else None,
        },
        "certificate": cert.verdict,
        "termination": traj.termination,
        "congruent": outcome.congruent,
    }
    (out / "nonpersistent.json").write_text(json.dumps(doc, indent=2) + "\n")
    plane_paths(out / "nonpersistent-paths.svg", traj.positions, scn.target.points,
                title="non-persistent orientation, converging run")
    line_chart(out / "nonpersistent-error.svg", traj.times,
               [("edge error", traj.edge_error)], xlabel="t", ylabel="|m - m*|",
               log_y=True)
    return (f"nonpersistent: {per.verdict} ({per.reductions_checked} reductions), "
            f"run {traj.termination} -> {out / 'nonpersistent.json'}")


def study_limitcycle(out: Path) -> str:
    """One-way sensing chasing an uncertifiable placement: a closed orbit."""
    scn = builtin_scenario("w5-directed-bad")
    detect = integrate(scn.controller_spec(), scn.initial_configuration(),
                       scn.integrator, scn.termination)
    # rerun with the window detector disabled to draw the plateau out far
    # past the point of detection
    wide = TerminationCriteria(tol_edge=scn.termination.tol_edge, window=10**6)
    traj = integrate(scn.controller_spec(), scn.initial_configuration(),
                     IntegratorConfig(t_max=40.0), wide)
    line_chart(out / "limitcycle-error.svg", traj.times,
               [("edge error", traj.edge_error)],
               title="edge error levels off instead of decaying",
               xlabel="t", ylabel="|m - m*|")
    plane_paths(out / "limitcycle-paths.svg", traj.positions, scn.target.points,
                title="directed wheel at the failing placement")
    doc = {
        "termination": detect.termination,
        "detected_at": detect.termination_time,
        "edge_error_at_horizon": float(traj.edge_error[-1]),
    }
    (out / "limitcycle.json").write_text(json.dumps(doc, indent=2) + "\n")
    return (f"limitcycle: {detect.termination} at t={detect.termination_time:.1f} "
            f"-> {out / 'limitcycle.json'}")


STUDIES = {
    "certificate": study_certificate,
    "undirected": study_undirected,
    "energy": study_energy,
    "nonpersistent": study_nonpersistent,
    "limitcycle": study_limitcycle,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("studies", nargs="*", metavar="study",
                        help=f"subset to run: {', '.join(STUDIES)} (default: all)")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    unknown = [s for s in args.studies if s not in STUDIES]
    if unknown:
        parser.error(f"unknown studies: {', '.join(unknown)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in args.studies or STUDIES:
        print(STUDIES[name](out))


if __name__ == "__main__":
    main()
