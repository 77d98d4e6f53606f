"""Command-line interface.

Subcommands:

* ``examples``       list the built-in scenarios;
* ``analyze``        rigidity + certificate + admissibility report for a
                     scenario (persistence on request, it can be expensive);
* ``simulate``       integrate the closed loop, write CSV / SVG / JSON;
* ``admissibility``  randomized generic-spectrum tests for a graph;
* ``persistence``    out-degree-reduction test for an orientation.

Exit codes for verdict-producing commands: 0 pass, 1 fail, 2 indeterminate,
3 usage or input error.  The environment variable RIGIDFORM_SEED supplies
the default seed; an explicit --seed always wins.  ``simulate`` keeps a
scenario's explicit start unless --seed is given, but rejects an invalid
RIGIDFORM_SEED all the same.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from rigidform import __version__
from rigidform.certificates import (
    DEFAULT_SAMPLES,
    admissibility,
    persistence_check,
    restricted_sym_form,
)
from rigidform.controllers import CONTROLLER_KINDS
from rigidform.rigidity import RankDeficiencyError, generic_rank, max_generic_rank
from rigidform.scenarios import (
    Scenario,
    ScenarioError,
    builtin_names,
    builtin_scenario,
    load_scenario,
)
from rigidform.simulate import Trajectory, control_energy, decay_rate, detect_convergence, integrate
from rigidform.svg import line_chart, plane_paths

ENV_SEED = "RIGIDFORM_SEED"

EXIT_PASS, EXIT_FAIL, EXIT_INDETERMINATE, EXIT_ERROR = 0, 1, 2, 3

_VERDICT_EXIT = {"pass": EXIT_PASS, "persistent": EXIT_PASS, "fail": EXIT_FAIL,
                 "not persistent": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_ERROR; argparse's own 2 is the indeterminate code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_scenario(ref: str) -> Scenario:
    """A positional scenario argument: built-in name or JSON path."""
    if ref in builtin_names():
        return builtin_scenario(ref)
    if Path(ref).exists():
        return load_scenario(ref)
    raise ScenarioError(
        f"{ref!r} is neither a built-in scenario ({', '.join(builtin_names())}) nor a file"
    )


def _master_seed(arg_seed: int | None, fallback: int = 0) -> int:
    """--seed, else RIGIDFORM_SEED, else ``fallback``; a given seed must be a
    non-negative integer, as NumPy requires."""
    if arg_seed is not None:
        source, raw = "--seed", str(arg_seed)
    elif (raw := os.environ.get(ENV_SEED)) is not None:
        source = ENV_SEED
    else:
        return fallback
    try:
        seed = int(raw)
    except ValueError:
        raise ScenarioError(f"{source} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ScenarioError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}j"


def _complex_pair(z):
    """JSON form of a spectrum entry: complex z as [re, im]."""
    if isinstance(z, complex):
        return [z.real, z.imag]
    raise TypeError(f"{type(z).__name__} is not JSON serializable")


def _write_json(path: str, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, default=_complex_pair) + "\n")


def cmd_examples(args) -> int:
    del args
    for name in builtin_names():
        scn = builtin_scenario(name)
        print(f"{name:20s} {scn.description}")
    return EXIT_PASS


def cmd_analyze(args) -> int:
    scn = _resolve_scenario(args.scenario)
    seed = _master_seed(args.seed)
    graph, d = scn.graph, scn.d
    rank = generic_rank(graph, d, seed)
    max_rank = max_generic_rank(graph.n, d)
    rigid = rank == max_rank
    # the certificate already ranks R(p*), decides regularity and holds the
    # spectrum of the restricted operator
    cert = restricted_sym_form(scn.controller_spec(), scn.target, seed)
    target_rank, regular = cert.rank_r, cert.verdict != "indeterminate"
    dyn, alg = admissibility(graph, scn.controller, scn.orientation, d, args.samples, seed)
    persist = None
    if args.persistence:
        if scn.orientation is None:
            raise ScenarioError("persistence requires an oriented scenario")
        persist = persistence_check(scn.orientation, d, seed)

    print(f"scenario: {scn.name} ({scn.controller} controller, d={d}, n={graph.n}, edges={graph.num_edges})")
    print(f"generic rank: {rank} / {max_rank}"
          f" -> {'generically rigid' if rigid else 'NOT generically rigid'}")
    print(f"target: rank {target_rank} -> {'regular point' if regular else 'NOT a regular point'}")
    line = f"certificate ({cert.kind}): {cert.verdict}"
    if cert.min_sym_eigenvalue is not None:
        line += f"  [min sym eig {cert.min_sym_eigenvalue:.6g}, tol {cert.tol:g} rel]"
    if cert.detail:
        line += f"  ({cert.detail})"
    print(line)
    if cert.spectrum:
        print("linearized edge spectrum: " + ", ".join(_fmt_complex(z) for z in cert.spectrum))
    for rep in (dyn, alg):
        margins = ", ".join(f"{s.margin:.3g}" for s in rep.per_sample)
        print(f"{rep.test} admissibility: {rep.verdict}  [{rep.samples} samples, seed {rep.seed}, margins {margins}]")
    if persist is not None:
        print(f"persistence: {persist.verdict}  [{persist.reductions_checked} reductions]")
        if persist.witness is not None:
            arrows = ", ".join(f"{t}->{h}" for t, h in persist.witness)
            print(f"  witness reduction: {arrows}")

    if args.json:
        _write_json(args.json, {
            "scenario": scn.name,
            "controller": scn.controller,
            "dimension": d,
            "vertices": graph.n,
            "edges": [list(e) for e in graph.edge_labels],
            "generic_rank": rank,
            "max_generic_rank": max_rank,
            "generically_rigid": rigid,
            "target_rank": target_rank,
            "target_regular": regular,
            "certificate": asdict(cert),
            "linearized_spectrum": cert.spectrum,
            "dynamic_admissibility": asdict(dyn),
            "algebraic_admissibility": asdict(alg),
            "persistence": asdict(persist) if persist is not None else None,
            "seed": seed,
        })
    return _VERDICT_EXIT[cert.verdict]


def _csv_header(scn: Scenario) -> str:
    axes = "xyz"[: scn.d]
    cols = ["t"]
    cols += [f"p{i + 1}_{a}" for i in range(scn.graph.n) for a in axes]
    cols += [f"m_{i}_{j}" for i, j in scn.graph.edge_labels]
    cols += ["edge_err", "speed", "energy"]
    return ",".join(cols)


def write_trajectory_csv(path: str | Path, scn: Scenario, traj: Trajectory):
    """Trajectory samples as CSV: time, stacked positions, measurements,
    then edge error / speed / running energy.  %.17g keeps it lossless."""
    k = len(traj.times)
    rows = np.column_stack((traj.times, traj.positions.reshape(k, -1), traj.measurements,
                            traj.edge_error, traj.speed, traj.energy)).tolist()
    lines = [_csv_header(scn)]
    lines += [",".join([f"{v:.17g}" for v in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    scn = _resolve_scenario(args.scenario)
    kind = args.controller or scn.controller
    spec = scn.controller_spec(kind)
    if args.t_max is not None:
        scn = replace(scn, integrator=replace(scn.integrator, t_max=args.t_max))

    if args.seed is None and scn.initial is not None:
        # RIGIDFORM_SEED does not move an explicit start, but it must be valid
        _master_seed(None)
        seed, p0 = 0, scn.initial
    else:
        # a loaded scenario without explicit coordinates always has a seed
        seed = _master_seed(args.seed, scn.initial_seed)
        p0 = scn.initial_configuration(seed)

    try:
        traj = integrate(spec, p0, scn.integrator, scn.termination)
    except RankDeficiencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    outcome = detect_convergence(traj, scn.target, scn.termination)
    try:
        rate = decay_rate(traj)
    except ValueError:
        rate = None
    energy = control_energy(traj)

    print(f"scenario: {scn.name}  controller: {kind}  seed: {seed}")
    print(f"termination: {traj.termination} at t={traj.termination_time:.6g} "
          f"({len(traj.times)} samples)")
    print(f"final edge error: {outcome.final_edge_error:.6g}   final speed: {outcome.final_speed:.6g}")
    print(f"edge-converged: {outcome.edge_converged}   node-converged: {outcome.node_converged}   "
          f"congruent: {outcome.congruent} (residual {outcome.congruence_residual:.6g})")
    rate_text = f"{rate:.6g}" if rate is not None else "n/a"
    print(f"control energy: {energy:.6g}   fitted decay rate: {rate_text}")

    svg_files = []
    if args.svg:
        prefix = args.svg
        err_path = f"{prefix}-edge-error.svg"
        line_chart(err_path, traj.times, [("edge error", traj.edge_error)],
                   title=f"{scn.name}: edge error", xlabel="t", ylabel="log10 |m - m*|",
                   log_y=True)
        svg_files.append(err_path)
        energy_path = f"{prefix}-energy.svg"
        line_chart(energy_path, traj.times, [("energy", traj.energy)],
                   title=f"{scn.name}: control energy", xlabel="t", ylabel="E(t)")
        svg_files.append(energy_path)
        if scn.d == 2:
            paths_path = f"{prefix}-paths.svg"
            plane_paths(paths_path, traj.positions, target=scn.target.points,
                        title=f"{scn.name}: node paths")
            svg_files.append(paths_path)
        for f in svg_files:
            print(f"wrote {f}")

    if args.output:
        write_trajectory_csv(args.output, scn, traj)
        print(f"wrote {args.output}")

    if args.json:
        _write_json(args.json, {
            "scenario": scn.name,
            "controller": kind,
            "seed": seed,
            "termination": traj.termination,
            "termination_time": traj.termination_time,
            "samples": len(traj.times),
            **asdict(outcome),
            "energy": energy,
            "decay_rate": rate,
            "csv": Path(args.output).name if args.output else None,
            "svg": [Path(f).name for f in svg_files] or None,
        })
        print(f"wrote {args.json}")

    return EXIT_ERROR if traj.termination == "aborted" else EXIT_PASS


def _graph_source(args) -> Scenario:
    if args.builtin:
        return builtin_scenario(args.builtin)
    if args.graph:
        return load_scenario(args.graph)
    raise ScenarioError("one of --builtin or --graph is required")


def cmd_admissibility(args) -> int:
    scn = _graph_source(args)
    seed = _master_seed(args.seed)
    dyn, alg = admissibility(scn.graph, scn.controller, scn.orientation, scn.d,
                             args.samples, seed)
    print(f"graph: {scn.name} ({scn.controller} controller, d={scn.d}, "
          f"n={scn.graph.n}, edges={scn.graph.num_edges})")
    for rep in (dyn, alg):
        worst = min(s.margin / s.spectral_norm for s in rep.per_sample)
        print(f"{rep.test} admissibility: {rep.verdict}  "
              f"[{rep.samples} samples, seed {rep.seed}, worst relative margin {worst:.3g}]")
    if args.json:
        _write_json(args.json, {
            "scenario": scn.name,
            "dynamic_admissibility": asdict(dyn),
            "algebraic_admissibility": asdict(alg),
        })
    return EXIT_PASS if dyn.verdict == "pass" and alg.verdict == "pass" else EXIT_FAIL


def cmd_persistence(args) -> int:
    scn = _graph_source(args)
    if scn.orientation is None:
        raise ScenarioError("persistence requires an oriented scenario")
    seed = _master_seed(args.seed)
    rep = persistence_check(scn.orientation, scn.d, seed)
    print(f"graph: {scn.name} (d={scn.d}, n={scn.graph.n}, edges={scn.graph.num_edges})")
    print(f"persistence: {rep.verdict}  [{rep.reductions_checked} reductions checked]")
    if rep.witness is not None:
        print("witness reduction: " + ", ".join(f"{t}->{h}" for t, h in rep.witness))
    if rep.detail:
        print(f"note: {rep.detail}")
    if args.json:
        _write_json(args.json, {"scenario": scn.name, "persistence": asdict(rep)})
    return _VERDICT_EXIT[rep.verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigidform",
        description="Distance-based formation control: rigidity analysis, "
                    "stability certificates, and closed-loop simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="list built-in scenarios")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("analyze", help="rigidity, certificate, and admissibility report")
    p.add_argument("scenario", help="built-in name or scenario JSON path")
    p.add_argument("--persistence", action="store_true",
                   help="also run the (possibly expensive) persistence test")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="admissibility samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="OUT", help="write the full report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the closed loop")
    p.add_argument("scenario", help="built-in name or scenario JSON path")
    p.add_argument("-o", "--output", metavar="CSV", help="write the trajectory as CSV")
    p.add_argument("--svg", metavar="PREFIX", help="write SVG plots with this path prefix")
    p.add_argument("--json", metavar="OUT", help="write a run summary as JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="start from a seeded perturbation of the target "
                        "(overrides the scenario's initial condition)")
    p.add_argument("--controller", choices=CONTROLLER_KINDS,
                   help="override the scenario's controller kind")
    p.add_argument("--t-max", type=float, default=None, help="override the horizon")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("admissibility", help="randomized generic-spectrum tests")
    p.add_argument("--builtin", choices=builtin_names(), help="built-in scenario name")
    p.add_argument("--graph", metavar="FILE", help="scenario JSON supplying the graph")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_admissibility)

    p = sub.add_parser("persistence", help="out-degree-reduction persistence test")
    p.add_argument("--builtin", choices=builtin_names(), help="built-in scenario name")
    p.add_argument("--graph", metavar="FILE", help="scenario JSON supplying the orientation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_persistence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
