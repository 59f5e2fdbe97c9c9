"""Command line interface.

Exit codes for solver commands follow the outcome: 0 local minimum,
2 unbounded, 3 non-regular abort, 4 step limit; 1 is reserved for file
and argument errors.  All randomness (network draws, start points,
nudges) flows from --seed through counter-based generators, so repeated
invocations with the same arguments produce identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .network import (
    ReluNetwork,
    activation_pattern,
    critical_indices,
    evaluate,
    gradient,
    load_model,
    save_model,
)
from .primitives import Degenerate, DependentColumn, dense_pseudoinverse, project
from .problems import (
    build_clad,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    flatten_first_layer,
    load_csv,
    set_first_layer,
)
from .solver import (
    DESCENT_TOL,
    LOCAL_MINIMUM,
    NON_REGULAR,
    STEP_LIMIT,
    UNBOUNDED,
    SolverOptions,
    axis_derivatives,
    crossing_terms,
    drlsimplex,
    solve_quadratic,
    start_point,
)

EXIT_CODES = {LOCAL_MINIMUM: 0, UNBOUNDED: 2, NON_REGULAR: 3, STEP_LIMIT: 4}


def _parse_list(text, flag, kind):
    """Comma separated values of type kind given to flag; a bad entry names the flag."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


class _FlagError(Exception):
    """A usage error: a rejected flag value or any argparse error; main exits 1 on it."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser, subparsers included, whose usage errors raise _FlagError, not exit 2."""

    def error(self, message):
        raise _FlagError(f"{self.prog}: {message}")


def _seed(text):
    """Argparse type of every --seed: numpy seeds its generators only from nonnegative integers."""
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise _FlagError(f"--seed must be a nonnegative integer, got {text}")


def _trace_writer(fh, net, start_index=None):
    """Writes one JSON object per record to fh, flushed immediately."""
    def write(rec):
        doc = dict(vars(rec))
        if rec.neuron is not None:
            doc["neuron"] = net.neuron_at(rec.neuron)
        if start_index is not None:
            doc["start"] = start_index
        fh.write(json.dumps(doc) + "\n")
        fh.flush()
    return write


def _add_solve_args(p, with_x0=True):
    if with_x0:
        p.add_argument("--x0", default="random",
                       help="start point: 'zero', 'random', or comma separated values")
    p.add_argument("--seed", type=_seed, default=0, help="master seed for all randomness")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--starts", type=int, default=1,
                   help="independent solver runs, one after another; best outcome is reported")
    p.add_argument("--trace", help="write per-step JSONL records to this file")
    p.add_argument("--out", help="also write the outcome JSON to this file")
    p.add_argument("--jitter-on-nonregular", action="store_true",
                   help="retry with 1e-8 bias jitter (up to 3 times) after a NonRegular abort")


def _jittered(net, rng, pairs):
    """net with 1e-8 relative bias noise and its slopes; second pair members keep mirroring their first."""
    biases = [b + 1e-8 * (1.0 + np.max(np.abs(b))) * rng.standard_normal(b.shape)
              for b in net.biases]
    hidden = np.concatenate(biases[:-1])
    hidden[pairs.second] = -hidden[pairs.first]
    return ReluNetwork(net.weights, np.split(hidden, net.offsets[1:-1]) + biases[-1:],
                       net.off_weights, net.two_slope)


def _emit_outcome(args, out, net, extra):
    doc = {
        "status": out.status,
        "x": [float(v) for v in out.x],
        "f": float(out.f),
        "steps": int(out.steps),
        "wall_ms": float(out.wall_ms),
    }
    if out.direction is not None:
        doc["direction"] = [float(v) for v in out.direction]
    if out.neurons:
        doc["neurons"] = [list(net.neuron_at(c)) for c in out.neurons]
    doc.update(extra)
    text = json.dumps(doc)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_CODES[out.status]


def _solve(args, net, pairs, solve, value=evaluate, extra_from=None, fixed_x0=None):
    """Run --starts solves of net one after another and emit the best outcome.

    solve(net, x0, options, pairs) minimizes value(net, x).  Each start draws
    its generator from --seed; unbounded wins, then the least f, then a step
    limit.  A start that ends NonRegular is retried on jittered biases when
    asked; its f is then re-evaluated on net and marked "jittered".
    """
    if args.starts < 1:
        raise ValueError(f"--starts must be at least 1, got {args.starts}")
    if args.max_steps < 0:
        raise ValueError(f"--max-steps must be nonnegative, got {args.max_steps}")
    if fixed_x0 is None and args.x0 == "zero":
        fixed_x0 = np.zeros(net.input_dim)
    elif fixed_x0 is None and args.x0 != "random":
        fixed_x0 = start_point(net, _parse_list(args.x0, "--x0", float), "--x0")
    seeds = np.random.SeedSequence(args.seed).spawn(args.starts)
    runs = []
    with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as fh:
        for k, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.Philox(seed))
            opts = SolverOptions(
                max_steps=args.max_steps, seed=rng, collect_trace=False,
                on_record=_trace_writer(fh, net, k if args.starts > 1 else None) if fh else None,
            )
            x0 = rng.standard_normal(net.input_dim) if fixed_x0 is None else fixed_x0
            out, jittered = solve(net, x0, opts, pairs), False
            for _ in range(3 if args.jitter_on_nonregular else 0):
                if out.status != NON_REGULAR:
                    break
                out, jittered = solve(_jittered(net, rng, pairs), x0, opts, pairs), True
            if jittered:
                out.f = value(net, out.x)
            runs.append((out, jittered))
    rank = {UNBOUNDED: 0, LOCAL_MINIMUM: 1, STEP_LIMIT: 2}
    out, jittered = min(runs, key=lambda r: (rank.get(r[0].status, 3),
                                             r[0].f if r[0].status == LOCAL_MINIMUM else 0.0))
    extra = extra_from(out) if extra_from else {}
    if jittered:
        extra["jittered"] = True
    return _emit_outcome(args, out, net, extra)


def _theta(out):
    return {"theta": [float(v) for v in out.x]}


def cmd_random_net(args):
    net = build_random(_parse_list(args.topology, "--topology", int), seed=args.seed,
                       low=args.low, high=args.high)
    save_model(args.out, net)
    print(json.dumps({"path": args.out, "widths": list(net.widths)}))
    return 0


def cmd_solve(args):
    net, pairs = load_model(args.model)
    return _solve(args, net, pairs, drlsimplex)


def cmd_quantile(args):
    data = load_csv(args.data, args.response)
    net, pairs = build_quantile_lasso(data, alpha=args.alpha, lam=args.lam)
    return _solve(args, net, pairs, drlsimplex, extra_from=_theta)


def cmd_clad(args):
    data = load_csv(args.data, args.response)
    net, pairs = build_clad(data)
    return _solve(args, net, pairs, drlsimplex, extra_from=_theta)


def cmd_lasso(args):
    data = load_csv(args.data, args.response)
    net, q, pairs = build_lasso(data, lam=args.lam)
    return _solve(args, net, pairs, lambda n, x0, opts, p: solve_quadratic(n, q, x0, opts, p),
                  value=lambda n, x: evaluate(n, x) + q.value(x), extra_from=_theta)


def cmd_train_l1(args):
    if not (args.base_model or args.base_topology):
        raise ValueError("train-l1 needs --base-model or --base-topology")
    if args.base_model and args.base_topology:
        raise ValueError("train-l1 takes --base-model or --base-topology, not both")
    data = load_csv(args.data, args.response)
    if args.base_model:
        base, _ = load_model(args.base_model)
    else:
        base = build_random(_parse_list(args.base_topology, "--base-topology", int), seed=args.seed)
    net, pairs = build_l1_first_layer(base, data)
    fixed = flatten_first_layer(base) if args.x0 == "warm" else None

    def extra(out):
        doc = {"theta": [float(v) for v in out.x]}
        if args.out_model:
            save_model(args.out_model, set_first_layer(base, out.x))
            doc["model"] = args.out_model
        return doc

    return _solve(args, net, pairs, drlsimplex, extra_from=extra, fixed_x0=fixed)


def cmd_bounds(args):
    topology = _parse_list(args.topology, "--topology", int)
    print(json.dumps({"montufar": bounds_mod.montufar_bound(topology),
                      "improved": bounds_mod.improved_bound(topology)}))
    return 0


def cmd_regions(args):
    net, _ = load_model(args.model)
    box = _parse_list(args.box, "--box", float)
    if len(box) != 2:
        raise ValueError(f"--box needs exactly lo,hi; got {args.box!r}")
    n = bounds_mod.count_regions_empirical(net, box, samples=args.samples, seed=args.seed)
    print(json.dumps({"empirical": n, "samples": args.samples, "box": box}))
    return 0


def cmd_check(args):
    """Certify --x from the solver's own pricing of the 2m edges at the vertex of its active walls."""
    net, pairs = load_model(args.model)
    x = start_point(net, _parse_list(args.x, "--x", float), "--x")
    folded, kept = pairs.fold(net)
    s = activation_pattern(folded, x)
    # each wall through x takes the bit of an exactly zero argument, not its roundoff sign
    crit = critical_indices(folded, s, x)[0]
    s[crit] = np.concatenate([np.zeros(folded.offsets[-2], dtype=bool), folded.two_slope])[crit]
    crit, normals = critical_indices(folded, s, x)
    try:
        pinv = dense_pseudoinverse(normals, crit)
    except Degenerate:
        print(json.dumps({"certified": False, "reason": "dependent active walls",
                          "neurons": [list(net.neuron_at(c)) for c in kept[crit].tolist()]}))
        return 3
    grad = gradient(folded, s)
    tol = DESCENT_TOL * (1.0 + np.linalg.norm(grad))
    vals = axis_derivatives(pinv, grad, *crossing_terms(folded, s, crit))[1].reshape(2, -1)
    # with fewer walls than dimensions, moving off their span must not descend either
    free = np.linalg.norm(grad - project(pinv, grad))
    ok = bool((pinv.m == folded.input_dim or free <= tol) and vals.min(initial=0.0) >= -tol)
    # one axes entry per active wall: its bit at x and the derivatives along its two edges,
    # inside x's region and across the wall
    axes = [{"neuron": list(net.neuron_at(int(kept[c]))), "bit": int(s[c]),
             "derivatives": vals[:, k].tolist()} for k, c in enumerate(crit)]
    print(json.dumps({"certified": ok, "f": evaluate(net, x), "axes": axes}))
    return 0 if ok else 2


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="drlp",
        description="Minimize feed-forward ReLU networks over their input space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random-net", help="draw a network with uniform weights")
    p.add_argument("--topology", required=True,
                   help="comma separated widths, input first, output width 1 last")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--low", type=float, default=-1.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_random_net)

    p = sub.add_parser("solve", help="minimize a model from a JSON file")
    p.add_argument("--model", required=True)
    _add_solve_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("quantile", help="quantile regression with optional L1 penalty")
    p.add_argument("--data", required=True, help="numeric CSV")
    p.add_argument("--response", help="response column name (default: last column)")
    p.add_argument("--alpha", type=float, default=0.5, help="quantile level in [0, 1]")
    p.add_argument("--lam", type=float, default=0.0, help="L1 penalty weight")
    _add_solve_args(p)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("clad", help="censored least absolute deviations regression")
    p.add_argument("--data", required=True)
    p.add_argument("--response")
    _add_solve_args(p)
    p.set_defaults(func=cmd_clad)

    p = sub.add_parser("lasso", help="least squares with L1 penalty (quadratic mode)")
    p.add_argument("--data", required=True)
    p.add_argument("--response")
    p.add_argument("--lam", type=float, default=0.0)
    _add_solve_args(p)
    p.set_defaults(func=cmd_lasso)

    p = sub.add_parser("train-l1", help="train a network's first layer under L1 loss")
    p.add_argument("--data", required=True)
    p.add_argument("--response")
    p.add_argument("--base-model", help="model JSON whose deeper layers stay frozen")
    p.add_argument("--base-topology", help="draw the base network instead (uses --seed)")
    p.add_argument("--out-model", help="write the base with the trained first layer here")
    _add_solve_args(p, with_x0=False)
    p.add_argument("--x0", default="warm",
                   help="'warm' (base's current first layer), 'zero', 'random', or values")
    p.set_defaults(func=cmd_train_l1)

    p = sub.add_parser("bounds", help="region-count upper bounds for a topology")
    p.add_argument("--topology", required=True,
                   help="input width then ReLU layer widths (no output layer)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("regions", help="count distinct activation patterns by sampling")
    p.add_argument("--model", required=True)
    p.add_argument("--box", default="-10,10", help="sampling box lo,hi per coordinate")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("check", help="certify whether a point is a local minimum")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="comma separated point")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError, _FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DependentColumn, Degenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
