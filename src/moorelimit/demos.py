"""The ``chsh``, ``noclone`` and ``exchange`` subcommands and the readers of
the documents only they read.

They compute with the plain-Python ``quantum``, ``observer`` and ``nogo``
modules; :mod:`moorelimit.cli` imports this module when it dispatches one of
them.  numpy loads only to draw: ``noclone``'s random pairs and ``chsh
--samples``.  ``ks`` lives in :mod:`moorelimit.contextuality` and ``geiger`` in
:mod:`moorelimit.detector`, which shares its counter model with ``exchange``
and comes here only to check a config's quantum blocks.  Readers raise
:class:`~moorelimit.serialize.ParseError` with a field-level message; a
config's errors start with its path, and a POVM file's with that file's path.
"""

from __future__ import annotations

import math
from pathlib import Path

from .cli import _finish, _witness
from .detector import (
    _default_scenario,
    _source_rows,
    _source_table,
    counters_from_dict,
    detector_to_dict,
)
from .machines import Trace, _quoted
from .nogo import (
    CHSH_TERMS,
    chsh_sum,
    chsh_value,
    correlator,
    lhv_chsh_table,
    measurement_axis,
    no_cloning_gap,
    singlet,
)
from .observer import ObserverModel, max_deviation, outcome_statistics
from .quantum import (
    DensityOperator,
    Effect,
    Povm,
    StateVector,
    basis_state,
    born_distribution,
    kron,
    max_entry_difference,
    overlap,
    random_state,
)
from .serialize import (
    ParseError,
    _at,
    _checked,
    _integer,
    _number,
    _object,
    _require,
    _symbol,
    _symbols,
    load_json,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

_CANONICAL_ANGLES = {
    "a": 0.0,
    "a_prime": math.pi / 2.0,
    "b": math.pi / 4.0,
    "b_prime": 3.0 * math.pi / 4.0,
}


# ---------------------------------------------------------------------------
# readers


def _floats(values, where: str) -> list:
    """An array of numbers, or an array of such arrays, as floats in the same nesting."""
    nested = isinstance(values, list) and any(isinstance(v, list) for v in values)
    rows = []
    for i, row in enumerate(values if nested else [values]):
        at = f"{where}[{i}]" if nested else where
        if not isinstance(row, list):
            raise ParseError(f"{at}: expected an array of numbers, got {type(row).__name__}")
        rows.append([_number(v, f"{at}[{j}]") for j, v in enumerate(row)])
    return rows if nested else rows[0]


def matrix_from_dict(doc: dict, where: str = "operator") -> tuple:
    """A ``dim``-square matrix from row-major ``re`` and ``im`` arrays, as a tuple of rows."""
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    for part in (re, im):
        if len(part) != dim or not all(isinstance(row, list) and len(row) == dim for row in part):
            raise ParseError(f"{where}: re/im must be {dim}x{dim} row-major arrays")
    return tuple(tuple(map(complex, r, i)) for r, i in zip(re, im))


def state_from_dict(doc: dict, where: str = "state") -> StateVector:
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if len(re) != dim or len(im) != dim or any(isinstance(v, list) for v in re + im):
        raise ParseError(f"{where}: re/im must be flat arrays of length {dim}")
    return _checked(where, lambda: StateVector(tuple(map(complex, re, im))))


def density_from_dict(doc: dict, where: str = "density") -> DensityOperator:
    matrix = matrix_from_dict(doc, where)
    return _checked(where, lambda: DensityOperator(matrix))


def povm_from_dict(doc: dict, where: str = "povm") -> Povm:
    labels = _symbols(_require(doc, "labels", where), f"{where}.labels")
    effects = _require(doc, "effects", where)
    if not isinstance(effects, list) or not effects:
        raise ParseError(f"{where}: 'effects' must be a nonempty array")
    matrices = [matrix_from_dict(e, f"{where}.effects[{i}]") for i, e in enumerate(effects)]
    return _checked(where, lambda: Povm(tuple(Effect(m) for m in matrices), tuple(labels)))


def observer_from_dict(doc: dict, base_dir: Path | None = None, where: str = "observer") -> ObserverModel:
    """Observer block: environment dimension plus named POVMs, inline or by file.
    A POVM file's errors start with its path."""
    env_dim = _integer(_require(doc, "env_dim", where), f"{where}.env_dim")
    entries = _require(doc, "povms", where)
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}: 'povms' must be a nonempty array")
    povms = {}
    for i, entry in enumerate(entries):
        at = f"{where}.povms[{i}]"
        name = _symbol(_require(entry, "name", at), f"{at}.name")
        if str(name) in map(str, povms):  # the report keys statistics by the name's JSON spelling
            raise ParseError(f"{at}.name: {_quoted(name)} names an earlier POVM too")
        if "file" in entry:
            if not isinstance(entry["file"], str):
                raise ParseError(f"{at}.file: expected a path string, got {_quoted(entry['file'])}")
            povm_path = base_dir / entry["file"] if base_dir else entry["file"]
            try:
                entry = load_json(povm_path)
            except OSError as exc:  # a file the config names but that cannot be read
                raise ParseError(f"{at}.file: {exc}") from None
            at = f"{povm_path}: povm"
        povms[name] = povm_from_dict(entry, at)
    return _checked(where, lambda: ObserverModel(env_dim=env_dim, povms=povms))


def chsh_config_from_dict(doc: dict, where: str) -> tuple[dict, DensityOperator | None]:
    """A ``chsh`` config: its four finite ``angles`` (empty without the block) and
    its two-qubit ``state``, a flat vector or a density matrix (None without the block)."""
    angles = {}
    if "angles" in _object(doc, where):
        block = _object(doc["angles"], f"{where}: angles")
        for key in ("a", "a_prime", "b", "b_prime"):
            at = f"{where}: angles.{key}"
            angles[key] = _number(_require(block, key, f"{where}: angles"), at)
            if not math.isfinite(angles[key]):
                raise ParseError(f"{at}: expected a finite number, got {angles[key]!r}")
    if "state" not in doc:
        return angles, None
    at = f"{where}: state"
    re_block = _object(doc["state"], at).get("re")
    if isinstance(re_block, list) and re_block and isinstance(re_block[0], list):
        state = density_from_dict(doc["state"], at)
    else:
        state = DensityOperator.from_state(state_from_dict(doc["state"], at))
    if state.dim != 4:
        raise ParseError(f"{at}: CHSH needs a two-qubit state (dim 4), got dim {state.dim}")
    return angles, state


def state_pairs_from_dict(doc: dict, where: str) -> list[tuple]:
    """A ``noclone`` config: ``(name, psi, phi)`` for each entry of its ``pairs`` array."""
    entries = _object(doc, where).get("pairs")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}: expected a nonempty 'pairs' array")
    pairs = []
    for i, entry in enumerate(entries):
        at = f"{where}: pairs[{i}]"
        name = _symbol(_object(entry, at).get("name", f"pair_{i}"), f"{at}.name")
        psi = state_from_dict(_require(entry, "psi", at), f"{at}.psi")
        phi = state_from_dict(_require(entry, "phi", at), f"{at}.phi")
        if psi.dim != phi.dim:
            raise ParseError(f"{at}: state dims differ: psi has {psi.dim}, phi has {phi.dim}")
        pairs.append((name, psi, phi))
    return pairs


def quantum_blocks_from_dict(doc: dict, path: str | None = None) -> tuple:
    """The quantum blocks of an ``exchange``/``geiger`` config from ``path`` (None if
    built in) as ``(observer or None, [density_a, density_b] where present)``; POVM
    files resolve against the config's directory."""
    base_dir = Path(path).parent if path else None
    observer = observer_from_dict(doc["observer"], base_dir, _at(path, "observer")) if "observer" in doc else None
    densities = [density_from_dict(doc[key], _at(path, key)) for key in ("density_a", "density_b") if key in doc]
    return observer, densities


# ---------------------------------------------------------------------------
# commands


def _projectors(angle: float) -> list:
    """The projectors (I + s A) / 2 onto the outcomes s = 1 and s = -1 of the
    observable A = ``measurement_axis(angle)``."""
    axis = measurement_axis(angle)
    return [
        tuple(tuple((float(i == j) + s * a) / 2.0 for j, a in enumerate(row)) for i, row in enumerate(axis))
        for s in (1, -1)
    ]


def _sample_correlator(state: DensityOperator, x: float, y: float, n: int, rng) -> float:
    """The mean product of ``n`` pairs of outcomes drawn by the numpy ``Generator`` ``rng``."""
    import numpy as np

    povm = Povm(
        effects=tuple(Effect(kron(p, q)) for p in _projectors(x) for q in _projectors(y)),
        labels=("++", "+-", "-+", "--"),
    )
    draws = rng.choice(4, size=n, p=born_distribution(state, povm))
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    return float(np.mean(signs[draws]))


def cmd_chsh(args) -> int:
    angles = dict(_CANONICAL_ANGLES)
    state, state_echo = singlet(), "singlet"
    if args.config:
        custom_angles, custom_state = chsh_config_from_dict(load_json(args.config), str(args.config))
        angles.update(custom_angles)
        if custom_state is not None:
            state, state_echo = custom_state, "custom"
    correlators = {
        name: correlator(state, angles[x], angles[y]) for name, x, y, _ in CHSH_TERMS
    }
    s_value = chsh_sum(lambda name, _x, _y: correlators[name])
    lhv_max = max(abs(v) for v in lhv_chsh_table().values())
    results = {
        "angles": angles,
        "correlators": correlators,
        "S": s_value,
        "abs_S": abs(s_value),
        "lhv_max": lhv_max,
        "tsirelson": TSIRELSON,
        "verdict": (
            "quantum exceeds LHV" if abs(s_value) > lhv_max + args.tol else "within LHV bound"
        ),
    }
    checks = {
        "within_tsirelson": abs(s_value) <= TSIRELSON + args.tol,
        "lhv_max_is_two": lhv_max == 2,
    }
    is_singlet = max_entry_difference(state.matrix, singlet().matrix) <= 1e-12
    if is_singlet:
        closed = chsh_sum(lambda _, x, y: -math.cos(angles[x] - angles[y]))
        results["closed_form_S"] = closed
        results["closed_form_deviation"] = abs(closed - s_value)
        checks["closed_form_agrees"] = abs(closed - s_value) <= args.tol
    if args.samples:
        import numpy as np

        rng = np.random.default_rng(args.seed)
        estimates = {
            name: _sample_correlator(state, angles[x], angles[y], args.samples, rng)
            for name, x, y, _ in CHSH_TERMS
        }
        s_estimate = chsh_sum(lambda name, _x, _y: estimates[name])
        results["sampled"] = {
            "samples_per_setting": args.samples,
            "correlators": estimates,
            "S_estimate": s_estimate,
            "S_error": abs(s_estimate - s_value),
        }

    def table():
        sweep_rows = []
        for k in range(100):
            theta = 2.0 * math.pi * k / 100.0
            sweep = {"a": 0.0, "a_prime": math.pi / 2.0, "b": theta, "b_prime": theta + math.pi / 2.0}
            sweep_rows.append([*sweep.values(), chsh_value(state, sweep)])
        return ["a", "a_prime", "b", "b_prime", "S"], sweep_rows

    echo = {"config": str(args.config) if args.config else "(default)", "state": state_echo}
    return _finish(args, "chsh", echo, results, checks, table)


def cmd_noclone(args) -> int:
    ket0 = basis_state(2, 0)
    ket1 = basis_state(2, 1)
    default_mode = args.config is None
    if default_mode:
        pairs = [
            ("identical", ket0, ket0),
            ("orthogonal", ket0, ket1),
            ("overlap_0.6", ket0, StateVector([0.6, 0.8])),
        ]
    else:
        pairs = state_pairs_from_dict(load_json(args.config), str(args.config))

    pair_rows = []
    gap_by_name = {}
    for name, psi, phi in pairs:
        gap = no_cloning_gap(psi, phi)
        gap_by_name[name] = gap
        pair_rows.append({"name": name, "overlap": abs(overlap(psi, phi)), "gap": gap})

    import numpy as np

    rng = np.random.default_rng(args.seed)
    min_gap, max_gap = math.inf, -math.inf  # running, so memory stays flat in --samples
    for _ in range(args.samples):
        gap = no_cloning_gap(random_state(2, rng), random_state(2, rng))
        min_gap, max_gap = min(min_gap, gap), max(max_gap, gap)
    results = {
        "pairs": pair_rows,
        "random": {
            "count": args.samples,
            "min_gap": min_gap,
            "max_gap": max_gap,
        },
    }
    checks = {
        "gaps_nonnegative": all(row["gap"] >= -args.tol for row in pair_rows),
        "random_gaps_positive": min_gap > 0,
    }
    if default_mode:
        checks["identical_gap_zero"] = abs(gap_by_name["identical"]) <= args.tol
        checks["orthogonal_gap_zero"] = abs(gap_by_name["orthogonal"]) <= args.tol
        checks["overlap_0.6_gap_0.24"] = abs(gap_by_name["overlap_0.6"] - 0.24) <= args.tol

        # the machine-level analogue: the witness pair of the record 0,1
        trace = Trace((0, 1))
        witness, held = _witness(trace)
        records_identical = held["machine_a_consistent"] and held["machine_b_consistent"]
        machines_equivalent = not held["machines_inequivalent"]
        results["classical_analogue"] = {
            "trace": list(trace.outputs),
            **witness,
            "records_identical": records_identical,
            "machines_equivalent": machines_equivalent,
        }
        checks["classical_witness_separates"] = records_identical and not machines_equivalent

    def table():
        return ["pair", "overlap", "gap"], [[r["name"], r["overlap"], r["gap"]] for r in pair_rows]

    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "noclone", echo, results, checks, table)


def _default_exchange_quantum() -> dict:
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "observer": {
            "env_dim": 2,
            "povms": [
                {
                    "name": "counter",
                    "dim": 2,
                    "labels": [0, 1],
                    "effects": [
                        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": zeros},
                        {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": zeros},
                    ],
                }
            ],
        },
        "density_a": {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]], "im": zeros},
        "density_b": {"dim": 2, "re": [[0.75, 0.2], [0.2, 0.25]], "im": zeros},
    }


def cmd_exchange(args) -> int:
    default = {**_default_scenario(), **_default_exchange_quantum()}
    doc = load_json(args.config) if args.config else default
    names, sources, detector = counters_from_dict(doc, args.config)
    observer, densities = quantum_blocks_from_dict(doc, args.config)
    if len(sources) != 2:
        raise ParseError(f"{_at(args.config, 'sources')}: exchange compares exactly two sources, got {len(sources)}")
    missing = [key for key in ("observer", "density_a", "density_b") if key not in doc]
    if 0 < len(missing) < 3:
        raise ParseError(f"{args.config}: missing {' and '.join(map(repr, missing))}; "
                         "the statistics need observer, density_a and density_b together")
    rows = _source_rows(names, sources, detector, args.config)
    records_equal = rows[0]["outcome"] == rows[1]["outcome"]
    configs_identical = sources[0] == sources[1]

    results = {
        "sources": rows,
        "detector": detector_to_dict(detector),
        "records_equal": records_equal,
        "configs_identical": configs_identical,
        "verdict": (
            "records carry no trace of the exchange"
            if records_equal and not configs_identical
            else "records distinguish the configurations"
        ),
    }
    checks = {
        "records_equal": records_equal,
        "configs_distinct": not configs_identical,
    }
    if observer is not None:  # then both densities are present too
        rho_a, rho_b = densities
        stats_a = _checked(_at(args.config, "density_a"), lambda: outcome_statistics(rho_a, observer))
        stats_b = _checked(_at(args.config, "density_b"), lambda: outcome_statistics(rho_b, observer))
        worst = max_deviation(stats_a, stats_b)
        same_statistics = worst <= args.tol
        results["statistics"] = {
            "povms": {
                name: {
                    "labels": list(povm.labels),
                    "p_a": list(stats_a[name]),
                    "p_b": list(stats_b[name]),
                }
                for name, povm in observer.povms.items()
            },
            "max_deviation": worst,
            "indistinguishable": same_statistics,
            "states_identical": rho_a == rho_b,
        }
        checks["statistics_indistinguishable"] = same_statistics

    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "exchange", echo, results, checks, lambda: _source_table(rows))
