"""The five physics subcommands and the readers of the documents only they read.

Only these commands need numpy and the ``quantum``, ``observer`` and ``nogo``
modules, so :mod:`moorelimit.cli` imports this module when it dispatches one
of them.  Readers raise :class:`~moorelimit.serialize.ParseError` with a
field-level message.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .cli import _finish, _witness_block
from .machines import Trace, _quoted
from .nogo import (
    CHSH_TERMS,
    ChshSetting,
    chsh_sum,
    chsh_value,
    clone_inference_report,
    correlator,
    kochen_specker_check,
    lhv_chsh_bound,
    measurement_axis,
    no_cloning_gap,
    singlet,
)
from .observer import (
    DetectorConfig,
    ObserverModel,
    SourceConfig,
    exchange_witness,
    expected_count_rate,
    geiger_outcome,
    indistinguishable,
    outcome_statistics,
    sample_geiger_counts,
)
from .quantum import (
    DensityOperator,
    Effect,
    Povm,
    StateVector,
    basis_state,
    born_distribution,
    overlap,
    random_state,
)
from .serialize import (
    ParseError,
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


def _floats(values, where: str) -> np.ndarray:
    """An array of numbers, or an array of such arrays, as a float array."""
    nested = isinstance(values, list) and any(isinstance(v, list) for v in values)
    for i, row in enumerate(values if nested else [values]):
        at = f"{where}[{i}]" if nested else where
        if not isinstance(row, list):
            raise ParseError(f"{at}: expected an array of numbers, got {type(row).__name__}")
        for j, v in enumerate(row):
            _number(v, f"{at}[{j}]")
    return _checked(where, lambda: np.asarray(values, dtype=float))


def matrix_from_dict(doc: dict, where: str = "operator") -> np.ndarray:
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"{where}: re/im must be {dim}x{dim} row-major arrays")
    return re + 1j * im


def state_from_dict(doc: dict, where: str = "state") -> StateVector:
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim,) or im.shape != (dim,):
        raise ParseError(f"{where}: re/im must be flat arrays of length {dim}")
    return _checked(where, lambda: StateVector(re + 1j * im))


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


def source_from_dict(doc: dict, where: str = "source") -> SourceConfig:
    activity = _number(_require(doc, "activity", where), f"{where}: activity")
    distance = _number(_require(doc, "distance", where), f"{where}: distance")
    photon_yield = _number(doc.get("yield", 1.0), f"{where}: yield")
    return _checked(where, lambda: SourceConfig(activity, distance, photon_yield))


def detector_from_dict(doc: dict, where: str = "detector") -> DetectorConfig:
    aperture = _number(_require(doc, "aperture_diameter", where), f"{where}: aperture_diameter")
    efficiency = _number(_require(doc, "efficiency", where), f"{where}: efficiency")
    saturation = _integer(doc.get("saturation", 100), f"{where}.saturation")
    return _checked(where, lambda: DetectorConfig(aperture, efficiency, saturation))


def detector_to_dict(detector: DetectorConfig) -> dict:
    return {
        "aperture_diameter": detector.aperture_diameter,
        "efficiency": detector.efficiency,
        "saturation": detector.saturation,
    }


def observer_from_dict(doc: dict, base_dir: Path | None = None, where: str = "observer") -> ObserverModel:
    """Observer block: environment dimension plus named POVMs, inline or by file."""
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
            entry = load_json(base_dir / entry["file"] if base_dir else entry["file"])
        povms[name] = povm_from_dict(entry, at)
    return _checked(where, lambda: ObserverModel(env_dim=env_dim, povms=povms))


def chsh_config_from_dict(doc: dict, where: str) -> tuple[dict, DensityOperator | None]:
    """A ``chsh`` config: its four ``angles`` (empty without the block) and its
    ``state``, a flat vector or a density matrix (None without the block)."""
    angles = {}
    if "angles" in _object(doc, where):
        block = _object(doc["angles"], f"{where}: angles")
        for key in ("a", "a_prime", "b", "b_prime"):
            angles[key] = _number(_require(block, key, f"{where}: angles"), f"{where}: angles.{key}")
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


def scenario_from_dict(doc: dict, path: str | None = None) -> tuple:
    """An ``exchange``/``geiger`` config from ``path`` (None if built in) as ``(names, sources,
    detector, observer or None, [density_a, density_b] where present)``; POVM files
    resolve against the config's directory."""
    src_block = _object(doc, str(path)).get("sources")
    if not isinstance(src_block, dict) or not src_block:
        raise ParseError("scenario: expected a nonempty 'sources' object")
    names = list(src_block)
    sources = [source_from_dict(src_block[name], f"sources.{name}") for name in names]
    detector = detector_from_dict(doc.get("detector", {}), "detector")
    base_dir = Path(path).parent if path else None
    observer = observer_from_dict(doc["observer"], base_dir) if "observer" in doc else None
    densities = [density_from_dict(doc[key], key) for key in ("density_a", "density_b") if key in doc]
    return names, sources, detector, observer, densities


# ---------------------------------------------------------------------------
# commands


def _sample_correlator(state: DensityOperator, x: float, y: float, n: int, rng) -> float:
    eye = np.eye(2)
    proj_a = [(eye + s * measurement_axis(x)) / 2.0 for s in (1, -1)]
    proj_b = [(eye + t * measurement_axis(y)) / 2.0 for t in (1, -1)]
    povm = Povm(
        effects=tuple(Effect(np.kron(p, q)) for p in proj_a for q in proj_b),
        labels=("++", "+-", "-+", "--"),
    )
    probs = np.asarray(born_distribution(state, povm).probabilities)
    draws = rng.choice(4, size=n, p=probs)
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
    setting = ChshSetting(state=state, **angles)
    s_value = chsh_value(setting)
    lhv = lhv_chsh_bound()

    correlators = {
        name: correlator(state, angles[x], angles[y]) for name, x, y, _ in CHSH_TERMS
    }
    results = {
        "angles": angles,
        "correlators": correlators,
        "S": s_value,
        "abs_S": abs(s_value),
        "lhv_max": lhv.max_abs,
        "tsirelson": TSIRELSON,
        "verdict": (
            "quantum exceeds LHV" if abs(s_value) > lhv.max_abs + args.tol else "within LHV bound"
        ),
    }
    checks = {
        "within_tsirelson": abs(s_value) <= TSIRELSON + args.tol,
        "lhv_max_is_two": lhv.max_abs == 2,
    }
    is_singlet = bool(np.max(np.abs(state.matrix - singlet().matrix)) <= 1e-12)
    if is_singlet:
        closed = chsh_sum(lambda _, x, y: -math.cos(angles[x] - angles[y]))
        results["closed_form_S"] = closed
        results["closed_form_deviation"] = abs(closed - s_value)
        checks["closed_form_agrees"] = abs(closed - s_value) <= args.tol
    if args.samples:
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

    table = None
    if args.format == "table":
        sweep_rows = []
        for k in range(100):
            theta = 2.0 * math.pi * k / 100.0
            sweep = ChshSetting(
                a=0.0, a_prime=math.pi / 2.0, b=theta, b_prime=theta + math.pi / 2.0, state=state
            )
            sweep_rows.append([0.0, math.pi / 2.0, theta, theta + math.pi / 2.0, chsh_value(sweep)])
        table = (["a", "a_prime", "b", "b_prime", "S"], sweep_rows)

    echo = {"config": str(args.config) if args.config else "(default)", "state": state_echo}
    return _finish(args, "chsh", echo, results, checks, table)


def cmd_ks(args) -> int:
    report = kochen_specker_check()
    results = {
        "labels": [list(row) for row in report.labels],
        "row_signs": list(report.row_signs),
        "col_signs": list(report.col_signs),
        "max_commutator": report.max_commutator,
        "max_product_deviation": report.max_product_deviation,
        "satisfying_assignments": report.satisfying_assignments,
        "assignment_count": report.assignment_count,
        "contextual": report.contextual,
    }
    checks = {
        "lines_commute": report.max_commutator <= args.tol,
        "products_are_signed_identities": report.max_product_deviation <= args.tol,
        "row_signs_all_plus": report.row_signs == (1, 1, 1),
        "col_signs_plus_plus_minus": report.col_signs == (1, 1, -1),
        "no_classical_assignment": report.satisfying_assignments == 0,
    }
    table = (
        ["row", "col", "label"],
        [[r, c, report.labels[r][c]] for r in range(3) for c in range(3)],
    )
    echo = {"square": "peres-mermin"}
    return _finish(args, "ks", echo, results, checks, table)


def cmd_noclone(args) -> int:
    ket0 = basis_state(2, 0)
    ket1 = basis_state(2, 1)
    default_mode = args.config is None
    if default_mode:
        pairs = [
            ("identical", ket0, ket0),
            ("orthogonal", ket0, ket1),
            ("overlap_0.6", ket0, StateVector(np.array([0.6, 0.8], dtype=complex))),
        ]
    else:
        pairs = state_pairs_from_dict(load_json(args.config), str(args.config))

    pair_rows = []
    gap_by_name = {}
    for name, psi, phi in pairs:
        gap = no_cloning_gap(psi, phi)
        gap_by_name[name] = gap
        pair_rows.append({"name": name, "overlap": abs(overlap(psi, phi)), "gap": gap})

    rng = np.random.default_rng(args.seed)
    random_gaps = [
        no_cloning_gap(random_state(2, rng), random_state(2, rng)) for _ in range(args.samples)
    ]
    results = {
        "pairs": pair_rows,
        "random": {
            "count": args.samples,
            "min_gap": min(random_gaps),
            "max_gap": max(random_gaps),
        },
    }
    checks = {
        "gaps_nonnegative": all(row["gap"] >= -args.tol for row in pair_rows),
        "random_gaps_positive": all(g > 0 for g in random_gaps),
    }
    if default_mode:
        checks["identical_gap_zero"] = abs(gap_by_name["identical"]) <= args.tol
        checks["orthogonal_gap_zero"] = abs(gap_by_name["orthogonal"]) <= args.tol
        checks["overlap_0.6_gap_0.24"] = abs(gap_by_name["overlap_0.6"] - 0.24) <= args.tol

        analogue = clone_inference_report(Trace((0, 1)))
        results["classical_analogue"] = {
            "trace": list(analogue.trace.outputs),
            **_witness_block(analogue, analogue.outputs_a, analogue.outputs_b),
            "records_identical": analogue.records_identical,
            "machines_equivalent": analogue.machines_equivalent,
        }
        checks["classical_witness_separates"] = (
            analogue.records_identical and not analogue.machines_equivalent
        )
    table = (
        ["pair", "overlap", "gap"],
        [[row["name"], row["overlap"], row["gap"]] for row in pair_rows],
    )
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "noclone", echo, results, checks, table)


def _default_scenario() -> dict:
    return {
        "sources": {
            "near": {"activity": 3.7e6, "distance": 100.0, "yield": 1.0},
            "far": {"activity": 1.48e7, "distance": 200.0, "yield": 1.0},
        },
        "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
    }


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


def _source_table(rows):
    """The per-source table ``exchange`` and ``geiger`` share."""
    header = ["source", "activity", "distance", "yield", "expected_rate", "outcome"]
    return header, [
        [r["name"], r["activity"], r["distance"], r["yield"], r["expected_rate"], r["outcome"]]
        for r in rows
    ]


def _source_rows(names, sources, detector):
    rows = []
    for name, src in zip(names, sources):
        rows.append(
            {
                "name": name,
                "activity": src.activity,
                "distance": src.distance,
                "yield": src.photon_yield,
                "expected_rate": expected_count_rate(src, detector),
                "outcome": geiger_outcome(src, detector),
            }
        )
    return rows


def cmd_exchange(args) -> int:
    default = {**_default_scenario(), **_default_exchange_quantum()}
    doc = load_json(args.config) if args.config else default
    names, sources, detector, observer, densities = scenario_from_dict(doc, args.config)
    if len(sources) != 2:
        raise ParseError("exchange compares exactly two sources")
    report = exchange_witness(sources[0], sources[1], detector)

    results = {
        "sources": _source_rows(names, sources, detector),
        "detector": detector_to_dict(detector),
        "records_equal": report.records_equal,
        "configs_identical": report.configs_identical,
        "verdict": (
            "records carry no trace of the exchange"
            if report.records_equal and not report.configs_identical
            else "records distinguish the configurations"
        ),
    }
    checks = {
        "records_equal": report.records_equal,
        "configs_distinct": not report.configs_identical,
    }
    if observer is not None and len(densities) == 2:
        rho_a, rho_b = densities
        stats_a = outcome_statistics(rho_a, observer)
        stats_b = outcome_statistics(rho_b, observer)
        comparison = indistinguishable(stats_a, stats_b, tolerance=args.tol)
        results["statistics"] = {
            "povms": {
                name: {
                    "labels": list(stats_a[name].labels),
                    "p_a": list(stats_a[name].probabilities),
                    "p_b": list(stats_b[name].probabilities),
                }
                for name in stats_a
            },
            "max_deviation": comparison.max_deviation,
            "indistinguishable": comparison.indistinguishable,
            "states_identical": bool(np.array_equal(rho_a.matrix, rho_b.matrix)),
        }
        checks["statistics_indistinguishable"] = comparison.indistinguishable

    table = _source_table(results["sources"])
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "exchange", echo, results, checks, table)


def cmd_geiger(args) -> int:
    doc = load_json(args.config) if args.config else _default_scenario()
    names, sources, detector, _, _ = scenario_from_dict(doc, args.config)
    rows = _source_rows(names, sources, detector)
    outcomes = [r["outcome"] for r in rows]
    results = {
        "sources": rows,
        "detector": detector_to_dict(detector),
    }
    if len(rows) > 1:
        results["outcomes_equal"] = all(o == outcomes[0] for o in outcomes)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        sampled = {}
        for name, src in zip(names, sources):
            counts = sample_geiger_counts(src, detector, args.samples, rng)
            sampled[name] = {
                "samples": args.samples,
                "mean": float(np.mean(counts)),
                "min": int(min(counts)),
                "max": int(max(counts)),
            }
        results["sampled"] = sampled
    checks = {"within_saturation": all(o <= detector.saturation for o in outcomes)}
    if len(rows) > 1:
        checks["outcomes_all_equal"] = results["outcomes_equal"]
    table = _source_table(rows)
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "geiger", echo, results, checks, table)
