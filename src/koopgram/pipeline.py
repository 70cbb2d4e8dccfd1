"""Staged pipeline: fit, factor, balance, certify, simulate, report.

Every stage reads its predecessors' JSON artifacts from the output
directory and writes its own, so stages are independently re-runnable and
their outputs diffable.  All randomness derives from the config seed
through fixed per-stage offsets, making reruns byte-identical.  Timings are
printed, never serialized, so reports stay reproducible.

``_jsonable`` and ``_load`` are the only serialisers: an artifact's keys are
the field names of the dataclasses it holds, and arrays are nested lists.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .balance import (
    BalancedRealization,
    balance,
    balanced_nonlinear,
    factor_error,
    truncate,
)
from .certify import (
    build_certificate,
    control_truncation_gain,
    feedback_decomposition,
    input_to_state_norm,  # noqa: F401  (perfbench/tracer.py wraps this name here)
    is_control_affine,
    lift_sensitivity_norms,
    output_embedding_gap,
)
from .expr import (
    builtin_declaration, check_dictionary, check_fields, check_type, get_builtin, system_from_spec,
)
from .gsvd import MIN_SAMPLE_BUDGET, decompose, estimate_gains
from .harness import ControlSystem, estimate_gap, input_ensemble, judge_bound, simulate_ensemble
from .koopman import (
    Dictionary,
    KoopmanModel,
    TrajectoryDataset,
    build_dictionary,
    collect_trajectories,
    fit_koopman,
    lifted_control_term,
)
from .linalg import MIN_ODE_TOL, LtiSystem, hinf_norm

__all__ = [
    "PipelineConfig",
    "MissingArtifactError",
    "ARTIFACT_NAMES",
    "stage_fit_koopman",
    "stage_decompose",
    "stage_balance",
    "stage_certify",
    "stage_simulate",
    "stage_report",
    "run_pipeline",
]

ARTIFACT_NAMES = {
    "fit-koopman": "koopman.json",
    "decompose": "decompose.json",
    "balance": "balanced.json",
    "certify": "certificates.json",
    "simulate": "empirical.json",
    "report": "report.json",
}

# fixed rng stream offsets per pipeline stage
_SEED_GAINS = 1
_SEED_ERROR_FULL = 2
_SEED_ERROR_REDUCED = 3
_SEED_ENSEMBLE = 4
_SEED_DATA = 5

# the certificate keys each report row repeats, in report.csv's column order
_REPORT_CERT_KEYS = (
    "order", "hankel_tail", "control_gain", "truncation_bound", "total_bound",
    "status", "small_gain_full", "small_gain_reduced",
)

# largest accepted fit residual of h(x) ~ C phi(x), relative to the largest
# output norm on the data; no certificate term prices a larger one
OUTPUT_RESIDUAL_TOL = 1e-6


# key -> (accepted types, bound), as in expr.check_fields: the config and
# its ``data``, the trajectory settings that override ``_DATA_DEFAULTS``
_REAL, _NULL, _INT = numbers.Real, type(None), numbers.Integral
_CONFIG_FIELDS = {
    "system": ((str, dict), None), "reduction_orders": ((list, tuple), None),
    "output_dir": ((str, os.PathLike), None), "seed": (_INT, 0), "slack": ((_REAL, _NULL), 1),
    "sample_budget": (_INT, MIN_SAMPLE_BUDGET), "gain_box": ((_REAL, _NULL), "positive"),
    "dictionary": ((dict, _NULL), None), "ensemble_count": (_INT, 1),
    "horizon": ((_REAL, _NULL), "positive"), "ode_tol": (_REAL, MIN_ODE_TOL), "data": (dict, None),
}
_DATA_FIELDS = {
    "trajectories": (_INT, 1), "samples_per_trajectory": (_INT, 1), "horizon": (_REAL, "positive"),
    "box": (_REAL, "positive"), "tol": (_REAL, MIN_ODE_TOL),
}
_DATA_DEFAULTS = {
    "trajectories": 30, "samples_per_trajectory": 10, "horizon": 4.0, "box": 1.5, "tol": 1e-9,
}


class MissingArtifactError(FileNotFoundError):
    """A stage was invoked before its prerequisite stage."""

    def __init__(self, stage: str, path: Path, produced_by: str):
        super().__init__(
            f"stage {stage!r} needs {path}; run the {produced_by!r} stage first"
        )
        self.stage = stage


@dataclass
class PipelineConfig:
    """Reproducible description of one end-to-end reduction run."""

    system: str | dict
    reduction_orders: list[int]
    output_dir: str = "out"
    seed: int = 0
    slack: float | None = None
    sample_budget: int = 2000
    gain_box: float | None = None
    dictionary: dict | None = None
    ensemble_count: int = 6
    horizon: float | None = None
    ode_tol: float = 1e-8
    data: dict = field(default_factory=lambda: dict(_DATA_DEFAULTS))

    def __post_init__(self):
        check_fields("config", vars(self), _CONFIG_FIELDS)
        check_fields("data", self.data, _DATA_FIELDS)
        if self.dictionary is not None:
            check_dictionary("dictionary", self.dictionary)
        for r in self.reduction_orders:
            check_type("reduction order", r, numbers.Integral)
        self.reduction_orders = [int(r) for r in self.reduction_orders]
        if not self.reduction_orders:
            raise ValueError("reduction_orders must be nonempty")
        if any(r < 1 for r in self.reduction_orders):
            raise ValueError("reduction orders must be positive")
        self.seed = int(self.seed)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        raw = json.loads(Path(path).read_text())
        check_type("config", raw, dict)
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        check_fields("config", raw, _CONFIG_FIELDS, required=("system", "reduction_orders"))
        return cls(**raw)


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _jsonable(obj):
    """The JSON value of an artifact payload: dataclasses field by field, arrays
    and numpy scalars as (nested) lists and Python numbers, paths as strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, os.PathLike):
        return os.fspath(obj)
    return obj


def _load(cls, data: dict, **given):
    """Rebuild the dataclass ``cls`` from its artifact keys; JSON lists become
    float arrays, and ``given`` supplies the fields an artifact does not hold."""
    values = {f.name: data[f.name] for f in dataclasses.fields(cls) if f.name not in given}
    values = {k: np.asarray(v, float) if isinstance(v, list) else v for k, v in values.items()}
    return cls(**values, **given)


def _write_json(path: Path, payload):
    """Write ``payload`` as JSON and return its JSON value."""
    value = _jsonable(payload)
    path.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n")
    return value


def _read_artifact(config: PipelineConfig, stage: str, needed_by: str) -> dict:
    path = _out_dir(config) / ARTIFACT_NAMES[stage]
    if not path.exists():
        raise MissingArtifactError(needed_by, path, stage)
    return json.loads(path.read_text())


def _resolve_system(config: PipelineConfig) -> ControlSystem:
    if isinstance(config.system, str):
        return get_builtin(config.system)
    # the config's box is the inline system's, so a sampled lipschitz_u covers it
    box = {} if config.gain_box is None else {"gain_box": config.gain_box}
    return system_from_spec({**config.system, **box})


def _resolve_dictionary(config: PipelineConfig, system) -> Dictionary:
    """The config's dictionary, or else the system's hint.

    Raises ``ValueError`` when a reduction order exceeds the lifted
    dimension ``q``, so that every stage that takes the orders rejects them
    before it computes or writes anything.
    """
    spec = config.dictionary or system.dictionary_hint
    dictionary = build_dictionary(
        spec["kind"],
        system.n,
        degree=spec.get("degree"),
        exponents=spec.get("exponents"),
    )
    bad = [r for r in config.reduction_orders if r > dictionary.q]
    if bad:
        raise ValueError(f"reduction orders {bad} exceed the lifted dimension {dictionary.q}")
    return dictionary


def _slack(config: PipelineConfig, system) -> float:
    return float(config.slack if config.slack is not None else system.suggested_slack)


def _gain_box(config: PipelineConfig, system) -> float:
    return float(config.gain_box if config.gain_box is not None else system.gain_box)


def _collect_data(config: PipelineConfig, system) -> TrajectoryDataset:
    d = {**_DATA_DEFAULTS, **config.data}
    return collect_trajectories(
        system.drift,
        system.n,
        count=int(d["trajectories"]),
        horizon=float(d["horizon"]),
        samples_per_trajectory=int(d["samples_per_trajectory"]),
        box=float(d["box"]),
        tol=float(d["tol"]),
        seed=[config.seed, _SEED_DATA],
    )


def stage_fit_koopman(config: PipelineConfig) -> dict:
    """Fit the lifted generator and output matrix; artifact: koopman.json.

    Raises ``ValueError`` when the dictionary does not span the output map:
    the worst fit residual of ``h(x) ~ C phi(x)`` on the data exceeds
    ``OUTPUT_RESIDUAL_TOL`` times the largest output norm there.
    """
    system = _resolve_system(config)
    dictionary = _resolve_dictionary(config, system)
    data = _collect_data(config, system)
    model = fit_koopman(
        system.drift, system.h, dictionary, data, seed=config.seed
    )
    if model.output_residual > OUTPUT_RESIDUAL_TOL * model.output_scale:
        raise ValueError(
            f"output residual {model.output_residual:.3g} exceeds {OUTPUT_RESIDUAL_TOL:g} "
            f"times the output scale {model.output_scale:.3g}: the dictionary must span the "
            "output map h"
        )
    payload = {
        **vars(model),
        "system": system.name,
        "dims": {"n": system.n, "l": system.l, "p": system.p, "q": dictionary.q},
        "dictionary": dictionary.spec(),
        "data_provenance": data.provenance,
    }
    return _write_json(_out_dir(config) / ARTIFACT_NAMES["fit-koopman"], payload)


def stage_decompose(config: PipelineConfig) -> dict:
    """Factor the lifted control term; artifact: decompose.json."""
    _read_artifact(config, "fit-koopman", "decompose")
    system = _resolve_system(config)
    dictionary = _resolve_dictionary(config, system)
    fu = lifted_control_term(system.f, dictionary, l=system.l)
    dims = (system.n, system.l)
    gains = estimate_gains(
        fu,
        dims,
        sample_budget=config.sample_budget,
        seed=[config.seed, _SEED_GAINS],
        box=_gain_box(config, system),
    )
    factor = decompose(fu, dims, gains, slack=_slack(config, system))
    payload = {
        "u": factor.u,
        "sigma": factor.sigma,
        "slack": factor.slack,
        "lipschitz_u": system.lipschitz_u,
        "gains": gains,
    }
    return _write_json(_out_dir(config) / ARTIFACT_NAMES["decompose"], payload)


def stage_balance(config: PipelineConfig) -> dict:
    """Balance the lifted realization; artifact: balanced.json."""
    koop = _read_artifact(config, "fit-koopman", "balance")
    dec = _read_artifact(config, "decompose", "balance")
    a = np.asarray(koop["a"], float)
    c = np.asarray(koop["c"], float)
    b = np.asarray(dec["u"], float) @ np.asarray(dec["sigma"], float)
    bal = balance(LtiSystem(a, b, c), state_dim=int(koop["dims"]["n"]))
    return _write_json(_out_dir(config) / ARTIFACT_NAMES["balance"], {**vars(bal), "q": bal.q})


def _reduced_models(config: PipelineConfig, needed_by: str):
    """System, decompose.json, balanced realization, its nonlinear evaluators and
    each order's truncation, built once for certify and simulate; artifacts are
    read in pipeline order, so a missing one names the earliest stage still to
    run."""
    system = _resolve_system(config)
    dictionary = _resolve_dictionary(config, system)
    model = _load(KoopmanModel, _read_artifact(config, "fit-koopman", needed_by), dictionary=dictionary)
    dec = _read_artifact(config, "decompose", needed_by)
    bal = _load(BalancedRealization, _read_artifact(config, "balance", needed_by))
    reduced = [truncate(bal, r) for r in config.reduction_orders]
    bn = balanced_nonlinear(system.f, system.l, model, bal, system.linear)
    return system, dec, bal, bn, reduced


def stage_certify(config: PipelineConfig) -> dict:
    """Compute certificates for every requested order; artifact: certificates.json."""
    system, dec, bal, bn, reduced = _reduced_models(config, "certify")
    slack = _slack(config, system)
    box = _gain_box(config, system)

    hinf_output = hinf_norm(LtiSystem(bal.a_bal, bal.b_bal, bal.c_bal))
    lift_norm, recovery_norm = lift_sensitivity_norms(
        bal, np.asarray(dec["u"], float), np.asarray(dec["sigma"], float)
    )

    def leg(red, seed):
        # error factor -> feedback decomposition -> output gap, of the full
        # balanced realization (red=None) or of one truncation
        a, b, c = (bal.a_bal, bal.b_bal, bal.c_bal) if red is None else (red.a_r, red.b_r, red.c_r)
        err = factor_error(bn, reduced=red, slack=slack, sample_budget=config.sample_budget,
                           seed=seed, box=box)
        fb = feedback_decomposition(a, b, err)
        return fb, output_embedding_gap(c, fb.gp_norm)

    # from the declaration, never from f, which a caller may wrap
    spec = config.system if isinstance(config.system, dict) else builtin_declaration(config.system)
    affine = is_control_affine(spec, bn.model.dictionary.exponents)
    gain = control_truncation_gain(system.lipschitz_u, lift_norm, recovery_norm, affine)
    fb_full, gap_full = leg(None, [config.seed, _SEED_ERROR_FULL])

    certs = []
    for red in reduced:
        fb_red, gap_red = leg(red, [config.seed, _SEED_ERROR_REDUCED, red.order])
        cert = build_certificate(
            order=red.order,
            full=fb_full,
            reduced=fb_red,
            output_gap_full=gap_full,
            output_gap_reduced=gap_red,
            control_gain=gain,
            hinf_output=hinf_output,
            hsv_tail=red.hsv_tail,
            provenance={
                "seed": config.seed,
                "slack": slack,
                "sample_budget": config.sample_budget,
                "gain_box": box,
                "control_affine": bool(affine),
            },
        )
        certs.append(cert)

    payload = {
        "system": system.name,
        "control_affine": bool(affine),
        "hinf_output": float(hinf_output),
        "hsv": bal.hsv,
        "orders": certs,
    }
    return _write_json(_out_dir(config) / ARTIFACT_NAMES["certify"], payload)


def _default_horizon(a_bal: np.ndarray) -> float:
    slowest = float(np.min(-np.linalg.eigvals(a_bal).real))
    return float(np.clip(20.0 / max(slowest, 1e-6), 10.0, 60.0))


def stage_simulate(config: PipelineConfig) -> dict:
    """Measure empirical full-vs-reduced gains; artifact: empirical.json.

    Raises ``ValueError`` when a full-system solve fails: that says nothing
    about the certificate, unlike a failed reduced solve, which excludes the
    signal at its order.
    """
    system, _, bal, bn, reduced = _reduced_models(config, "simulate")
    horizon = config.horizon or _default_horizon(bal.a_bal)
    ensemble = input_ensemble(
        system.l, horizon, count=config.ensemble_count, seed=[config.seed, _SEED_ENSEMBLE]
    )
    trajectories = simulate_ensemble(system, bn, config.reduction_orders, ensemble, config.ode_tol)
    for signal, traj in zip(ensemble, trajectories):
        if isinstance(traj.full, str):
            raise ValueError(f"full-system solve failed under probe signal {signal.name}: {traj.full}")
    rows = [
        {"order": red.order, "estimate": estimate_gap(trajectories, red, ensemble)} for red in reduced
    ]
    payload = {
        "system": system.name,
        "horizon": float(horizon),
        "ensemble_count": int(config.ensemble_count),
        "orders": rows,
    }
    return _write_json(_out_dir(config) / ARTIFACT_NAMES["simulate"], payload)


def stage_report(config: PipelineConfig) -> tuple[dict, int]:
    """Join certificates with empirical gains; artifacts: report.json/.csv."""
    certs = _read_artifact(config, "certify", "report")
    emp = _read_artifact(config, "simulate", "report")
    est_by_order = {row["order"]: row["estimate"] for row in emp["orders"]}

    rows = []
    any_fail = False
    for cert in certs["orders"]:
        r = cert["order"]
        est = est_by_order.get(r)
        if est is None:
            raise ValueError(f"no empirical estimate for order {r}")
        excluded = len(est["excluded"])
        verdict, tightness = judge_bound(cert["total_bound"], est["value"], excluded)
        any_fail = any_fail or verdict == "FAIL"
        rows.append({
            **{k: cert[k] for k in _REPORT_CERT_KEYS},
            "empirical": est["value"], "excluded": excluded, "verdict": verdict, "tightness": tightness,
        })

    koop = _read_artifact(config, "fit-koopman", "report")
    report = {
        "config": config,
        "system": certs["system"],
        "dims": koop["dims"],
        "hsv": certs["hsv"],
        "koopman_residual_gain": koop["residual_gain"],
        "control_affine": certs["control_affine"],
        "horizon": emp["horizon"],
        "rows": rows,
        "all_sound": not any_fail,
    }
    out = _out_dir(config)
    report = _write_json(out / ARTIFACT_NAMES["report"], report)
    with (out / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows([list(rows[0]) if rows else [], *(row.values() for row in rows)])
    return report, (2 if any_fail else 0)


_STAGES = (
    ("fit-koopman", stage_fit_koopman),
    ("decompose", stage_decompose),
    ("balance", stage_balance),
    ("certify", stage_certify),
    ("simulate", stage_simulate),
)


def run_pipeline(config: PipelineConfig, verbose: bool = True) -> tuple[dict, int]:
    """Run every stage in order and return (report, exit_code)."""
    for name, fn in _STAGES:
        start = time.perf_counter()
        fn(config)
        if verbose:
            print(f"[{name}] {time.perf_counter() - start:.2f}s")
    start = time.perf_counter()
    report, code = stage_report(config)
    if verbose:
        print(f"[report] {time.perf_counter() - start:.2f}s")
        for row in report["rows"]:
            bound = row["total_bound"]
            bound_txt = "unbounded" if bound is None else f"{bound:.6g}"
            print(
                f"  r={row['order']}: bound={bound_txt} empirical={row['empirical']:.6g} "
                f"verdict={row['verdict']}"
            )
    return report, code
